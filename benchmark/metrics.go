package main

// metricDef names one reported number. BENCHMARK.json lists the same
// names, units, directions and bounds; TestContractMatchesMetricTable
// holds the two together.
type metricDef struct {
	name   string
	unit   string
	lower  bool    // lower is better
	bound  float64 // end-to-end only: share of the median it may worsen by
	origin string  // how it is measured, for the printed table
}

// endToEnd are the numbers a user of the service sees. failed_ratio is
// printed with them but is not in this table: it is 0 on every good run,
// and the contract wants gated metrics that are never 0, so failures travel
// in the result line's attempted/failed/correct keys instead.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", true, 0.25, "median client-observed op latency, submit to last result byte"},
	{"throughput_per_s", "1/s", false, 0.25, "timed ops / sum of their latencies (one closed-loop client)"},
	{"peak_rss_mb", "MB", true, 0.15, "VmHWM of the workload's process after the timed phase"},
	{"setup_s", "s", true, 0.25, "nothing -> first verified result, median of 3 cold set-ups"},
}

// perLayer are the numbers of single layers (the repo's packages), all
// taken in the traced run. They have no bound.
var perLayer = []metricDef{
	{"operator.apply1_ms", "ms", true, 0, "probe: ApplyInto, P2 structured, median of 20"},
	{"operator.apply8_ms", "ms", true, 0, "probe: ApplyBlock, 8 fields, median of 5"},
	{"operator.ns_per_nnz", "ns", true, 0, "apply1_ms / NNZ()"},
	{"operator.nnz", "count", true, 0, "NNZ() (exact)"},
	{"operator.bytes_mb", "MB", true, 0, "Bytes() (exact)"},
	{"operator.apply1_gbs", "GB/s", false, 0, "computed bytes (Bytes()) / apply1_ms"},
	{"operator.bw_fraction", "ratio", false, 0, "apply1_gbs / host.triad_gbs"},
	{"core.assemble_ms", "ms", true, 0, "probe: Artifacts.Operator cold"},
	{"core.evaluator_ms", "ms", true, 0, "probe: Artifacts.Evaluator cold"},
	{"core.per_element_ms", "ms", true, 0, "probe: RunPerElement, all patches, one worker, median of 3"},
	{"core.intersection_tests", "count", true, 0, "Result.Total of that run (exact, paper Table 1)"},
	{"core.flops", "count", true, 0, "Result.Total of that run (exact, modeled)"},
	{"core.evalbatch_us_per_pt", "us", true, 0, "probe: EvalBatch, 256 seeded points, P2"},
	{"tile.tiling_ms", "ms", true, 0, "probe: Artifacts.Tiling cold"},
	{"tile.memory_overhead", "ratio", true, 0, "Result.MemoryOverhead (paper Fig. 8)"},
	{"artifact.save_ms", "ms", true, 0, "probe: Store.SaveOperator (fsync'd)"},
	{"artifact.load_ms", "ms", true, 0, "probe: Store.LoadOperator(key, mapped), median of 5"},
	{"artifact.file_mb", "MB", true, 0, "size of the operator's .art file"},
	{"dg.project_ms", "ms", true, 0, "probe: Artifacts.Field cold"},
	{"mesh.decode_ms", "ms", true, 0, "probe: mesh.Decode"},
	{"server.boot_ms", "ms", true, 0, "probe: server.New on a populated store, median of 5"},
	{"server.shard_op_ms", "ms", true, 0, "ring 2 p50: the op sent straight to its shard(s)"},
	{"server.overhead_ms", "ms", true, 0, "ring 2 p50 - ring 3 p50: HTTP + queue + poll + encode"},
	{"server.submit_ms", "ms", true, 0, "job submit round trip, p50"},
	{"server.result_fetch_ms", "ms", true, 0, "result GET round trip, p50"},
	{"server.cache_resident_mb", "MB", true, 0, "GET /debug/metrics, summed over shards"},
	{"server.cache_hit_rate", "ratio", false, 0, "GET /debug/metrics, pooled over shards"},
	{"cluster.hop_ms", "ms", true, 0, "ring 1 p50 - ring 2 p50 on alternated identical ops"},
	{"cluster.result_kb", "KB", true, 0, "size of the result body"},
	{"loadgen.latency_p90_ms", "ms", true, 0, "timed phase; diagnostic, never gated"},
	{"loadgen.cpu_ms_per_op", "ms", true, 0, "timed phase; getrusage delta / ops"},
	{"loadgen.polls_per_op", "count", true, 0, "timed phase; status polls / ops"},
	{"host.triad_gbs", "GB/s", false, 0, "STREAM triad, one thread, before the run"},
	{"host.spin_ms", "ms", true, 0, "fixed multiply-add chain, before the run"},
	{"host.drift_ratio", "ratio", true, 0, "slowdown of the calibration from before to after the run"},
	{"trace.reconcile_ratio", "ratio", false, 0, "(ring self times + stage p50s) / traced op p50; want 0.85..1.05"},
	{"trace.overhead_ratio", "ratio", true, 0, "traced op p50 / untraced op p50; want <= 1.05"},
}

// unitOf maps every metric name to its unit.
func unitOf(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

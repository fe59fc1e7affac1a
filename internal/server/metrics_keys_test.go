package server

import (
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"unstencil/internal/mesh"
)

// metricKeyPaths flattens a decoded JSON document into the sorted set of
// its key paths: object keys join with ".", array elements share one
// "[]" segment. leaf is called on every scalar with its path.
func metricKeyPaths(v any, leaf func(path string, v any)) []string {
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(path+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			set[path[1:]] = true
			leaf(path[1:], v)
		}
	}
	walk("", v)
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// TestMetricsKeyPaths pins the /debug/metrics body of a server with a
// store attached, after one job of each scheme: every key path and the
// type of every counter. The counter sets marshal themselves, so a field
// added to one shows up here rather than silently going missing.
func TestMetricsKeyPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, EvalWorkers: 2, StoreDir: t.TempDir()})
	id := uploadMesh(t, ts, mesh.Structured(6))
	for _, scheme := range []string{"per-point", "per-element", "operator"} {
		st, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: scheme, P: 1, Blocks: 4})
		if code != http.StatusAccepted {
			t.Fatalf("%s submit status %d", scheme, code)
		}
		if st = waitJob(t, ts, st.ID, 60*time.Second); st.State != StateDone {
			t.Fatalf("%s job: state %s err %q", scheme, st.State, st.Error)
		}
	}
	var body map[string]any
	if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	counterSections := []string{"cache", "cache_classes", "faults", "operator", "schemes", "store"}
	got := metricKeyPaths(body, func(path string, v any) {
		section, _, _ := strings.Cut(path, ".")
		if _, num := v.(float64); slices.Contains(counterSections, section) && !num {
			t.Errorf("%s = %v (%T), want a JSON number", path, v, v)
		}
	})
	want := []string{
		// Recorded at the commit before the counter sets marshalled
		// themselves, less the derived operator.stamp_rate.
		"cache.bytes", "cache.entries", "cache.evictions", "cache.hits",
		"cache.max_bytes", "cache.misses", "cache.rejected_oversize",
		"cache_classes.eval.bytes", "cache_classes.eval.entries",
		"cache_classes.eval.evictions", "cache_classes.eval.hits",
		"cache_classes.eval.misses", "cache_classes.field.bytes",
		"cache_classes.field.entries", "cache_classes.field.evictions",
		"cache_classes.field.hits", "cache_classes.field.misses",
		"cache_classes.mesh.bytes", "cache_classes.mesh.entries",
		"cache_classes.mesh.evictions", "cache_classes.mesh.hits",
		"cache_classes.mesh.misses", "cache_classes.op.bytes",
		"cache_classes.op.entries", "cache_classes.op.evictions",
		"cache_classes.op.hits", "cache_classes.op.misses",
		"cache_classes.tiling.bytes", "cache_classes.tiling.entries",
		"cache_classes.tiling.evictions", "cache_classes.tiling.hits",
		"cache_classes.tiling.misses",
		"cache_hit_rate",
		"faults.degraded_jobs", "faults.job_retries", "faults.jobs_replayed",
		"faults.panics_recovered", "faults.tile_retries", "faults.tiles_failed",
		"jobs.done",
		"operator.assembly_wall_ewma_ms", "operator.block_applies",
		"operator.classes_demoted", "operator.fields_applied",
		"operator.rows_assembled", "operator.rows_stamped",
		"operator.rows_total", "operator.single_applies",
		"queue_capacity",
		"queue_depth",
		"schemes.operator.counters.bytes_read",
		"schemes.operator.counters.bytes_uncoalesced",
		"schemes.operator.counters.flops",
		"schemes.operator.counters.intersection_tests",
		"schemes.operator.counters.quad_evals",
		"schemes.operator.counters.regions",
		"schemes.operator.counters.scattered_loads",
		"schemes.operator.counters.true_positives", "schemes.operator.runs",
		"schemes.per-element.counters.bytes_read",
		"schemes.per-element.counters.bytes_uncoalesced",
		"schemes.per-element.counters.flops",
		"schemes.per-element.counters.intersection_tests",
		"schemes.per-element.counters.quad_evals",
		"schemes.per-element.counters.regions",
		"schemes.per-element.counters.scattered_loads",
		"schemes.per-element.counters.true_positives",
		"schemes.per-element.runs", "schemes.per-point.counters.bytes_read",
		"schemes.per-point.counters.bytes_uncoalesced",
		"schemes.per-point.counters.flops",
		"schemes.per-point.counters.intersection_tests",
		"schemes.per-point.counters.quad_evals",
		"schemes.per-point.counters.regions",
		"schemes.per-point.counters.scattered_loads",
		"schemes.per-point.counters.true_positives", "schemes.per-point.runs",
		"store.bytes_written", "store.corrupt_rejected", "store.disk_hits",
		"store.disk_misses", "store.torn_files_gcd", "store.write_errors",
		"store.writes",
		"store_dir",
		"uptime_ms",
		"workers",
		"workers_busy",
	}
	if !slices.Equal(got, want) {
		t.Errorf("key paths differ\n got %q\nwant %q", got, want)
	}
}

// TestShardEvalKeyPaths pins the /v1/shard/eval wire format the
// coordinator and the request benchmark decode: each patch is its number,
// its points and its values, and the counters travel once, summed, not per
// patch.
func TestShardEvalKeyPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 2})
	id := uploadMesh(t, ts, mesh.Structured(6))
	var body map[string]any
	if code := postShard(t, ts, "/v1/shard/eval", ShardEvalRequest{
		MeshID: id, P: 1, K: 4, Patches: []int{0, 1},
	}, &body); code != http.StatusOK {
		t.Fatalf("shard eval status %d", code)
	}
	got := metricKeyPaths(body, func(string, any) {})
	want := []string{
		"counters.bytes_read", "counters.bytes_uncoalesced", "counters.flops",
		"counters.intersection_tests", "counters.quad_evals", "counters.regions",
		"counters.scattered_loads", "counters.true_positives",
		"k",
		"memory_overhead",
		"mesh_id",
		"num_points",
		"patches[].patch", "patches[].points[]", "patches[].values[]",
		"wall_ms",
	}
	if !slices.Equal(got, want) {
		t.Errorf("key paths differ\n got %q\nwant %q", got, want)
	}
}

// Command unstencil-bench runs the fixed-seed hot-path benchmark suite and
// records the results in a JSON trajectory file (BENCH_PR3.json at the repo
// root) so performance work is provable and regressions are visible across
// commits.
//
// Usage:
//
//	unstencil-bench -label after -out BENCH_PR3.json
//	unstencil-bench -out BENCH_PR3.json -compare before,after
//	unstencil-bench -scaling -scaling-out BENCH_PR4.json
//	unstencil-bench -operator -operator-out BENCH_PR5.json
//	unstencil-bench -artifact -artifact-out BENCH_PR6.json
//
// Each invocation merges its results into the output file under -label,
// preserving runs recorded under other labels; -compare prints a
// benchstat-like base-vs-head table from the stored runs without
// re-benchmarking. -scaling runs the strong-scaling sweep instead: every
// scheme at every worker count, recording wall-clock and modeled speedups
// plus the bit-identity check against the serial run. -operator runs the
// assembled-operator sweep: assembly cost, apply-vs-direct throughput,
// operator shape, and the break-even field count at which assembly pays for
// itself. -artifact runs the cold-start sweep: re-assembly cost vs loading
// the persisted operator artifact (mapped and portable), encoded bytes per
// artifact, and the identity check on the loaded operator's output. (The
// request-level numbers live in ./benchmark; the sweeps over operator
// layouts, batching and assembly schedules that used to run here are
// recorded in EXPERIMENTS.md, "Retired sweeps".)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"unstencil/internal/bench"
)

func main() {
	var (
		out            = flag.String("out", "BENCH_PR3.json", "trajectory file to merge results into")
		label          = flag.String("label", "head", "label to record this run under (e.g. before, after)")
		size           = flag.Int("size", 0, "override benchmark mesh size (0 = suite default)")
		workers        = flag.Int("workers", 0, "override evaluation worker count (0 = GOMAXPROCS)")
		compare        = flag.String("compare", "", "compare two stored labels, e.g. before,after (skips benchmarking)")
		threshold      = flag.Float64("warn-below", 0, "with -compare: exit 1 when geomean speedup falls below this")
		scaling        = flag.Bool("scaling", false, "run the strong-scaling sweep instead of the hot-path suite")
		scalingOut     = flag.String("scaling-out", "BENCH_PR4.json", "with -scaling: report file to write")
		scalingWorkers = flag.String("scaling-workers", "", "with -scaling: comma-separated worker sweep, e.g. 1,2,4,8")
		operator       = flag.Bool("operator", false, "run the assembled-operator sweep instead of the hot-path suite")
		operatorOut    = flag.String("operator-out", "BENCH_PR5.json", "with -operator: report file to write")
		artifactSweep  = flag.Bool("artifact", false, "run the artifact cold-start sweep instead of the hot-path suite")
		artifactOut    = flag.String("artifact-out", "BENCH_PR6.json", "with -artifact: report file to write")
		artifactDir    = flag.String("artifact-dir", "", "with -artifact: store scratch directory (default: temp dir)")
	)
	flag.Parse()

	if *artifactSweep {
		acfg := bench.DefaultArtifactConfig()
		if *size > 0 {
			acfg.Size = *size
		}
		if *workers > 0 {
			acfg.Workers = *workers
		}
		fmt.Fprintf(os.Stderr, "running artifact cold-start sweep (size=%d, orders=%v)...\n", acfg.Size, acfg.Orders)
		rep, err := bench.RunArtifact(acfg, *artifactDir)
		if err != nil {
			fatal(err)
		}
		rep.Fprint(os.Stdout)
		if err := rep.Save(*artifactOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *artifactOut)
		return
	}

	if *operator {
		ocfg := bench.DefaultOperatorConfig()
		if *size > 0 {
			ocfg.Size = *size
		}
		if *workers > 0 {
			ocfg.Workers = *workers
		}
		fmt.Fprintf(os.Stderr, "running assembled-operator sweep (size=%d, orders=%v)...\n", ocfg.Size, ocfg.Orders)
		rep, err := bench.RunOperator(ocfg)
		if err != nil {
			fatal(err)
		}
		rep.Fprint(os.Stdout)
		if err := rep.Save(*operatorOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *operatorOut)
		return
	}

	if *scaling {
		scfg := bench.DefaultScalingConfig()
		if *size > 0 {
			scfg.Size = *size
		}
		if *scalingWorkers != "" {
			ws, err := parseWorkerList(*scalingWorkers)
			if err != nil {
				fatal(err)
			}
			scfg.Workers = ws
		}
		fmt.Fprintf(os.Stderr, "running strong-scaling sweep (size=%d, workers=%v)...\n", scfg.Size, scfg.Workers)
		rep, err := bench.RunScaling(scfg)
		if err != nil {
			fatal(err)
		}
		rep.Fprint(os.Stdout)
		if err := rep.Save(*scalingOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *scalingOut)
		return
	}

	cfg := bench.DefaultHotPathConfig()
	if *size > 0 {
		cfg.Size = *size
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}

	rep, err := bench.LoadHotPathReport(*out, cfg)
	if err != nil {
		fatal(err)
	}

	if *compare != "" {
		parts := strings.SplitN(*compare, ",", 2)
		if len(parts) != 2 {
			fatal(fmt.Errorf("-compare wants base,head; got %q", *compare))
		}
		gm := rep.FprintComparison(os.Stdout, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
		if *threshold > 0 && gm < *threshold {
			fmt.Fprintf(os.Stderr, "unstencil-bench: geomean speedup %.2fx below threshold %.2fx\n", gm, *threshold)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "running hot-path suite (size=%d, label=%q)...\n", cfg.Size, *label)
	results, err := bench.RunHotPath(cfg)
	if err != nil {
		fatal(err)
	}
	for _, r := range results {
		fmt.Printf("%-34s %12.0f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.ModelGFLOPs > 0 {
			fmt.Printf(" %8.3f model-GF/s", r.ModelGFLOPs)
		}
		fmt.Println()
	}
	rep.Runs[*label] = results
	if err := rep.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func parseWorkerList(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scaling-workers entry %q", part)
		}
		ws = append(ws, n)
	}
	return ws, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unstencil-bench:", err)
	os.Exit(1)
}

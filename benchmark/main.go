// Command benchmark is the repo's one request-level benchmark: four
// workloads driven through real loopback HTTP by one closed-loop client,
// four gated end-to-end metrics, and a per-layer budget taken in a separate
// traced pass. See README.md in this directory.
//
//	go run ./benchmark -seed 1        every workload, every metric
//	go run ./benchmark -check         run twice, compare against the bounds
//
// The pipeline runs one workload at a time:
//
//	go run ./benchmark --workload warm-1field --seed 7 --seconds 15 --trace 0
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeconds is the length of a timed phase; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 15

// driftLimit is the calibration slowdown past which a run is labelled
// "noisy host".
const driftLimit = 1.10

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // with -workload: 0 end-to-end only, 1 the traced pass and per-layer metrics
	check    bool
	baseline int
	results  string
	child    bool
	tmp      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the pipeline's JSON line (default: all, as tables)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (field order, mesh turn)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of each workload's timed phase")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass too and reports the per-layer metrics")
	flag.BoolVar(&o.check, "check", false, "run the whole benchmark twice and compare every end-to-end metric against its bound")
	flag.IntVar(&o.baseline, "baseline", 0, "run two sets of this many full runs and write results/baseline.json")
	flag.StringVar(&o.results, "results", filepath.Join("benchmark", "results"), "directory for traces, the baseline and scratch space")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process and print its report")
	flag.StringVar(&o.tmp, "tmp", "", "internal: scratch directory of a -child run")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case o.child:
		err = childMain(o)
	case o.check:
		err = checkMain(ctx, o)
	case o.baseline > 0:
		err = baselineMain(ctx, o)
	case o.workload != "":
		err = pipelineMain(ctx, o)
	default:
		err = tablesMain(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// childMain is the re-exec'd half: one workload, in-process servers, the
// report as the last line of standard output.
func childMain(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := runConfig{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, size: fullSize, tmpDir: o.tmp}
	rep, err := runWorkload(w, cfg, o.results)
	if rep != nil {
		if raw, jerr := json.Marshal(rep); jerr == nil {
			fmt.Println(string(raw))
		}
	}
	return err
}

// runChild runs one workload in a child process of its own, calibrating the
// host before and after. The child is killed if ctx ends; its scratch
// directory is removed whatever happens to it.
func runChild(ctx context.Context, o options, w workload, seed int64, trace bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.results, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	before := calibrate(trace)
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", traceArg, "-results", o.results, "-tmp", tmp)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: interrupted", w.name)
	}
	var rep report
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: child gave no report (%v): %w", w.name, runErr, err)
	}
	after := calibrate(trace)

	drift := driftRatio(before, after)
	if drift > driftLimit {
		rep.Notes = append(rep.Notes, fmt.Sprintf("warning: noisy host: calibration ran %.0f%% slower after the run than before it", 100*(drift-1)))
	}
	if rep.PerLayer != nil {
		rep.PerLayer["host.triad_gbs"] = before.TriadGBs
		rep.PerLayer["host.spin_ms"] = before.SpinMS
		rep.PerLayer["host.drift_ratio"] = drift
		rep.PerLayer["operator.bw_fraction"] = ratio(rep.PerLayer["operator.apply1_gbs"], before.TriadGBs)
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s: %w", w.name, runErr)
	}
	return &rep, nil
}

// pipelineMain serves the pipeline's contract: one workload, human-readable
// progress on standard error, one JSON object as the last line of standard
// output, and a non-zero exit if anything failed.
func pipelineMain(ctx context.Context, o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	trace := o.trace == 1
	rep, err := runChild(ctx, o, w, o.seed, trace)
	if rep == nil || rep.EndToEnd == nil {
		return err // no result to print
	}
	printReport(os.Stderr, rep, !trace, trace)
	values, units := rep.EndToEnd, unitOf(endToEnd)
	if trace {
		values, units = rep.PerLayer, unitOf(perLayer)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for name, unit := range units {
		metrics[name] = metric{values[name], unit}
	}
	line, jerr := json.Marshal(map[string]any{
		"correct":   rep.correct() && err == nil,
		"attempted": max(rep.Attempted, 1),
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	if err == nil && !rep.correct() {
		err = fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
	}
	return err
}

// runAll runs every workload once, each in its own child.
func runAll(ctx context.Context, o options, seed int64, trace bool) ([]*report, error) {
	var reps []*report
	var errs []error
	for _, w := range workloads {
		rep, err := runChild(ctx, o, w, seed, trace)
		if err != nil {
			errs = append(errs, err)
		}
		if rep != nil && rep.EndToEnd != nil {
			if !rep.correct() {
				errs = append(errs, fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted))
			}
			reps = append(reps, rep)
		}
		if ctx.Err() != nil {
			break
		}
	}
	return reps, errors.Join(errs...)
}

// tablesMain is `go run ./benchmark -seed N`: every workload, every metric
// by name with its unit.
func tablesMain(ctx context.Context, o options) error {
	env := readEnv()
	fmt.Printf("unstencil benchmark: seed %d, %.0f s per workload; %s, %d cpus, GOMAXPROCS %d, %s, commit %s\n",
		o.seed, o.seconds, env.CPU, env.NProc, env.GOMAXPROCS, env.Go, env.Commit)
	fmt.Println(triadNote(env))
	reps, err := runAll(ctx, o, o.seed, true)
	for _, rep := range reps {
		printReport(os.Stdout, rep, true, true)
	}
	return err
}

// printReport writes one workload's metrics by name with their units.
func printReport(out *os.File, rep *report, e2e, layers bool) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "\n== %s (seed %d, %d timed ops, %d attempted, %d failed)\n", rep.Workload, rep.Seed, rep.TimedOps, rep.Attempted, rep.Failed)
	if e2e {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-26s %14.4f %-6s  %s\n", d.name, rep.EndToEnd[d.name], d.unit, d.origin)
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-6s  %s\n", "failed_ratio", rep.failedRatio(), "ratio", "failed / attempted ops; not gated, any failure fails the run")
	}
	if layers && rep.PerLayer != nil {
		fmt.Fprintln(w, "  -- per layer (traced pass and probes)")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-26s %14.4f %-6s  %s\n", d.name, rep.PerLayer[d.name], d.unit, d.origin)
		}
		fmt.Fprintf(w, "  -- where a traced op's time goes\n%s", rep.Budget)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  "+n)
	}
}

// checkMain runs the whole benchmark twice back to back and holds every
// end-to-end metric of the second run against the first and its bound.
func checkMain(ctx context.Context, o options) error {
	first, err := runAll(ctx, o, o.seed, false)
	if err != nil {
		return err
	}
	second, err := runAll(ctx, o, o.seed, false)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	bad := 0
	for i, a := range first {
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.name], second[i].EndToEnd[d.name]
			by := worseBy(x, y, d.lower)
			verdict := ""
			if by > d.bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", a.Workload, d.name, x, y, 100*by, 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between two runs of the same code", bad)
	}
	return nil
}

// summary is one metric over one set of runs.
type summary struct {
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
}

func summarize(v []float64) summary {
	q1, q2, q3 := quartiles(v)
	return summary{N: len(v), Q1: q1, Median: q2, Q3: q3, Spread: spread(v), Values: v}
}

// baselineMain runs two sets of o.baseline full runs (seeds o.seed,
// o.seed+1, …, the same in both sets), the way the pipeline accepts a
// benchmark, and writes every value with its quartiles to
// results/baseline.json. It fails if a spread or a set-to-set move of an
// end-to-end metric exceeds its bound.
func baselineMain(ctx context.Context, o options) error {
	type cell map[string][]float64 // metric → values
	sets := [2]map[string]cell{{}, {}}
	for s := range sets {
		for k := 0; k < o.baseline; k++ {
			reps, err := runAll(ctx, o, o.seed+int64(k), true)
			if err != nil {
				return err
			}
			for _, rep := range reps {
				c := sets[s][rep.Workload]
				if c == nil {
					c = cell{}
					sets[s][rep.Workload] = c
				}
				for name, v := range rep.EndToEnd {
					c[name] = append(c[name], v)
				}
				for name, v := range rep.PerLayer {
					c[name] = append(c[name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "baseline: set %d, run %d of %d done\n", s+1, k+1, o.baseline)
		}
	}

	type entry struct {
		Unit    string   `json:"unit"`
		Bound   float64  `json:"bound,omitempty"`
		First   summary  `json:"first_set"`
		Second  summary  `json:"second_set"`
		WorseBy *float64 `json:"second_median_worse_by,omitempty"`
	}
	out := map[string]any{"env": readEnv(), "seconds": o.seconds, "first_seed": o.seed, "runs_per_set": o.baseline}
	table := map[string]map[string]entry{}
	bad := 0
	fmt.Printf("%-14s %-18s %12s %8s %12s %8s %9s %7s\n", "workload", "metric", "median 1", "spread", "median 2", "spread", "worse by", "bound")
	for _, w := range workloads {
		table[w.name] = map[string]entry{}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			a, b := summarize(sets[0][w.name][d.name]), summarize(sets[1][w.name][d.name])
			e := entry{Unit: d.unit, Bound: d.bound, First: a, Second: b}
			if d.bound > 0 {
				by := worseBy(a.Median, b.Median, d.lower)
				e.WorseBy = &by
				verdict := ""
				// The pipeline does not hold setup_s's spread to its bound,
				// only its set-to-set move.
				if by > d.bound || d.name != "setup_s" && max(a.Spread, b.Spread) > d.bound {
					verdict = "  EXCEEDS"
					bad++
				}
				fmt.Printf("%-14s %-18s %12.4f %7.2f%% %12.4f %7.2f%% %8.2f%% %6.0f%%%s\n",
					w.name, d.name, a.Median, 100*a.Spread, b.Median, 100*b.Spread, 100*by, 100*d.bound, verdict)
			}
			table[w.name][d.name] = e
		}
	}
	out["workloads"] = table
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.results, "baseline.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if bad > 0 {
		return fmt.Errorf("%d end-to-end metric(s) are noisier than their bound", bad)
	}
	return nil
}

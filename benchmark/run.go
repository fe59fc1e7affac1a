package main

import (
	"fmt"
	"os"
)

// report is what one workload run produced. The child process prints it as
// JSON on its last line of standard output; the parent adds the host
// figures it measured around the child.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Budget    string             `json:"budget,omitempty"`
	TimedOps  int                `json:"timed_ops"`
	Notes     []string           `json:"notes,omitempty"`
}

func (rep *report) correct() bool { return rep.Failed == 0 }

// failedRatio is ops that errored, timed out or failed verification, over
// ops attempted.
func (rep *report) failedRatio() float64 {
	return ratio(float64(rep.Failed), float64(rep.Attempted))
}

// runWorkload runs one workload in this process: references, cold set-ups,
// warm-up, the timed phase and — with cfg.trace — the traced pass and the
// layer probes. traceDir receives the span file.
func runWorkload(w workload, cfg runConfig, traceDir string) (*report, error) {
	r, err := newRunner(w, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	rep := &report{Workload: w.name, Seed: cfg.seed}
	defer func() { rep.Attempted, rep.Failed, rep.Notes = r.attempted, r.failed, r.notes }()

	ph, err := r.measure()
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(os.Stderr, "%s: set-ups %.3f s, slice p50s %.3f ms\n", w.name, ph.setupS, ph.sliceP50)
	sumMS := 0.0
	for _, l := range ph.latMS {
		sumMS += l
	}
	p50 := median(ph.latMS)
	rep.TimedOps = len(ph.latMS)
	rep.EndToEnd = map[string]float64{
		"latency_p50_ms":   p50,
		"throughput_per_s": ratio(float64(len(ph.latMS)), sumMS/1e3),
		"peak_rss_mb":      ph.peakRSS,
		"setup_s":          median(ph.setupS),
	}
	if !cfg.trace {
		return rep, nil
	}

	ops := float64(len(ph.latMS))
	rep.PerLayer = map[string]float64{
		"loadgen.latency_p90_ms": percentile(ph.latMS, 0.9),
		"loadgen.cpu_ms_per_op":  ph.cpuMS / ops,
		"loadgen.polls_per_op":   float64(ph.polls) / ops,
	}
	tr, resultBytes, err := r.tracedPass()
	if err != nil {
		return rep, err
	}
	for k, v := range ringMetrics(tr, w.perElement, resultBytes, p50) {
		rep.PerLayer[k] = v
	}
	rep.Budget = budgetTable(tr)
	if v := rep.PerLayer["trace.reconcile_ratio"]; v < 0.85 || v > 1.05 {
		r.notes = append(r.notes, fmt.Sprintf("warning: trace.reconcile_ratio %.3f is outside [0.85, 1.05]: the layer budget does not add up to the op", v))
	}
	if v := rep.PerLayer["trace.overhead_ratio"]; v > 1.05 {
		r.notes = append(r.notes, fmt.Sprintf("warning: trace.overhead_ratio %.3f is above 1.05: the traced pass ran slower than the timed phase", v))
	}

	if w.restart {
		// Between restart ops nothing is deployed; boot once more to have
		// caches to read.
		if _, err := r.restartJob(r.cfg.size.warmup, true); err != nil {
			return rep, err
		}
	}
	if rep.PerLayer["server.cache_resident_mb"], rep.PerLayer["server.cache_hit_rate"], err = r.scrapeCaches(); err != nil {
		return rep, err
	}
	r.teardown()

	probes, err := layerProbes(cfg, r.order)
	if err != nil {
		return rep, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probes {
		rep.PerLayer[k] = v
	}
	path, err := writeTrace(traceDir, w.name, tr)
	if err != nil {
		return rep, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(tr.spans), path)
	return rep, nil
}

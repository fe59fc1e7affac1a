package main

import (
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end at toy size in this process —
// set-up, oracle, timed ops, the traced pass and the layer probes — so a
// change to any internal name the benchmark compiles against, or to any
// behaviour its oracle checks, breaks `go test ./...` rather than the next
// performance run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four in-process deployments")
	}
	for _, w := range workloads {
		dir := t.TempDir()
		cfg := runConfig{seed: 1, ops: 5, trace: true, size: toySize, tmpDir: dir}
		rep, err := runWorkload(w, cfg, dir)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed != 0 || rep.TimedOps < cfg.ops {
			t.Errorf("%s: %d of %d ops failed, %d timed (notes: %v)", w.name, rep.Failed, rep.Attempted, rep.TimedOps, rep.Notes)
		}
		for _, d := range endToEnd {
			if rep.EndToEnd[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, rep.EndToEnd[d.name])
			}
		}
		for _, d := range perLayer {
			// The parent process adds the host figures around a child.
			if _, ok := rep.PerLayer[d.name]; !ok && d.name != "operator.bw_fraction" && !strings.HasPrefix(d.name, "host.") {
				t.Errorf("%s: per-layer metric %s was not measured", w.name, d.name)
			}
		}
	}
}

package bench

import (
	"math"
	"path/filepath"
	"testing"

	"unstencil/internal/device"
)

// TestScalingAgreement is the CI scaling smoke: a small sweep at workers
// {1, 2} across both schemes must report parallel solutions
// bit-identical to serial (the acceptance gate the full BENCH_PR4.json run
// enforces at every worker count).
func TestScalingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep under -short")
	}
	cfg := ScalingConfig{
		Size:    240,
		Orders:  []int{1},
		Seed:    1,
		Patches: 8,
		Workers: []int{1, 2},
	}
	rep, err := RunScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * len(cfg.Workers) // two schemes
	if len(rep.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), wantRows)
	}
	for _, r := range rep.Rows {
		if !r.BitIdentical || r.MaxAbsDiffVsSerial != 0 {
			t.Errorf("%s/P%d workers=%d: diverged from serial by %g",
				r.Scheme, r.P, r.Workers, r.MaxAbsDiffVsSerial)
		}
		if r.MaxAbsDiffVsSerial > 1e-12 {
			t.Errorf("%s/P%d workers=%d: divergence %g above 1e-12",
				r.Scheme, r.P, r.Workers, r.MaxAbsDiffVsSerial)
		}
		if r.ModelUnits <= 0 || r.WallNsPerOp <= 0 {
			t.Errorf("%s/P%d workers=%d: empty timing row %+v", r.Scheme, r.P, r.Workers, r)
		}
		if r.Workers == 1 && math.Abs(r.ModelSpeedup-1) > 1e-9 {
			t.Errorf("%s/P%d: serial model speedup = %v, want 1", r.Scheme, r.P, r.ModelSpeedup)
		}
		if r.Workers > 1 && r.ModelSpeedup <= 1 {
			t.Errorf("%s/P%d workers=%d: model speedup %v, want > 1",
				r.Scheme, r.P, r.Workers, r.ModelSpeedup)
		}
	}
	if rep.SpeedupBasis == "" || rep.NumCPU < 1 {
		t.Errorf("report metadata incomplete: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestLPTMakespan pins the pool model's scheduler on hand-checkable inputs.
func TestLPTMakespan(t *testing.T) {
	costs := []float64{7, 5, 4, 3, 1}
	if got := device.LPTMakespan(costs, 1); got != 20 {
		t.Errorf("serial makespan = %v, want 20", got)
	}
	// Two workers, LPT: 7+3=10 vs 5+4+1=10.
	if got := device.LPTMakespan(costs, 2); got != 10 {
		t.Errorf("2-worker makespan = %v, want 10", got)
	}
	// More workers than units: bound by the largest unit.
	if got := device.LPTMakespan(costs, 16); got != 7 {
		t.Errorf("16-worker makespan = %v, want 7", got)
	}
	if got := device.LPTMakespan(nil, 4); got != 0 {
		t.Errorf("empty makespan = %v, want 0", got)
	}
}

// TestPoolReduction checks the two-stage reduction charge scales down with
// workers while keeping the per-worker merge term.
func TestPoolReduction(t *testing.T) {
	tm := device.Pool{Workers: 4}.Run([]float64{10, 10, 10, 10}, 100)
	wantRed := 100.0/4 + 4*device.CoalescedWordCost
	if tm.Reduction != wantRed {
		t.Errorf("reduction = %v, want %v", tm.Reduction, wantRed)
	}
	if tm.Compute != 10 {
		t.Errorf("compute = %v, want 10", tm.Compute)
	}
	if tm.Total != tm.Compute+tm.Reduction {
		t.Errorf("total = %v, want compute+reduction", tm.Total)
	}
}

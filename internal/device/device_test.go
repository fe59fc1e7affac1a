package device

import (
	"math"
	"testing"

	"unstencil/internal/metrics"
)

func TestCostModel(t *testing.T) {
	c := metrics.Counters{Flops: 100}
	if Cost(&c) != 100 {
		t.Errorf("pure flops cost = %v", Cost(&c))
	}
	c = metrics.Counters{BytesRead: 80} // 10 coalesced words
	if Cost(&c) != 10*CoalescedWordCost {
		t.Errorf("coalesced cost = %v", Cost(&c))
	}
	c = metrics.Counters{BytesRead: 80, BytesUncoalesced: 80}
	if Cost(&c) != 10*UncoalescedWordCost {
		t.Errorf("uncoalesced cost = %v", Cost(&c))
	}
	if UncoalescedWordCost <= CoalescedWordCost {
		t.Error("uncoalesced reads must cost more than coalesced")
	}
}

func TestSecondsAndGFlops(t *testing.T) {
	if got := Seconds(SMFlopsPerSecond); got != 1 {
		t.Errorf("Seconds = %v", got)
	}
	if got := GFlops(2e9, 1); got != 2 {
		t.Errorf("GFlops = %v", got)
	}
	if GFlops(1, 0) != 0 {
		t.Error("GFlops with zero time should be 0")
	}
}

func TestRunSingleDeviceBalanced(t *testing.T) {
	s := Sim{Devices: 1, SMs: 4}
	// 4 equal blocks, one per SM: compute time = one block.
	costs := []float64{10, 10, 10, 10}
	tm := s.Run(costs, 0)
	if tm.Compute != 10 {
		t.Errorf("Compute = %v, want 10", tm.Compute)
	}
	// 8 equal blocks: two per SM.
	costs = append(costs, 10, 10, 10, 10)
	tm = s.Run(costs, 0)
	if tm.Compute != 20 {
		t.Errorf("Compute = %v, want 20", tm.Compute)
	}
}

func TestRunImbalancedBlocks(t *testing.T) {
	s := Sim{Devices: 1, SMs: 2}
	// SM0 gets blocks 0, 2 (cost 5+5), SM1 gets blocks 1, 3 (cost 1+1).
	tm := s.Run([]float64{5, 1, 5, 1}, 0)
	if tm.Compute != 10 {
		t.Errorf("Compute = %v, want max SM time 10", tm.Compute)
	}
}

func TestRunMultiDeviceScaling(t *testing.T) {
	// 32 equal-cost patches on 1, 2, 4 devices with 16 SMs: near-linear
	// strong scaling.
	costs := make([]float64, 32)
	for i := range costs {
		costs[i] = 7e6
	}
	t1 := NewSim(1).Run(costs, 0)
	t2 := NewSim(2).Run(costs, 0)
	t4 := NewSim(4).Run(costs, 0)
	if t1.Compute != 14e6 || t2.Compute != 7e6 {
		t.Errorf("compute times: 1 dev %v (want 14e6), 2 dev %v (want 7e6)",
			t1.Compute, t2.Compute)
	}
	// 32 blocks on 4 devices × 16 SMs: 8 blocks per device, one per SM.
	if t4.Compute != 7e6 {
		t.Errorf("4-device compute %v, want 7e6", t4.Compute)
	}
	if sp := Speedup(t1, t2); math.Abs(sp-2) > 0.1 {
		t.Errorf("2-device speedup %v, want ≈2", sp)
	}
}

func TestRunReductionAccounting(t *testing.T) {
	s := Sim{Devices: 2, SMs: 2}
	tm := s.Run([]float64{1, 1}, 400)
	wantStage1 := 400.0 / 4
	wantStage2 := 2.0 * CoalescedWordCost
	if math.Abs(tm.Reduction-(wantStage1+wantStage2)) > 1e-12 {
		t.Errorf("Reduction = %v, want %v", tm.Reduction, wantStage1+wantStage2)
	}
	if tm.Total != tm.Compute+tm.Reduction {
		t.Error("Total != Compute + Reduction")
	}
}

func TestRunPanicsOnBadSim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Sim{Devices: 0, SMs: 1}.Run([]float64{1}, 0)
}

func TestRunCountersMatchesRun(t *testing.T) {
	blocks := []metrics.Counters{
		{Flops: 100}, {Flops: 200, BytesRead: 80},
	}
	s := Sim{Devices: 1, SMs: 2}
	a := s.RunCounters(blocks, 5)
	b := s.Run([]float64{Cost(&blocks[0]), Cost(&blocks[1])}, 5)
	if a.Total != b.Total {
		t.Errorf("RunCounters %v != Run %v", a.Total, b.Total)
	}
}

// Property: modeled time is monotone — adding a block never decreases the
// compute time, and more devices never increase it.
func TestPropMonotonicity(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	prev := 0.0
	for i := 1; i <= len(costs); i++ {
		tm := NewSim(1).Run(costs[:i], 0)
		if tm.Compute < prev {
			t.Fatalf("adding block %d decreased compute %v -> %v", i, prev, tm.Compute)
		}
		prev = tm.Compute
	}
	full1 := NewSim(1).Run(costs, 0)
	full2 := NewSim(2).Run(costs, 0)
	full4 := NewSim(4).Run(costs, 0)
	if full2.Compute > full1.Compute || full4.Compute > full2.Compute {
		t.Errorf("scaling not monotone: %v %v %v",
			full1.Compute, full2.Compute, full4.Compute)
	}
}

func TestOccupancyShape(t *testing.T) {
	if Occupancy(1) != 1 {
		t.Errorf("Occupancy(1) = %v, want 1", Occupancy(1))
	}
	// Must decline with order, mirroring the paper's GFLOP/s decline.
	prev := Occupancy(1)
	for p := 2; p <= 4; p++ {
		o := Occupancy(p)
		if o >= prev || o <= 0 {
			t.Errorf("Occupancy(%d) = %v not strictly decreasing", p, o)
		}
		prev = o
	}
	// Calibration target: P=1:P=2:P=3 ≈ 1 : 0.25 : 0.09 tracks the paper's
	// 345 : 85 : 31 measured ratios.
	if r := Occupancy(2); math.Abs(r-0.25) > 0.01 {
		t.Errorf("Occupancy(2) = %v, want 0.25", r)
	}
}

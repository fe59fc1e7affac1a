package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

func sinField(p geom.Point) float64 {
	return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
}

// noSleep makes retries instantaneous in tests.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// withFaults installs a campaign for the duration of the test.
func withFaults(t *testing.T, cfg fault.Config) {
	t.Helper()
	if err := fault.Enable(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// TestResilientMatchesFaultFree: with faults injected into both schemes'
// workers and enough retry budget, results must match the fault-free run
// exactly (retried units recompute identical sums), and the recovery
// counters must show the machinery actually fired.
func TestResilientMatchesFaultFree(t *testing.T) {
	m := mesh.Structured(6)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 4})

	ppRef, err := ev.RunPerPoint(8)
	if err != nil {
		t.Fatal(err)
	}
	tiling := ev.NewTiling(8)
	peRef, err := ev.RunPerElementResilientCtx(context.Background(), tiling, nil)
	if err != nil {
		t.Fatal(err)
	}

	withFaults(t, fault.Config{
		Seed: 42, Mode: fault.ModeMixed,
		Sites: map[string]float64{
			SitePointBlock: 0.4,
			SiteTile:       0.4,
			SiteReduce:     0.3,
		},
	})
	var fc metrics.FaultCounters
	rs := &Resilience{MaxAttempts: 30, Sleep: noSleep, Faults: &fc, Seed: 1}

	pp, err := ev.RunPerPointResilientCtx(context.Background(), 8, rs)
	if err != nil {
		t.Fatalf("per-point resilient: %v", err)
	}
	if d := maxAbsDiff(pp.Solution, ppRef.Solution); d > 1e-12 {
		t.Errorf("per-point resilient differs from fault-free by %g", d)
	}
	if pp.Coverage != nil {
		t.Errorf("per-point run degraded unexpectedly: %+v", pp.Coverage)
	}
	if pp.Total != ppRef.Total {
		t.Errorf("per-point counters differ: %+v vs %+v", pp.Total, ppRef.Total)
	}

	pe, err := ev.RunPerElementResilientCtx(context.Background(), tiling, rs)
	if err != nil {
		t.Fatalf("per-element resilient: %v", err)
	}
	if d := maxAbsDiff(pe.Solution, peRef.Solution); d > 1e-12 {
		t.Errorf("per-element resilient differs from fault-free by %g", d)
	}
	if pe.Coverage != nil {
		t.Errorf("per-element run degraded unexpectedly: %+v", pe.Coverage)
	}

	if fc.TileRetries.Load() == 0 {
		t.Error("no retries recorded despite injected faults")
	}
	if fc.PanicsRecovered.Load() == 0 {
		t.Error("no recovered panics recorded despite mixed-mode faults")
	}
	if fc.TilesFailed.Load() != 0 {
		t.Errorf("tiles failed with a 30-attempt budget: %d", fc.TilesFailed.Load())
	}
}

// TestPanicBecomesTypedError: without any resilience policy, a panic in a
// tile worker surfaces as *PanicError instead of crashing the process.
func TestPanicBecomesTypedError(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})

	withFaults(t, fault.Config{
		Seed: 7, Mode: fault.ModePanic,
		Sites: map[string]float64{SiteTile: 1},
	})
	_, err := ev.RunPerElementResilientCtx(context.Background(), ev.NewTiling(4), nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Scheme != PerElement || pe.Unit < 0 {
		t.Errorf("panic error %+v", pe)
	}
	if _, ok := pe.Value.(*fault.Panic); !ok {
		t.Errorf("recovered value %T, want *fault.Panic", pe.Value)
	}
}

// TestDegradedCompletion: when tiles exhaust their retries under
// AllowPartial, the run completes with coverage metadata, failed tiles
// contribute nothing, and untouched tiles' points keep exact values.
func TestDegradedCompletion(t *testing.T) {
	// Fine enough that no two tiles' influence regions (element boxes
	// padded by half the kernel support) blanket the whole grid, whichever
	// two the schedule hands the faults to.
	m := mesh.Structured(16)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})
	tiling := ev.NewTiling(8)

	ref, err := ev.RunPerElementResilientCtx(context.Background(), tiling, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly 2 faults total, probability 1: the first two tile attempts
	// fail; with MaxAttempts 1 those two tiles are dropped.
	withFaults(t, fault.Config{
		Seed: 3, Mode: fault.ModeError,
		Sites:     map[string]float64{SiteTile: 1},
		MaxFaults: 2,
	})
	var fc metrics.FaultCounters
	rs := &Resilience{MaxAttempts: 1, AllowPartial: true, Sleep: noSleep, Faults: &fc}
	res, err := ev.RunPerElementResilientCtx(context.Background(), tiling, rs)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	cov := res.Coverage
	if cov == nil {
		t.Fatal("no coverage metadata on degraded run")
	}
	if len(cov.FailedUnits) != 2 || cov.TotalUnits != tiling.K {
		t.Fatalf("coverage %+v, want 2 failed units of %d", cov, tiling.K)
	}
	if cov.CoveredPoints+tiling.UncoveredPoints(cov.FailedUnits) != cov.TotalPoints {
		t.Errorf("coverage arithmetic inconsistent: %+v", cov)
	}
	if cov.Fraction() <= 0 || cov.Fraction() >= 1 {
		t.Errorf("fraction %v outside (0, 1)", cov.Fraction())
	}
	if fc.TilesFailed.Load() != 2 || fc.DegradedJobs.Load() != 0 {
		t.Errorf("tiles failed %d, degraded jobs %d; want 2, 0", fc.TilesFailed.Load(), fc.DegradedJobs.Load())
	}

	// Points outside the failed tiles' influence regions are untouched.
	uncovered := make(map[int32]bool)
	for _, p := range cov.FailedUnits {
		for _, pt := range tiling.Slots[p] {
			uncovered[pt] = true
		}
	}
	for pt := range ref.Solution {
		if uncovered[int32(pt)] {
			continue
		}
		if d := math.Abs(res.Solution[pt] - ref.Solution[pt]); d > 1e-12 {
			t.Fatalf("covered point %d differs by %g", pt, d)
		}
	}
}

// TestDegradedPerPoint: failed per-point blocks zero their strided points
// and report coverage.
func TestDegradedPerPoint(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})

	withFaults(t, fault.Config{
		Seed: 5, Mode: fault.ModePanic,
		Sites:     map[string]float64{SitePointBlock: 1},
		MaxFaults: 1,
	})
	rs := &Resilience{MaxAttempts: 1, AllowPartial: true, Sleep: noSleep}
	const nBlocks = 4
	res, err := ev.RunPerPointResilientCtx(context.Background(), nBlocks, rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage == nil || len(res.Coverage.FailedUnits) != 1 {
		t.Fatalf("coverage %+v, want exactly 1 failed block", res.Coverage)
	}
	b := res.Coverage.FailedUnits[0]
	for p := b; p < len(res.Solution); p += nBlocks {
		if res.Solution[p] != 0 {
			t.Fatalf("failed block %d left nonzero value at point %d", b, p)
		}
	}
	want := len(ev.Points) - strideCount(len(ev.Points), b, nBlocks)
	if res.Coverage.CoveredPoints != want {
		t.Errorf("covered %d, want %d", res.Coverage.CoveredPoints, want)
	}
}

// TestExhaustedRetriesFailWithoutAllowPartial: the same fault pattern that
// degrades an AllowPartial run must fail a strict run with the injected
// error.
func TestExhaustedRetriesFailWithoutAllowPartial(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})
	withFaults(t, fault.Config{
		Seed: 3, Mode: fault.ModeError,
		Sites: map[string]float64{SiteTile: 1},
	})
	rs := &Resilience{MaxAttempts: 2, Sleep: noSleep}
	_, err := ev.RunPerElementResilientCtx(context.Background(), ev.NewTiling(4), rs)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// TestCancellationIsPermanent: context errors must not be retried.
func TestCancellationIsPermanent(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var fc metrics.FaultCounters
	rs := &Resilience{MaxAttempts: 10, Sleep: noSleep, Faults: &fc}
	if _, err := ev.RunPerPointResilientCtx(ctx, 4, rs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if fc.TileRetries.Load() != 0 {
		t.Errorf("cancelled run retried %d times", fc.TileRetries.Load())
	}
	if !Transient(errors.New("x")) || Transient(context.Canceled) ||
		Transient(context.DeadlineExceeded) || Transient(nil) {
		t.Error("Transient classification wrong")
	}
}

// TestBackoffDeterministicAndCapped: the jittered exponential schedule is a
// pure function of (seed, unit, retry) and never exceeds MaxDelay.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	rs := (&Resilience{
		MaxAttempts: 8,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Seed:        11,
	}).withDefaults()
	prev := time.Duration(0)
	for retry := 1; retry <= 12; retry++ {
		d1 := rs.backoff(3, retry)
		d2 := rs.backoff(3, retry)
		if d1 != d2 {
			t.Fatalf("retry %d: %v != %v (non-deterministic)", retry, d1, d2)
		}
		if d1 > rs.MaxDelay {
			t.Fatalf("retry %d: delay %v over cap %v", retry, d1, rs.MaxDelay)
		}
		if retry == 1 && (d1 < rs.BaseDelay/2 || d1 > rs.BaseDelay) {
			t.Fatalf("first retry delay %v outside [base/2, base)", d1)
		}
		_ = prev
		prev = d1
	}
	if d := rs.backoff(3, 1); d == rs.backoff(4, 1) && d == rs.backoff(5, 1) {
		t.Error("jitter identical across units — seed not mixing unit id")
	}
	if (&Resilience{}).withDefaults().backoff(0, 1) != 0 {
		t.Error("zero BaseDelay must not sleep")
	}
}

// TestRetrySleepObservesBackoff: the retry loop calls Sleep once per retry
// with the scheduled delay.
func TestRetrySleepObservesBackoff(t *testing.T) {
	var slept []time.Duration
	rs := (&Resilience{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}).withDefaults()
	calls := 0
	err := rs.runUnit(context.Background(), PerElement, 0, SiteTile, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d <= 0 {
			t.Errorf("sleep %d: non-positive delay %v", i, d)
		}
	}
}

// A panic inside NewEvaluator's parallel grid build comes back as a
// *PanicError instead of killing the process: here a triangle names a
// vertex the mesh does not have, on a mesh big enough for several chunks.
func TestNewEvaluatorReturnsPanicError(t *testing.T) {
	m := mesh.Structured(32)
	f := dg.Project(m, 1, sinField, 2)
	bad := *m
	bad.Tris = slices.Clone(m.Tris)
	bad.Tris[len(bad.Tris)-1][1] = int32(len(m.Verts)) + 7
	f.Mesh = &bad
	_, err := NewEvaluator(f, Options{P: 1, H: 1.0 / 32, Workers: 4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("NewEvaluator over a corrupt mesh: err = %v, want *PanicError", err)
	}
}

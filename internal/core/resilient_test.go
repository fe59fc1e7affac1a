package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
)

func sinField(p geom.Point) float64 {
	return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
}

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
		},
	})
	var fc metrics.FaultCounters
	rs := &Resilience{Policy: fault.Policy{Attempts: 30}, Faults: &fc}

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
// tile worker surfaces as a *par.PanicError, wrapped with the per-element
// patch it hit, instead of crashing the process.
func TestPanicBecomesTypedError(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, sinField, Options{Workers: 2})

	withFaults(t, fault.Config{
		Seed: 7, Mode: fault.ModePanic,
		Sites: map[string]float64{SiteTile: 1},
	})
	_, err := ev.RunPerElementResilientCtx(context.Background(), ev.NewTiling(4), nil)
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *par.PanicError", err)
	}
	if want := fmt.Sprintf("per-element patch %d:", pe.Unit); pe.Unit < 0 || !strings.Contains(err.Error(), want) {
		t.Errorf("panic error %q (unit %d) does not name %q", err, pe.Unit, want)
	}
	if _, ok := pe.Value.(*fault.Panic); !ok {
		t.Errorf("recovered value %T, want *fault.Panic", pe.Value)
	}
}

// TestDegradedCompletion: when tiles exhaust their retries under
// AllowPartial, the run completes with coverage metadata, every point a
// failed tile could reach is exactly 0, and untouched tiles' points keep
// exact values.
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
	// fail; with Attempts 1 those two tiles are dropped.
	withFaults(t, fault.Config{
		Seed: 3, Mode: fault.ModeError,
		Sites:     map[string]float64{SiteTile: 1},
		MaxFaults: 2,
	})
	var fc metrics.FaultCounters
	rs := &Resilience{Policy: fault.Policy{Attempts: 1}, AllowPartial: true, Faults: &fc}
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
	wantIDs := tiling.UncoveredIDs(cov.FailedUnits)
	if cov.CoveredPoints+len(wantIDs) != cov.TotalPoints {
		t.Errorf("coverage arithmetic inconsistent: %+v", cov)
	}
	if !slices.Equal(cov.UncoveredIDs, wantIDs) {
		t.Errorf("coverage lists %d uncovered ids, the tiling %d", len(cov.UncoveredIDs), len(wantIDs))
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
			if res.Solution[pt] != 0 {
				t.Fatalf("uncovered point %d carries partial sum %v, want 0", pt, res.Solution[pt])
			}
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
	rs := &Resilience{Policy: fault.Policy{Attempts: 1}, AllowPartial: true}
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
	rs := &Resilience{Policy: fault.Policy{Attempts: 2}}
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
	rs := &Resilience{Policy: fault.Policy{Attempts: 10}, Faults: &fc}
	if _, err := ev.RunPerPointResilientCtx(ctx, 4, rs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if fc.TileRetries.Load() != 0 {
		t.Errorf("cancelled run retried %d times", fc.TileRetries.Load())
	}
}

// failUnit runs unit 3 under p with an attempt that always fails, and
// returns the wall time it took and the retries it counted.
func failUnit(t *testing.T, p fault.Policy) (time.Duration, uint64) {
	t.Helper()
	var fc metrics.FaultCounters
	rs := &Resilience{Policy: p, Faults: &fc}
	start := time.Now()
	err := rs.runUnit(context.Background(), PerElement, 3, SiteTile, func() error {
		return errors.New("transient")
	})
	if err == nil {
		t.Fatal("an always-failing unit succeeded")
	}
	return time.Since(start), fc.TileRetries.Load()
}

// TestBackoffDeterministicAndCapped: the jittered exponential schedule
// between a unit's attempts grows from Base and never exceeds Max, and a
// zero Base retries at once. The waits are observed by wall time; that the
// schedule is a pure function of (unit, retry) is pinned where it is
// computed, by fault.TestWaitDeterministicAndCapped.
func TestBackoffDeterministicAndCapped(t *testing.T) {
	// 13 retries from 1 ms: capped at 2 ms they wait between
	// 0.5·(1 + 12·2) = 12.5 ms and 25 ms; uncapped they would wait at least
	// 0.5·(2^13 − 1) ms, over 4 s.
	d, retries := failUnit(t, fault.Policy{Attempts: 14, Base: time.Millisecond, Max: 2 * time.Millisecond})
	if retries != 13 {
		t.Fatalf("retries = %d, want 13", retries)
	}
	if d < 12500*time.Microsecond {
		t.Errorf("13 capped retries took %v, less than their shortest schedule", d)
	}
	if d > 2*time.Second {
		t.Errorf("13 retries took %v: backoff not capped at Max", d)
	}
	// Were a zero Base defaulted instead, 13 retries would wait seconds.
	if d, _ := failUnit(t, fault.Policy{Attempts: 14}); d > time.Second {
		t.Errorf("zero Base took %v to retry 13 times, want no waits", d)
	}
}

// TestRetrySleepObservesBackoff: the retry loop waits once per retry, at
// least the scheduled delay, and counts each retry before its wait.
func TestRetrySleepObservesBackoff(t *testing.T) {
	var fc metrics.FaultCounters
	rs := &Resilience{
		Policy: fault.Policy{Attempts: 4, Base: 4 * time.Millisecond, Max: 8 * time.Millisecond},
		Faults: &fc,
	}
	var at []time.Time
	var retriesAt []uint64
	err := rs.runUnit(context.Background(), PerElement, 0, SiteTile, func() error {
		at = append(at, time.Now())
		retriesAt = append(retriesAt, fc.TileRetries.Load())
		if len(at) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || len(at) != 3 {
		t.Fatalf("err=%v calls=%d", err, len(at))
	}
	if !slices.Equal(retriesAt, []uint64{0, 1, 2}) {
		t.Errorf("retries seen by attempts %v, want [0 1 2]", retriesAt)
	}
	// Retry r waits Base·2^(r-1), jittered into [0.5, 1) of it.
	for r, least := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond} {
		if gap := at[r+1].Sub(at[r]); gap < least {
			t.Errorf("retry %d: waited %v, want at least %v", r+1, gap, least)
		}
	}
}

// A panic inside NewEvaluator's parallel grid build comes back as a
// *par.PanicError instead of killing the process: here a triangle names a
// vertex the mesh does not have, on a mesh big enough for several chunks.
func TestNewEvaluatorReturnsPanicError(t *testing.T) {
	m := mesh.Structured(32)
	f := dg.Project(m, 1, sinField, 2)
	bad := *m
	bad.Tris = slices.Clone(m.Tris)
	bad.Tris[len(bad.Tris)-1][1] = int32(len(m.Verts)) + 7
	f.Mesh = &bad
	_, err := NewEvaluator(f, Options{P: 1, H: 1.0 / 32, Workers: 4})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("NewEvaluator over a corrupt mesh: err = %v, want *par.PanicError", err)
	}
}

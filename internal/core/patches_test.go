package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/par"
)

func patchesSetup(t *testing.T, p int) *Evaluator {
	t.Helper()
	m := mesh.Structured(6)
	f := dg.Project(m, p, func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X) * math.Cos(2*math.Pi*pt.Y)
	}, 4)
	ev, err := NewEvaluator(f, Options{P: p, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestEvalPatchesBitIdentical is the distributed-merge invariant at its
// source: evaluating the tiling's patches in arbitrary disjoint subsets
// and merging the partial buffers in ascending patch order must reproduce
// a full RunPerElement bit for bit — no tolerance, whether the partials go
// through MergePartials (as the coordinator merges them) or a hand-written
// ascending-patch loop. RunPerElement is itself EvalPatches plus
// MergePartials, so the hand loop and the per-point scheme's solution
// (1e-12) hold the pair up from outside.
func TestEvalPatchesBitIdentical(t *testing.T) {
	ev := patchesSetup(t, 1)
	const k = 7
	tl := ev.NewTiling(k)
	ref, err := ev.RunPerElement(tl)
	if err != nil {
		t.Fatal(err)
	}

	// Two "shards": an uneven split, evaluated independently.
	splits := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	merged := make([]float64, tl.NumPoints)
	var partials []PatchPartial
	for _, patches := range splits {
		out, failed, err := ev.EvalPatchesResilientCtx(context.Background(), tl, patches, nil)
		if err != nil {
			t.Fatal(err)
		}
		if failed != nil {
			t.Fatalf("unexpected failed patches %v", failed)
		}
		partials = append(partials, out...)
	}
	// Merge in ascending patch order (the coordinator's contract).
	for p := 0; p < k; p++ {
		for _, pp := range partials {
			if pp.Patch != p {
				continue
			}
			for i, pt := range tl.Slots[p] {
				merged[pt] += pp.Values[i]
			}
		}
	}
	reduced := make([]float64, tl.NumPoints)
	if err := MergePartials(reduced, partials, nil); err != nil {
		t.Fatal(err)
	}
	perPoint, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range merged {
		if merged[i] != ref.Solution[i] || reduced[i] != ref.Solution[i] {
			t.Fatalf("point %d: merged %v, MergePartials %v != RunPerElement %v (must be bit-identical)",
				i, merged[i], reduced[i], ref.Solution[i])
		}
		if d := math.Abs(ref.Solution[i] - perPoint.Solution[i]); d > 1e-12 {
			t.Fatalf("point %d: per-element differs from per-point by %g", i, d)
		}
	}
}

// TestEvalPatchesValidation: out-of-range and duplicate patch ids, and a
// tiling over another grid, are rejected before any work runs.
func TestEvalPatchesValidation(t *testing.T) {
	ev := patchesSetup(t, 1)
	tl := ev.NewTiling(4)
	ctx := context.Background()
	other, err := NewEvaluator(dg.NewField(mesh.Structured(8), 1), Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ev.EvalPatchesResilientCtx(ctx, other.NewTiling(4), []int{0, 1, 2, 3}, nil)
	var pe *par.PanicError
	if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), "tiling covers") {
		t.Errorf("tiling over %d points on a %d-point evaluator: err = %v, want a plain point-count error",
			other.NumPoints(), ev.NumPoints(), err)
	}
	if _, _, err := ev.EvalPatchesResilientCtx(ctx, tl, []int{4}, nil); err == nil {
		t.Error("out-of-range patch accepted")
	}
	if _, _, err := ev.EvalPatchesResilientCtx(ctx, tl, []int{1, 1}, nil); err == nil {
		t.Error("duplicate patch accepted")
	}
	out, failed, err := ev.EvalPatchesResilientCtx(ctx, tl, nil, nil)
	if out != nil || failed != nil || err != nil {
		t.Errorf("empty patch list: got (%v, %v, %v), want all nil", out, failed, err)
	}
}

// TestEvalPatchesPartialFailure: with AllowPartial, injected transient
// faults drop exactly the failed patches and report them sorted; the
// surviving partials are intact. Without AllowPartial the call fails.
func TestEvalPatchesPartialFailure(t *testing.T) {
	ev := patchesSetup(t, 1)
	tl := ev.NewTiling(6)
	ctx := context.Background()
	all := []int{0, 1, 2, 3, 4, 5}

	if err := fault.Enable(fault.Config{
		Seed:      7,
		Mode:      fault.ModeError,
		Sites:     map[string]float64{SiteTile: 1},
		MaxFaults: 2,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)

	rs := &Resilience{Policy: fault.Policy{Attempts: 1}, AllowPartial: true}
	out, failed, err := ev.EvalPatchesResilientCtx(ctx, tl, all, rs)
	if err != nil {
		t.Fatalf("AllowPartial run failed outright: %v", err)
	}
	if len(failed) != 2 {
		t.Fatalf("failed = %v, want exactly 2 patches (MaxFaults)", failed)
	}
	if len(out)+len(failed) != len(all) {
		t.Fatalf("%d partials + %d failed != %d requested", len(out), len(failed), len(all))
	}
	for i := 1; i < len(failed); i++ {
		if failed[i-1] >= failed[i] {
			t.Fatalf("failed list not sorted: %v", failed)
		}
	}
	for _, pp := range out {
		if len(pp.Values) != len(tl.Slots[pp.Patch]) {
			t.Fatalf("patch %d: %d values, want %d", pp.Patch, len(pp.Values), len(tl.Slots[pp.Patch]))
		}
	}

	fault.Disable()
	if err := fault.Enable(fault.Config{
		Seed:      7,
		Mode:      fault.ModeError,
		Sites:     map[string]float64{SiteTile: 1},
		MaxFaults: 1,
	}); err != nil {
		t.Fatal(err)
	}
	rs = &Resilience{Policy: fault.Policy{Attempts: 1}}
	if _, _, err := ev.EvalPatchesResilientCtx(ctx, tl, all, rs); err == nil {
		t.Fatal("non-partial run with an exhausted patch should fail")
	}
}

// TestEvalPatchesUnmarkedPointResetsSlotTable: a tiling whose patch lacks a
// point the patch scatters to fails with the unmarked-point error, and the
// workers' point-to-slot tables are back at rest afterwards. The dropped
// point lies in an earlier patch's list too, so at one worker a table left
// over from that patch would hand it a stale slot and mask the error. The
// same evaluator, reusing its pooled workers, then runs the intact tiling
// bit for bit as a fresh evaluator does.
func TestEvalPatchesUnmarkedPointResetsSlotTable(t *testing.T) {
	m := mesh.Structured(6)
	f := dg.Project(m, 1, func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X) * math.Cos(2*math.Pi*pt.Y)
	}, 4)
	const k = 7
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		ev, err := NewEvaluator(f, Options{P: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tl := ev.NewTiling(k)
		all := make([]int, k)
		for p := range all {
			all[p] = p
		}
		intact, _, err := ev.EvalPatchesResilientCtx(ctx, tl, all, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Drop, from the last patch, a point it scatters a nonzero partial
		// to that an earlier patch also holds.
		p, drop := k-1, -1
		for j, pt := range tl.Slots[p] {
			if intact[p].Values[j] == 0 {
				continue
			}
			for q := 0; q < p && drop < 0; q++ {
				if _, ok := slices.BinarySearch(tl.Slots[q], pt); ok {
					drop = j
				}
			}
			if drop >= 0 {
				break
			}
		}
		if drop < 0 {
			t.Fatalf("patch %d shares no scattered-to point with an earlier patch", p)
		}
		broken := *tl
		broken.Slots = slices.Clone(tl.Slots)
		broken.Slots[p] = slices.Delete(slices.Clone(tl.Slots[p]), drop, drop+1)
		for run := 0; run < 2; run++ {
			_, _, err := ev.EvalPatchesResilientCtx(ctx, &broken, all, nil)
			if err == nil || !strings.Contains(err.Error(), "received partial for unmarked point") {
				t.Fatalf("workers %d, run %d: err = %v, want the unmarked-point error", workers, run, err)
			}
		}

		got, err := ev.RunPerElement(tl)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEvaluator(f, Options{P: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunPerElement(tl)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Solution {
			if got.Solution[i] != want.Solution[i] {
				t.Fatalf("workers %d: point %d: reused evaluator %v != fresh %v (must be bit-identical)",
					workers, i, got.Solution[i], want.Solution[i])
			}
		}
	}
}

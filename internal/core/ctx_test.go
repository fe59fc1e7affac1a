package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

func ctxTestEvaluator(t *testing.T, n int) *Evaluator {
	t.Helper()
	m := mesh.Structured(n)
	f := dg.Project(m, 1, func(p geom.Point) float64 {
		return math.Sin(2 * math.Pi * p.X)
	}, 4)
	ev, err := NewEvaluator(f, Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// runScheme is Run under a context with a nil policy: the full forms the
// context-free conveniences wrap.
func runScheme(ctx context.Context, ev *Evaluator, scheme Scheme, nBlocks int) (*Result, error) {
	if scheme == PerElement {
		return ev.RunPerElementResilientCtx(ctx, ev.NewTiling(nBlocks), nil)
	}
	return ev.RunPerPointResilientCtx(ctx, nBlocks, nil)
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	ev := ctxTestEvaluator(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sch := range []Scheme{PerPoint, PerElement} {
		if _, err := runScheme(ctx, ev, sch, 4); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: run on cancelled ctx = %v, want context.Canceled", sch, err)
		}
	}
}

func TestRunCtxCancelMidFlight(t *testing.T) {
	ev := ctxTestEvaluator(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a goroutine as soon as the run starts making progress.
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	close(started)
	_, err := runScheme(ctx, ev, PerPoint, 64)
	// Either the run beat the cancel (nil) or it observed it; never a
	// different error.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel: err = %v", err)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	ev := ctxTestEvaluator(t, 6)
	direct, err := ev.Run(PerElement, 4)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := runScheme(context.Background(), ev, PerElement, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Solution {
		if direct.Solution[i] != viaCtx.Solution[i] {
			t.Fatalf("solution[%d] differs: %v vs %v", i, direct.Solution[i], viaCtx.Solution[i])
		}
	}
}

// Tiling edge cases: the degenerate single-patch tiling (overhead exactly
// 1.0) and more patches than elements (empty patches) must both reproduce
// the untiled per-point solution through the scatter + reduce path; a
// tiling built over another grid is refused rather than reduced out of
// range.
func TestPerElementTilingEdgesMatchPerPoint(t *testing.T) {
	ev := ctxTestEvaluator(t, 4)
	ref, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, ev.Mesh.NumTris() + 7} {
		tl := ev.NewTiling(k)
		if k == 1 && tl.Overhead() != 1.0 {
			t.Fatalf("k=1 tiling overhead = %v, want exactly 1.0", tl.Overhead())
		}
		res, err := ev.RunPerElement(tl)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range ref.Solution {
			if d := math.Abs(res.Solution[i] - ref.Solution[i]); d > 1e-10 {
				t.Fatalf("k=%d: solution[%d] differs from untiled by %g", k, i, d)
			}
		}
	}
	if _, err := ev.RunPerElement(ctxTestEvaluator(t, 6).NewTiling(2)); err == nil {
		t.Error("tiling of a different grid accepted")
	}
}

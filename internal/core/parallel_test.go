package core

import (
	"math"
	"sync"
	"testing"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

func parallelTestField(p geom.Point) float64 {
	return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
}

// parallelTestPositions returns a deterministic spread of query positions
// well inside the unit domain.
func parallelTestPositions(n int) []geom.Point {
	pts := make([]geom.Point, n)
	x, y := 0.0, 0.0
	for i := range pts {
		// Low-discrepancy-ish lattice: golden-ratio rotations.
		x = math.Mod(x+0.6180339887498949, 1)
		y = math.Mod(y+0.7548776662466927, 1)
		pts[i] = geom.Pt(0.05+0.9*x, 0.05+0.9*y)
	}
	return pts
}

// TestEvalBatchMatchesEvalAt pins EvalBatch's contract: values bit-identical
// to a sequential EvalAt sweep, and returned counters equal to the sum the
// sequential sweep accumulates.
func TestEvalBatchMatchesEvalAt(t *testing.T) {
	m := mesh.Structured(8)
	ev := buildEvaluator(t, m, 2, parallelTestField, Options{Workers: 4})
	pts := parallelTestPositions(57)

	got, counters, err := ev.EvalBatch(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("EvalBatch returned %d values for %d positions", len(got), len(pts))
	}

	// Independent evaluator for the sequential sweep, on one worker of its
	// own that accumulates counters across calls: the sequential sum.
	ref := buildEvaluator(t, m, 2, parallelTestField, Options{Workers: 1})
	wk := ref.newWorker()
	for i, pos := range pts {
		want, err := ref.evalAt(pos, wk)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("position %d: EvalBatch %v != EvalAt %v (diff %g)",
				i, got[i], want, got[i]-want)
		}
	}
	if counters != wk.counters {
		t.Errorf("EvalBatch counters = %+v, want sequential sum %+v",
			counters, wk.counters)
	}
	if counters.IntersectionTests == 0 || counters.Regions == 0 {
		t.Errorf("EvalBatch counters implausibly empty: %+v", counters)
	}
}

// EvalAt draws a pooled worker per call, so concurrent callers sharing one
// Evaluator get the bits a sequential sweep does. Runs under -race in CI.
func TestEvalAtConcurrent(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(6), 2, parallelTestField, Options{Workers: 1})
	pts := parallelTestPositions(16)
	want := make([]float64, len(pts))
	for i, pos := range pts {
		v, err := ev.EvalAt(pos)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pos := range pts {
				if v, err := ev.EvalAt(pos); err != nil || v != want[i] {
					t.Errorf("position %d: concurrent EvalAt %v, %v; sequential %v", i, v, err, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalBatchWorkerSweep checks the batch is schedule-independent: any
// worker count gives bit-identical values and counters.
func TestEvalBatchWorkerSweep(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(6), 1, parallelTestField, Options{Workers: 1})
	pts := parallelTestPositions(23)
	base, baseCtr, err := ev.EvalBatch(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		got, ctr, err := ev.EvalBatch(pts, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d position %d: %v != %v", w, i, got[i], base[i])
			}
		}
		if ctr != baseCtr {
			t.Errorf("workers=%d counters %+v != workers=1 %+v", w, ctr, baseCtr)
		}
	}
}

// TestEvalBatchEmpty covers the trivial input.
func TestEvalBatchEmpty(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(4), 1, parallelTestField, Options{Workers: 2})
	out, ctr, err := ev.EvalBatch(nil, 4)
	if err != nil || len(out) != 0 || ctr.IntersectionTests != 0 {
		t.Errorf("EvalBatch(nil) = (%v, %+v, %v), want empty", out, ctr, err)
	}
}

// TestParallelRunsBitIdentical is the determinism pin: every scheme's
// parallel execution must produce solutions bit-identical to the
// single-worker run, because per-unit outputs land in disjoint locations and
// within-unit summation order is fixed — on the structured mesh and on an
// unstructured one, whose patches differ in cost. Runs under -race in CI.
func TestParallelRunsBitIdentical(t *testing.T) {
	um, err := mesh.SizedLowVariance(240, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		name string
		m    *mesh.Mesh
		p    int
	}{
		{"structured", mesh.Structured(10), 2},
		{"unstructured", um, 1},
	} {
		ev := buildEvaluator(t, fx.m, fx.p, parallelTestField, Options{Workers: 1})
		tl := ev.NewTiling(8)

		serialPoint, err := ev.RunPerPoint(8)
		if err != nil {
			t.Fatal(err)
		}
		serialElem, err := ev.RunPerElement(tl)
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{2, 4} {
			ev.Opt.Workers = workers
			for _, tc := range []struct {
				name   string
				serial *Result
				run    func() (*Result, error)
			}{
				{"per-point", serialPoint, func() (*Result, error) { return ev.RunPerPoint(8) }},
				{"per-element", serialElem, func() (*Result, error) { return ev.RunPerElement(tl) }},
			} {
				res, err := tc.run()
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", fx.name, tc.name, workers, err)
				}
				for i := range res.Solution {
					if res.Solution[i] != tc.serial.Solution[i] {
						t.Fatalf("%s %s workers=%d: solution[%d] = %v, serial %v (diff %g)",
							fx.name, tc.name, workers, i, res.Solution[i], tc.serial.Solution[i],
							res.Solution[i]-tc.serial.Solution[i])
					}
				}
				if res.Total != tc.serial.Total {
					t.Errorf("%s %s workers=%d: total counters %+v != serial %+v",
						fx.name, tc.name, workers, res.Total, tc.serial.Total)
				}
			}
		}
	}
}

// Argument normalization: workers <= 0 falls back to Opt.Workers and the
// values are unchanged by the fallback.
func TestEvalBatchWorkersNormalized(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(4), 1, parallelTestField, Options{Workers: 3})
	pts := parallelTestPositions(17)
	want, wantCtr, err := ev.EvalBatch(pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, -5} {
		got, ctr, err := ev.EvalBatch(pts, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: position %d differs from workers=1", w, i)
			}
		}
		if ctr != wantCtr {
			t.Errorf("workers=%d: counters %+v != sequential %+v", w, ctr, wantCtr)
		}
	}
}

// An empty (but non-nil) position slice returns an empty result without
// touching the worker pool, for any workers argument.
func TestEvalBatchEmptyNonNil(t *testing.T) {
	ev := buildEvaluator(t, mesh.Structured(4), 1, parallelTestField, Options{Workers: 2})
	for _, w := range []int{-1, 0, 1, 8} {
		out, ctr, err := ev.EvalBatch([]geom.Point{}, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != 0 {
			t.Fatalf("workers=%d: got %d values for empty input", w, len(out))
		}
		if ctr != (metrics.Counters{}) {
			t.Errorf("workers=%d: empty batch reported work: %+v", w, ctr)
		}
	}
}

// Positions outside the unit square: the periodic evaluator wraps them
// (agreeing with EvalAt on the same out-of-range position), and a batch
// mixing interior and exterior points must behave exactly like the
// sequential sweep — including whether it errors — under both boundary
// treatments.
func TestEvalBatchOutsideMesh(t *testing.T) {
	m := mesh.Structured(4)
	outside := []geom.Point{
		geom.Pt(1.3, 0.5),
		geom.Pt(-0.2, 0.7),
		geom.Pt(0.4, 2.1),
		geom.Pt(-1.6, -0.9),
	}
	mixed := append(parallelTestPositions(9), outside...)

	for _, boundary := range []Boundary{Periodic, OneSided} {
		ev := buildEvaluator(t, m, 1, parallelTestField, Options{Boundary: boundary, Workers: 4})
		var wantVals []float64
		var wantErr error
		for _, p := range mixed {
			v, err := ev.EvalAt(p)
			if err != nil {
				wantErr = err
				break
			}
			wantVals = append(wantVals, v)
		}
		got, _, err := ev.EvalBatch(mixed, 4)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("%v: sequential sweep errors (%v) but batch succeeded", boundary, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", boundary, err)
		}
		for i := range got {
			if got[i] != wantVals[i] {
				t.Fatalf("%v: position %d (%v): batch %v != EvalAt %v",
					boundary, i, mixed[i], got[i], wantVals[i])
			}
		}
		if boundary == Periodic {
			// Wrapping: the out-of-range tail must equal the wrapped
			// in-range evaluations.
			for i, p := range outside {
				wrapped := geom.Pt(math.Mod(math.Mod(p.X, 1)+1, 1), math.Mod(math.Mod(p.Y, 1)+1, 1))
				wv, err := ev.EvalAt(wrapped)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got[len(mixed)-len(outside)+i] - wv); d > 1e-11 {
					t.Errorf("periodic: %v vs wrapped %v differ by %v", p, wrapped, d)
				}
			}
		}
	}
}

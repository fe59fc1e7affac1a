package core

import (
	"math"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

// benchEvaluator builds a fixed-seed evaluator for the micro-benchmarks.
func benchEvaluator(b *testing.B, p int, opt Options) *Evaluator {
	b.Helper()
	m, err := mesh.LowVariance(12, 1)
	if err != nil {
		b.Fatal(err)
	}
	fn := func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X) * math.Cos(2*math.Pi*pt.Y)
	}
	f := dg.Project(m, p, fn, 2)
	opt.P = p
	ev, err := NewEvaluator(f, opt)
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// integrateTarget picks a (center, element) pair with a guaranteed non-empty
// stencil/element intersection so the benchmark exercises the full clip +
// quadrature path.
func integrateTarget(ev *Evaluator) (geom.Point, int32) {
	e := int32(len(ev.elemBounds) / 2)
	return ev.Mesh.Centroid(int(e)), e
}

// BenchmarkIntegrate times the innermost hot function: one element's
// contribution to one stencil (clip, fan, quadrature, moments, A·M), as
// pair weights (Pn/weights, every path) and dotted with the field (Pn, the
// per-element paths).
func BenchmarkIntegrate(b *testing.B) {
	for _, p := range []int{1, 2, 3} {
		name := map[int]string{1: "P1", 2: "P2", 3: "P3"}[p]
		b.Run(name, func(b *testing.B) {
			ev := benchEvaluator(b, p, Options{})
			wk := ev.newWorker()
			center, e := integrateTarget(ev)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += ev.pairValue(center, e, wk)
			}
			benchSink = sink
		})
		b.Run(name+"/weights", func(b *testing.B) {
			ev := benchEvaluator(b, p, Options{})
			wk := ev.newWorker()
			center, e := integrateTarget(ev)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				ev.integrateWeights(center, e, wk)
				sink += wk.wacc[0]
			}
			benchSink = sink
		})
	}
}

// BenchmarkEvalAt times arbitrary-position queries (the streamline
// workload), steady state.
func BenchmarkEvalAt(b *testing.B) {
	ev := benchEvaluator(b, 2, Options{})
	pts := []geom.Point{
		geom.Pt(0.21, 0.34), geom.Pt(0.55, 0.61), geom.Pt(0.83, 0.12), geom.Pt(0.47, 0.90),
	}
	if _, err := ev.EvalAt(pts[0]); err != nil { // warm the worker pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v, err := ev.EvalAt(pts[i%len(pts)])
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	benchSink = sink
}

// BenchmarkOneSidedSweep times a full per-element run with one-sided
// kernels: without a kernel cache every boundary-adjacent candidate pair
// pays an LU moment solve, which is what the kernel cache amortises.
func BenchmarkOneSidedSweep(b *testing.B) {
	m := mesh.Structured(8)
	fn := func(pt geom.Point) float64 { return math.Sin(2 * pt.X * pt.Y) }
	f := dg.Project(m, 1, fn, 2)
	ev, err := NewEvaluator(f, Options{P: 1, Boundary: OneSided})
	if err != nil {
		b.Fatal(err)
	}
	tl := ev.NewTiling(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.RunPerElement(tl); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink float64

// The pair contraction — integrateWeights, and pairValue over it — must be
// allocation-free in steady state: the clip buffers, fan scratch, sample
// buffer and moment scratch all reuse the worker's storage.
func TestIntegrateZeroAlloc(t *testing.T) {
	m, err := mesh.LowVariance(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X) * math.Cos(2*math.Pi*pt.Y)
	}
	f := dg.Project(m, 2, fn, 2)
	ev, err := NewEvaluator(f, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	wk := ev.newWorker()
	e := int32(len(ev.elemBounds) / 2)
	center := ev.Mesh.Centroid(int(e))
	ev.pairValue(center, e, wk) // warm scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		benchSink += ev.pairValue(center, e, wk)
	})
	if allocs != 0 {
		t.Fatalf("pairValue allocates %v objects per run in steady state, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		ev.integrateWeights(center, e, wk)
		benchSink += wk.wacc[0]
	})
	if allocs != 0 {
		t.Fatalf("integrateWeights allocates %v objects per run in steady state, want 0", allocs)
	}
}

// EvalAt must also be allocation-free once the worker pool is warm.
func TestEvalAtZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build of sync.Pool drops Puts, so pooled workers reallocate")
	}
	m, err := mesh.LowVariance(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(pt geom.Point) float64 {
		return math.Sin(2*math.Pi*pt.X) * math.Cos(2*math.Pi*pt.Y)
	}
	f := dg.Project(m, 2, fn, 2)
	ev, err := NewEvaluator(f, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{
		geom.Pt(0.21, 0.34), geom.Pt(0.55, 0.61), geom.Pt(0.83, 0.12), geom.Pt(0.47, 0.90),
	}
	for _, p := range pts { // warm the pooled worker + visit both interior code paths
		if _, err := ev.EvalAt(p); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		v, err := ev.EvalAt(pts[i%len(pts)])
		if err != nil {
			t.Fatal(err)
		}
		benchSink += v
		i++
	})
	if allocs != 0 {
		t.Fatalf("EvalAt allocates %v objects per run in steady state, want 0", allocs)
	}
}

// evalPoint and EvalAt share one evaluation core; their modeled cost
// accounting must be identical for the same position.
func TestEvalPointEvalAtCounterParity(t *testing.T) {
	m, err := mesh.LowVariance(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(pt geom.Point) float64 { return math.Sin(3 * pt.X * pt.Y) }
	f := dg.Project(m, 2, fn, 2)
	ev, err := NewEvaluator(f, Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	pi := int32(len(ev.Points) / 3)
	wkA := ev.newWorker()
	vA, err := ev.evalPoint(pi, wkA)
	if err != nil {
		t.Fatal(err)
	}
	wkB := ev.newWorker()
	vB, err := ev.evalAt(ev.Points[pi].Pos, wkB)
	if err != nil {
		t.Fatal(err)
	}
	if vA != vB {
		t.Fatalf("values differ: evalPoint %v, evalAt %v", vA, vB)
	}
	if wkA.counters != wkB.counters {
		t.Fatalf("cost counters diverge:\nevalPoint: %+v\nevalAt:    %+v",
			wkA.counters, wkB.counters)
	}
}

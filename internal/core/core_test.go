package core

import (
	"math"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

// buildEvaluator is a test helper: project fn at order p over m and
// construct an evaluator.
func buildEvaluator(t *testing.T, m *mesh.Mesh, p int, fn func(geom.Point) float64, opt Options) *Evaluator {
	t.Helper()
	f := dg.Project(m, p, fn, 4)
	opt.P = p
	ev, err := NewEvaluator(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestOptionsValidation(t *testing.T) {
	m := mesh.Structured(4)
	f := dg.Project(m, 1, func(p geom.Point) float64 { return p.X }, 0)
	if _, err := NewEvaluator(f, Options{P: 0}); err == nil {
		t.Error("P=0 should fail")
	}
	if _, err := NewEvaluator(f, Options{P: 2}); err == nil {
		t.Error("mismatched field degree should fail")
	}
	if _, err := NewEvaluator(f, Options{P: 1, CellFactorPoint: 0.5}); err == nil {
		t.Error("cell factor < 1 should fail (enclosure)")
	}
	if _, err := NewEvaluator(f, Options{P: 1, H: -1}); err == nil {
		t.Error("negative h should fail")
	}
	if _, err := NewEvaluator(f, Options{P: 1, CellFactorElem: -0.5}); err == nil {
		t.Error("negative elem cell factor should fail")
	}
	ev, err := NewEvaluator(f, Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Opt.GridDegree != 2 || ev.Opt.Workers < 1 {
		t.Errorf("defaults not applied: %+v", ev.Opt)
	}
	if ev.W <= 0 || math.Abs(ev.W-4*ev.H) > 1e-15 {
		t.Errorf("stencil width W = %v, want 4h = %v", ev.W, 4*ev.H)
	}
}

func TestSchemeString(t *testing.T) {
	if PerPoint.String() != "per-point" || PerElement.String() != "per-element" {
		t.Error("Scheme.String wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should still print")
	}
}

func TestGridPointsLayout(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, func(p geom.Point) float64 { return 1 }, Options{})
	if ev.NumPoints() != m.NumTris()*ev.PerElem {
		t.Fatalf("NumPoints = %d", ev.NumPoints())
	}
	for i, gp := range ev.Points {
		if int(gp.Elem) != i/ev.PerElem {
			t.Fatalf("point %d owned by %d, want %d", i, gp.Elem, i/ev.PerElem)
		}
		if !m.Triangle(int(gp.Elem)).CCW().Contains(gp.Pos) {
			t.Fatalf("point %d not inside its element", i)
		}
	}
}

// The fundamental invariant: per-point, per-element and brute-force
// reference all compute the same sums.
func TestSchemesAgreeWithReference(t *testing.T) {
	m := mesh.Structured(4)
	fn := func(p geom.Point) float64 {
		return math.Sin(2*math.Pi*p.X) * math.Cos(2*math.Pi*p.Y)
	}
	ev := buildEvaluator(t, m, 1, fn, Options{})
	ref, err := ev.Reference()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := ev.RunPerElement(ev.NewTiling(4))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(ref, pp.Solution); d > 1e-11 {
		t.Errorf("per-point vs reference: max diff %v", d)
	}
	if d := maxAbsDiff(ref, pe.Solution); d > 1e-11 {
		t.Errorf("per-element vs reference: max diff %v", d)
	}
}

func TestSchemesAgreeUnstructured(t *testing.T) {
	lv, err := mesh.LowVariance(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(p geom.Point) float64 {
		return math.Sin(2*math.Pi*p.X) + math.Cos(4*math.Pi*p.Y)
	}
	ev := buildEvaluator(t, lv, 1, fn, Options{})
	pp, err := ev.RunPerPoint(8)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := ev.RunPerElement(ev.NewTiling(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(pp.Solution, pe.Solution); d > 1e-10 {
		t.Errorf("schemes disagree by %v on unstructured mesh", d)
	}
}

// Post-processing the projection of a constant must return the constant
// everywhere: the wrapped 2D kernel integrates to exactly 1.
func TestConstantReproducedEverywhere(t *testing.T) {
	lv, err := mesh.LowVariance(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := buildEvaluator(t, lv, 1, func(geom.Point) float64 { return 2.5 }, Options{})
	res, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Solution {
		if math.Abs(v-2.5) > 1e-10 {
			t.Fatalf("point %d: got %v, want 2.5 (pos %v)", i, v, ev.Points[i].Pos)
		}
	}
}

// Polynomial reproduction: at grid points whose stencil support lies fully
// inside the domain, post-processing the projection of a polynomial of
// degree <= P reproduces it to quadrature precision. (Degree <= P makes the
// projection exact, so the field handed to the kernel is the polynomial
// itself; the kernel then reproduces it because its moments vanish up to
// degree 2k >= P. Degrees in (P, 2k] are only reproduced up to the
// projection error — the superconvergence test below covers that regime.)
func TestPolynomialReproductionInterior(t *testing.T) {
	m := mesh.Structured(12)
	fn := func(p geom.Point) float64 {
		return 1 + 2*p.X - 3*p.Y
	}
	ev := buildEvaluator(t, m, 1, fn, Options{})
	res, err := ev.RunPerElement(nil)
	if err != nil {
		t.Fatal(err)
	}
	half := ev.W / 2
	checked := 0
	for i, gp := range ev.Points {
		if gp.Pos.X < half || gp.Pos.X > 1-half || gp.Pos.Y < half || gp.Pos.Y > 1-half {
			continue
		}
		checked++
		want := fn(gp.Pos)
		if math.Abs(res.Solution[i]-want) > 1e-9 {
			t.Fatalf("point %d at %v: got %v, want %v", i, gp.Pos, res.Solution[i], want)
		}
	}
	if checked == 0 {
		t.Fatal("no interior points checked; enlarge the mesh")
	}
	t.Logf("verified polynomial reproduction at %d interior points", checked)
}

// Same property at P=2 with a degree-2 input.
func TestPolynomialReproductionP2(t *testing.T) {
	m := mesh.Structured(16)
	fn := func(p geom.Point) float64 {
		x, y := p.X, p.Y
		return x*x - 2*x*y + 3*y*y + x - 3
	}
	ev := buildEvaluator(t, m, 2, fn, Options{})
	res, err := ev.RunPerElement(nil)
	if err != nil {
		t.Fatal(err)
	}
	half := ev.W / 2
	checked := 0
	for i, gp := range ev.Points {
		if gp.Pos.X < half || gp.Pos.X > 1-half || gp.Pos.Y < half || gp.Pos.Y > 1-half {
			continue
		}
		checked++
		want := fn(gp.Pos)
		if math.Abs(res.Solution[i]-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("point %d at %v: got %v, want %v", i, gp.Pos, res.Solution[i], want)
		}
	}
	if checked == 0 {
		t.Fatal("no interior points checked")
	}
}

// SIAC post-processing of a smooth periodic field must not blow up the
// error: the post-processed solution should be at least as accurate (in
// max norm over grid points) as the dG projection, up to a small factor.
func TestAccuracyConservedSmoothField(t *testing.T) {
	m := mesh.Structured(16)
	fn := func(p geom.Point) float64 {
		return math.Sin(2 * math.Pi * (p.X + p.Y))
	}
	ev := buildEvaluator(t, m, 1, fn, Options{})
	res, err := ev.RunPerElement(nil)
	if err != nil {
		t.Fatal(err)
	}
	var errBefore, errAfter float64
	for i, gp := range ev.Points {
		e := int(gp.Elem)
		d0 := math.Abs(ev.Field.EvalIn(e, gp.Pos) - fn(gp.Pos))
		d1 := math.Abs(res.Solution[i] - fn(gp.Pos))
		if d0 > errBefore {
			errBefore = d0
		}
		if d1 > errAfter {
			errAfter = d1
		}
	}
	t.Logf("max error before %v, after %v", errBefore, errAfter)
	if errAfter > 2*errBefore {
		t.Errorf("post-processing degraded accuracy: %v -> %v", errBefore, errAfter)
	}
}

// Periodicity: for a periodic input field on a periodic (structured) mesh,
// translating the evaluation by the lattice must give identical values.
// Points near the boundary exercise the wrapped stencil path.
func TestPeriodicWrapConsistency(t *testing.T) {
	m := mesh.Structured(8)
	fn := func(p geom.Point) float64 {
		return math.Cos(2 * math.Pi * p.X)
	}
	ev := buildEvaluator(t, m, 1, fn, Options{})
	res, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	// The structured mesh and field are symmetric under y-translation by
	// 1/8, and under x-translation the field is periodic with the mesh; so
	// two grid points in corresponding positions of the bottom and top rows
	// of elements must match.
	// Elements 2i / 2i+1 tile row-major: element index = (j*8+i)*2 + t.
	perElem := ev.PerElem
	for i := 0; i < 8; i++ {
		for tt := 0; tt < 2; tt++ {
			lo := (0*8+i)*2 + tt
			hi := (7*8+i)*2 + tt
			for q := 0; q < perElem; q++ {
				a := res.Solution[lo*perElem+q]
				b := res.Solution[hi*perElem+q]
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("translated points differ: %v vs %v (elem %d vs %d)",
						a, b, lo, hi)
				}
			}
		}
	}
}

func TestCountersPopulated(t *testing.T) {
	lv, err := mesh.LowVariance(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(p geom.Point) float64 { return p.X }
	ev := buildEvaluator(t, lv, 1, fn, Options{})
	pp, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := ev.RunPerElement(ev.NewTiling(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{pp, pe} {
		if r.Total.IntersectionTests == 0 || r.Total.QuadEvals == 0 ||
			r.Total.Flops == 0 || r.Total.Regions == 0 || r.Total.BytesRead == 0 {
			t.Errorf("%v: counters not populated: %v", r.Scheme, r.Total.String())
		}
	}
	// The paper's headline count: per-element performs fewer intersection
	// tests than per-point (Table 1 shows roughly 2x fewer).
	if pe.Total.IntersectionTests >= pp.Total.IntersectionTests {
		t.Errorf("per-element tests (%d) should be fewer than per-point (%d)",
			pe.Total.IntersectionTests, pp.Total.IntersectionTests)
	}
	// Both schemes integrate the same true-positive regions.
	if pe.Total.QuadEvals != pp.Total.QuadEvals {
		t.Errorf("quad evals differ: %d vs %d", pe.Total.QuadEvals, pp.Total.QuadEvals)
	}
	// Data-reuse: per-element reads far fewer bytes.
	if pe.Total.BytesRead >= pp.Total.BytesRead {
		t.Errorf("per-element bytes (%d) should be fewer than per-point (%d)",
			pe.Total.BytesRead, pp.Total.BytesRead)
	}
}

func TestBlocksPartitionWork(t *testing.T) {
	m := mesh.Structured(6)
	ev := buildEvaluator(t, m, 1, func(p geom.Point) float64 { return p.Y }, Options{})
	res, err := ev.RunPerPoint(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 5 {
		t.Fatalf("got %d blocks", len(res.Blocks))
	}
	var sum uint64
	for _, b := range res.Blocks {
		sum += b.IntersectionTests
	}
	if sum != res.Total.IntersectionTests {
		t.Errorf("block counters (%d) do not sum to total (%d)",
			sum, res.Total.IntersectionTests)
	}
}

func TestRunDispatch(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 1, func(p geom.Point) float64 { return 1 }, Options{})
	r1, err := ev.Run(PerPoint, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Run(PerElement, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Scheme != PerPoint || r2.Scheme != PerElement {
		t.Error("schemes not recorded")
	}
	if _, err := ev.Run(Scheme(42), 2); err == nil {
		t.Error("unknown scheme should error")
	}
}

// Superconvergence: SIAC post-processing lifts the O(h^{P+1}) accuracy of
// the dG projection to O(h^{2P+1}) at interior points — the reason the
// post-processor exists. Verified as a convergence *rate* between two
// structured meshes.
func TestSuperconvergenceRate(t *testing.T) {
	fn := func(p geom.Point) float64 {
		return math.Sin(2 * math.Pi * (p.X + p.Y))
	}
	interiorMaxErr := func(n int) (before, after float64) {
		m := mesh.Structured(n)
		ev := buildEvaluator(t, m, 1, fn, Options{})
		res, err := ev.RunPerElement(nil)
		if err != nil {
			t.Fatal(err)
		}
		half := ev.W / 2
		for i, gp := range ev.Points {
			if gp.Pos.X < half || gp.Pos.X > 1-half || gp.Pos.Y < half || gp.Pos.Y > 1-half {
				continue
			}
			want := fn(gp.Pos)
			if d := math.Abs(ev.Field.EvalIn(int(gp.Elem), gp.Pos) - want); d > before {
				before = d
			}
			if d := math.Abs(res.Solution[i] - want); d > after {
				after = d
			}
		}
		return
	}
	b8, a8 := interiorMaxErr(8)
	b16, a16 := interiorMaxErr(16)
	ratePre := math.Log2(b8 / b16)
	ratePost := math.Log2(a8 / a16)
	t.Logf("projection errors %g -> %g (rate %.2f); post-processed %g -> %g (rate %.2f)",
		b8, b16, ratePre, a8, a16, ratePost)
	if ratePost < 2.5 {
		t.Errorf("post-processed convergence rate %.2f, want ≈ 2P+1 = 3", ratePost)
	}
	if a16 >= b16 {
		t.Errorf("post-processing did not reduce the error: %g vs %g", a16, b16)
	}
}

// The fast counting path must report exactly what a full run counts, with
// one-sided boundaries' shifted supports too.
func TestCountMatchesRunCounters(t *testing.T) {
	lv, err := mesh.LowVariance(8, 21)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(p geom.Point) float64 { return p.X * p.Y }
	for _, boundary := range []Boundary{Periodic, OneSided} {
		ev := buildEvaluator(t, lv, 1, fn, Options{Boundary: boundary})
		pp, err := ev.RunPerPoint(4)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := ev.RunPerElement(ev.NewTiling(4))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			scheme Scheme
			run    uint64
		}{{PerPoint, pp.Total.IntersectionTests}, {PerElement, pe.Total.IntersectionTests}} {
			got, err := ev.CountIntersectionTests(c.scheme)
			if err != nil || got != c.run {
				t.Errorf("%v %v: count %d (err %v) != run %d", boundary, c.scheme, got, err, c.run)
			}
		}
		if n, err := ev.CountIntersectionTests(Scheme(7)); n != 0 || err != nil {
			t.Errorf("unknown scheme counted %d, %v; want 0, nil", n, err)
		}
	}
}

// EvalAt must agree with the grid-point solutions and work at off-grid
// positions.
func TestEvalAtMatchesGrid(t *testing.T) {
	m := mesh.Structured(6)
	fn := func(p geom.Point) float64 { return math.Sin(2 * math.Pi * p.X) }
	ev := buildEvaluator(t, m, 1, fn, Options{})
	res, err := ev.RunPerPoint(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 7, 100, len(ev.Points) - 1} {
		got, err := ev.EvalAt(ev.Points[i].Pos)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-res.Solution[i]) > 1e-12 {
			t.Fatalf("EvalAt(point %d) = %v, grid solution %v", i, got, res.Solution[i])
		}
	}
	// Off-grid position: close to the projected field's value for a smooth
	// input.
	pos := geom.Pt(0.512, 0.487)
	got, err := ev.EvalAt(pos)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-fn(pos)) > 0.05 {
		t.Errorf("EvalAt(%v) = %v, expected ≈ %v", pos, got, fn(pos))
	}
}

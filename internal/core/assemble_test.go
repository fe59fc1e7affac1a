package core

import (
	"fmt"
	"math"
	"testing"

	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

// assembleTestField is smooth and non-separable so every mode of every
// element carries weight.
func assembleTestField(p geom.Point) float64 {
	return math.Sin(2*math.Pi*p.X)*math.Cos(2*math.Pi*p.Y) + 0.25*p.X*p.Y
}

func assembleTestMeshes(t *testing.T) map[string]*mesh.Mesh {
	t.Helper()
	um, err := mesh.SizedLowVariance(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*mesh.Mesh{
		"structured":   mesh.Structured(4),
		"unstructured": um,
	}
}

// The tentpole property: the assembled operator applied to the field
// reproduces direct per-point evaluation bitwise — one row kernel, one row
// recurrence — on symmetric and one-sided boundary configurations, for
// P1–P3, on a congruent (stamped) and an unstructured mesh.
func TestOperatorMatchesDirect(t *testing.T) {
	for mname, m := range assembleTestMeshes(t) {
		for _, boundary := range []Boundary{Periodic, OneSided} {
			for p := 1; p <= 3; p++ {
				if mname == "unstructured" && p == 2 && testing.Short() {
					continue
				}
				ev := buildEvaluator(t, m, p, assembleTestField, Options{Boundary: boundary, Workers: 4})
				direct, err := ev.RunPerPoint(0)
				if err != nil {
					t.Fatal(err)
				}
				op, _, err := ev.AssembleOperator(nil)
				if err != nil {
					t.Fatalf("%s/%v/P%d: assemble: %v", mname, boundary, p, err)
				}
				if err := op.Validate(); err != nil {
					t.Fatalf("%s/%v/P%d: assembled operator invalid: %v", mname, boundary, p, err)
				}
				got := make([]float64, op.Rows)
				if err := op.ApplyInto(ev.Field, got); err != nil {
					t.Fatal(err)
				}
				sameArray(t, fmt.Sprintf("%s/%v/P%d: apply vs direct", mname, boundary, p),
					f64bits(got), f64bits(direct.Solution))
			}
		}
	}
}

// The assembled operator itself reproduces polynomials of degree <= P on
// an unstructured mesh: at interior points under periodic kernels and at
// every point under one-sided ones. Operator and direct paths share one
// sub-region walker, so TestOperatorMatchesDirect cannot see a walker error
// — this checks the operator against the exact answer instead. h is set so
// the support width (3P+1)·h is 0.4 at every P: the periodic interior stays
// non-empty and one-sided supports fit the unit square.
func TestOperatorReproducesPolynomials(t *testing.T) {
	m, err := mesh.SizedLowVariance(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		// Σ_{a+b<=P} c_ab x^a y^b with every coefficient non-zero.
		fn := func(pt geom.Point) float64 {
			v := 0.0
			for a := 0; a <= p; a++ {
				for b := 0; a+b <= p; b++ {
					v += float64(1+a-2*b) * math.Pow(pt.X, float64(a)) * math.Pow(pt.Y, float64(b))
				}
			}
			return v
		}
		for _, boundary := range []Boundary{Periodic, OneSided} {
			ev := buildEvaluator(t, m, p, fn, Options{Boundary: boundary, H: 0.4 / float64(3*p+1), Workers: 2})
			op, _, err := ev.AssembleOperator(nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, op.Rows)
			if err := op.ApplyInto(ev.Field, got); err != nil {
				t.Fatal(err)
			}
			half := ev.W / 2
			checked := 0
			for i, gp := range ev.Points {
				x, y := gp.Pos.X, gp.Pos.Y
				if boundary == Periodic && (x < half || x > 1-half || y < half || y > 1-half) {
					continue
				}
				checked++
				want := fn(gp.Pos)
				if math.Abs(got[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("P%d/%v: point %d at %v: operator %v, want %v", p, boundary, i, gp.Pos, got[i], want)
				}
			}
			if checked == 0 {
				t.Fatalf("P%d/%v: no points checked", p, boundary)
			}
		}
	}
}

// The operator depends only on (mesh, grid, kernel, h): assembled once, it
// post-processes any same-degree field on the mesh.
func TestOperatorFieldIndependence(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 4})
	op, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	other := func(p geom.Point) float64 { return math.Exp(-4*p.X) * math.Sin(3*math.Pi*p.Y) }
	ev2 := buildEvaluator(t, m, 2, other, Options{Workers: 4})
	direct, err := ev2.RunPerPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, op.Rows)
	if err := op.ApplyInto(ev2.Field, got); err != nil {
		t.Fatal(err)
	}
	sameArray(t, "second field through first field's operator", f64bits(got), f64bits(direct.Solution))
}

// Custom row positions (a query batch) assemble like the grid and agree
// with EvalBatch bitwise.
func TestOperatorCustomPoints(t *testing.T) {
	m := mesh.Structured(4)
	for _, boundary := range []Boundary{Periodic, OneSided} {
		ev := buildEvaluator(t, m, 2, assembleTestField, Options{Boundary: boundary, Workers: 4})
		pts := make([]geom.Point, 0, 64)
		for i := 0; i < 64; i++ {
			pts = append(pts, geom.Pt(
				math.Mod(0.13+0.61803398875*float64(i), 1),
				math.Mod(0.29+0.7548776662*float64(i), 1),
			))
		}
		want, _, err := ev.EvalBatch(pts, 4)
		if err != nil {
			t.Fatal(err)
		}
		op, _, err := ev.AssembleOperator(pts)
		if err != nil {
			t.Fatal(err)
		}
		if op.Rows != len(pts) {
			t.Fatalf("rows = %d, want %d", op.Rows, len(pts))
		}
		got := make([]float64, op.Rows)
		if err := op.ApplyInto(ev.Field, got); err != nil {
			t.Fatal(err)
		}
		sameArray(t, fmt.Sprintf("%v: custom-point operator vs EvalBatch", boundary), f64bits(got), f64bits(want))
	}
}

// Morton row order is a pure storage permutation: Perm is a bijection onto
// the point set, and the same operator applied with Perm stripped produces
// the same bits in storage order.
func TestOperatorRowOrderPureStorage(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 4})
	op, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	if op.Perm == nil {
		t.Fatal("assembly produced no permutation")
	}
	seen := make([]bool, op.Rows)
	for _, pt := range op.Perm {
		if seen[pt] {
			t.Fatalf("point %d appears twice in Perm", pt)
		}
		seen[pt] = true
	}
	inPointOrder := make([]float64, op.Rows)
	if err := op.ApplyInto(ev.Field, inPointOrder); err != nil {
		t.Fatal(err)
	}
	stripped := *op
	stripped.Perm = nil
	inStorageOrder := make([]float64, stripped.Rows)
	if err := stripped.ApplyInto(ev.Field, inStorageOrder); err != nil {
		t.Fatal(err)
	}
	for r, pt := range op.Perm {
		if inPointOrder[pt] != inStorageOrder[r] {
			t.Fatalf("storage row %d (point %d): %v != %v", r, pt, inStorageOrder[r], inPointOrder[pt])
		}
	}
}

// Assembly is deterministic: a repeat assembly and any worker count yield
// a bit-identical operator that encodes to the same artifact bytes — the
// file holds no worker count, wall time or other trace of the assembly.
func TestOperatorAssemblyDeterministic(t *testing.T) {
	m, err := mesh.SizedLowVariance(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 1})
	base, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 7} {
		ev.Opt.Workers = w
		op, _, err := ev.AssembleOperator(nil)
		if err != nil {
			t.Fatal(err)
		}
		expectBitwiseEqual(t, "workers="+string(rune('0'+w)), op, base)
	}
}

func TestOperatorErrors(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 2})
	op, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	wrongP := dg.Project(m, 3, assembleTestField, 4)
	if err := op.ApplyInto(wrongP, make([]float64, op.Rows)); err == nil {
		t.Error("applying a mismatched-degree field should fail")
	}
	if err := op.ApplyVec(make([]float64, 3), make([]float64, op.Rows), 1); err == nil {
		t.Error("short coefficient vector should fail")
	}
	if err := op.ApplyVec(wrongP.Coeffs[:op.Cols], make([]float64, 3), 1); err == nil {
		t.Error("short output vector should fail")
	}
}

// The apply itself is bit-identical across worker counts (each row is
// summed in storage order by exactly one goroutine).
func TestOperatorApplyParallelBitIdentical(t *testing.T) {
	m, err := mesh.SizedLowVariance(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 4})
	op, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, op.Rows)
	if err := op.ApplyVec(ev.Field.Coeffs, serial, 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 5, 16} {
		out := make([]float64, op.Rows)
		if err := op.ApplyVec(ev.Field.Coeffs, out, w); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != serial[i] {
				t.Fatalf("workers=%d: point %d differs from serial", w, i)
			}
		}
	}
}

// The operator's shape summary and modeled apply counters are consistent.
func TestOperatorStatsAndCounters(t *testing.T) {
	m := mesh.Structured(4)
	ev := buildEvaluator(t, m, 2, assembleTestField, Options{Workers: 2})
	op, _, err := ev.AssembleOperator(nil)
	if err != nil {
		t.Fatal(err)
	}
	st := op.Stats()
	if st.NNZ != op.NNZ() || st.Rows != len(ev.Points) || st.NNZPerRow <= 0 {
		t.Errorf("bad stats: %+v", st)
	}
	if op.Cols != m.NumTris()*ev.Field.Basis.N {
		t.Errorf("cols = %d", op.Cols)
	}
	ac := op.ApplyBlockCounters(1)
	if ac.Flops != 2*uint64(op.NNZ()) {
		t.Errorf("apply flops = %d, want %d", ac.Flops, 2*op.NNZ())
	}
}

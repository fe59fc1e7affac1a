package core_test

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
)

// exactPrec is wide enough to hold every row sum of the fixtures below
// exactly; exactRow fails the test if an operation rounds.
const exactPrec = 320

// exactRow returns the exact row sum Σ w·c over one row in block form, and
// Σ|w·c| in float64 (its relative error, ≤ n·u, only scales the bound).
func exactRow(t *testing.T, ids []int32, vals, coeffs []float64, basisN int) (*big.Float, float64) {
	t.Helper()
	sum, abs := new(big.Float).SetPrec(exactPrec), 0.0
	w, c := new(big.Float).SetPrec(106), new(big.Float).SetPrec(53)
	for b, e := range ids {
		for m := 0; m < basisN; m++ {
			wm, cm := vals[b*basisN+m], coeffs[int(e)*basisN+m]
			abs += math.Abs(wm * cm)
			// Two 53-bit significands multiply exactly into 106 bits.
			sum.Add(sum, w.SetFloat64(wm).Mul(w, c.SetFloat64(cm)))
			if sum.Acc() != big.Exact {
				t.Fatalf("exact row sum rounded at %d bits", exactPrec)
			}
		}
	}
	return sum, abs
}

// gamma is Higham's γ_n = n·u/(1 − n·u), u = 2^-53.
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-53
	return nu / (1 - nu)
}

// TestApplyWithinExactSumBound holds the apply's row order — a plain dot
// inside each element block, TwoSum across the row's block partials —
// against every row summed exactly in math/big, on assembled one-sided
// operators (the worst-conditioned rows the service builds) and the
// service's three analytic fields. Per row the error must stay within
// u·|exact| + γ_{basisN+1}·Σ|w·c|: γ_{basisN} covers the plain dot's products
// and additions, one u the compensated sum's final rounding, and the
// compensation's own second-order term fits in the difference. It must
// also stay within 1e-12 absolute, the agreement the schemes promise.
//
// It is serial arithmetic over kernels the race-detector runs already cover,
// and ≈ 9× slower under the detector, so it runs only without it (CI's
// alloc and bitwise guard step).
func TestApplyWithinExactSumBound(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("serial arithmetic check; runs without -race")
	}
	lv, err := mesh.SizedLowVariance(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(server.FieldFuncs))
	for name := range server.FieldFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
		p    int
	}{
		{"Structured(8)/P3", mesh.Structured(8), 3},
		{"LV128/P2", lv, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fields := make([]*dg.Field, len(names))
			coeffs := make([][]float64, len(names))
			outs := make([][]float64, len(names))
			for i, name := range names {
				fields[i] = dg.Project(tc.m, tc.p, server.FieldFuncs[name], 4)
				coeffs[i] = fields[i].Coeffs
			}
			ev, err := core.NewEvaluator(fields[0], core.Options{P: tc.p, Boundary: core.OneSided, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			op, _, err := ev.AssembleOperator(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range outs {
				outs[i] = make([]float64, op.Rows)
			}
			if err := op.ApplyBlock(coeffs, outs, 2); err != nil {
				t.Fatal(err)
			}
			g := gamma(op.BasisN + 1)
			worstAbs, worstRel := 0.0, 0.0
			diff := new(big.Float).SetPrec(exactPrec)
			var ids []int32
			var vals []float64
			for r := 0; r < op.Rows; r++ {
				ids, vals = op.Row(r, ids, vals)
				pt := r
				if op.Perm != nil {
					pt = int(op.Perm[r])
				}
				for f, name := range names {
					exact, sumAbs := exactRow(t, ids, vals, coeffs[f], op.BasisN)
					got := outs[f][pt]
					errAbs, _ := diff.Sub(diff.SetFloat64(got), exact).Abs(diff).Float64()
					ex, _ := exact.Float64()
					if bound := 0x1p-53*math.Abs(ex) + g*sumAbs; errAbs > bound || errAbs > 1e-12 {
						t.Fatalf("%s row %d: apply %v, exact %v: error %.3g exceeds min(bound %.3g, 1e-12)",
							name, r, got, ex, errAbs, bound)
					}
					worstAbs = math.Max(worstAbs, errAbs)
					if sumAbs > 0 {
						worstRel = math.Max(worstRel, errAbs/sumAbs)
					}
				}
			}
			t.Logf("%d rows × %d fields, basisN %d: max |apply − exact| %.3g, max error/Σ|w·c| %.3g (γ_%d = %.3g)",
				op.Rows, len(names), op.BasisN, worstAbs, worstRel, op.BasisN+1, g)
		})
	}
}

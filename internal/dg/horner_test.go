package dg

import (
	"math"
	"math/rand"
	"testing"

	"unstencil/internal/mesh"
)

// The collapsed monomial field must agree with the modal path (EvalAll +
// dot product) to near machine precision for all SIAC-practical orders.
func TestHornerFieldMatchesModal(t *testing.T) {
	m, merr := mesh.LowVariance(6, 1)
	if merr != nil {
		t.Fatal(merr)
	}
	rng := rand.New(rand.NewSource(3))
	for p := 1; p <= 6; p++ {
		// The Vandermonde conditioning degrades combinatorially with P;
		// 1e-12 holds through P=4, the top practical orders sit near 1e-11.
		tol := 1e-12
		if p >= 5 {
			tol = 1e-10
		}
		f := NewField(m, p)
		for i := range f.Coeffs {
			f.Coeffs[i] = rng.NormFloat64()
		}
		hf, err := NewHornerField(f, 1)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		buf := make([]float64, f.Basis.N)
		for e := 0; e < m.NumTris(); e += 7 {
			ce := f.ElemCoeffs(e)
			for trial := 0; trial < 40; trial++ {
				// Random barycentric point in the reference triangle.
				r := rng.Float64()
				s := rng.Float64() * (1 - r)
				f.Basis.EvalAll(r, s, buf)
				want := 0.0
				for mm, c := range ce {
					want += c * buf[mm]
				}
				got := hf.EvalCoeffs(hf.ElemCoeffs(e), r, s)
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("P=%d elem %d (r=%v, s=%v): horner %v, modal %v",
						p, e, r, s, got, want)
				}
			}
		}
	}
}

// Serial and parallel collapse must produce identical coefficients.
func TestHornerFieldParallelDeterministic(t *testing.T) {
	m, merr := mesh.LowVariance(8, 2)
	if merr != nil {
		t.Fatal(merr)
	}
	rng := rand.New(rand.NewSource(5))
	f := NewField(m, 3)
	for i := range f.Coeffs {
		f.Coeffs[i] = rng.NormFloat64()
	}
	serial, err := NewHornerField(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewHornerField(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Coeffs {
		if serial.Coeffs[i] != parallel.Coeffs[i] {
			t.Fatalf("coeff %d differs: serial %v, parallel %v",
				i, serial.Coeffs[i], parallel.Coeffs[i])
		}
	}
}

// The conditioning guard on A: every SIAC-practical degree passes, the
// residual catches a perturbed matrix, and a degree past the bound is an
// error rather than a silent fallback.
func TestMonomialCoeffsGuard(t *testing.T) {
	for p := 1; p <= 6; p++ {
		b := NewBasis(p)
		a, err := b.MonomialCoeffs()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if res := monomialResidual(b, a); res > monomialResidualTol {
			t.Fatalf("P=%d: healthy A has residual %.3g", p, res)
		}
	}
	b := NewBasis(2)
	a, err := b.MonomialCoeffs()
	if err != nil {
		t.Fatal(err)
	}
	bad := make([][]float64, len(a))
	for m := range a {
		bad[m] = append([]float64(nil), a[m]...)
	}
	bad[3][0] += 1e-7 // constant term of one mode
	if res := monomialResidual(b, bad); res <= monomialResidualTol {
		t.Fatalf("perturbed A has residual %.3g, want > %g", res, monomialResidualTol)
	}
	if _, err := NewBasis(12).MonomialCoeffs(); err == nil {
		t.Fatal("P=12: ill-conditioned A accepted")
	}
}

// MonomialCoeffs is memoised per degree: repeated calls must return the
// same backing matrix.
func TestMonomialCoeffsCached(t *testing.T) {
	b := NewBasis(4)
	a1, err := b.MonomialCoeffs()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewBasis(4).MonomialCoeffs()
	if err != nil {
		t.Fatal(err)
	}
	if &a1[0][0] != &a2[0][0] {
		t.Fatal("MonomialCoeffs not cached across Basis instances")
	}
}

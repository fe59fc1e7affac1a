package dg

import (
	"math"
	"math/rand"
	"testing"
)

// A's monomial expansion reproduces the modal basis: at random points of
// the reference triangle — off the equispaced lattice A was solved on —
// Σ_k A[m][k]·r^a s^b, expanded here in the documented ordering with
// math.Pow, equals EvalAll's φ_m(r, s) for every mode, P1–P4.
func TestMonomialCoeffsMatchModal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for p := 1; p <= 4; p++ {
		b := NewBasis(p)
		a, err := b.MonomialCoeffs()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		phi := make([]float64, b.N)
		for trial := 0; trial < 200; trial++ {
			r := rng.Float64()
			s := rng.Float64() * (1 - r)
			b.EvalAll(r, s, phi)
			for m, am := range a {
				got, k := 0.0, 0
				for bPow := 0; bPow <= p; bPow++ {
					for aPow := 0; aPow+bPow <= p; aPow++ {
						got += am[k] * math.Pow(r, float64(aPow)) * math.Pow(s, float64(bPow))
						k++
					}
				}
				if math.Abs(got-phi[m]) > 1e-12*(1+math.Abs(phi[m])) {
					t.Fatalf("P=%d mode %d (r=%v, s=%v): monomial %v, modal %v", p, m, r, s, got, phi[m])
				}
			}
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

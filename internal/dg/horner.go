package dg

import (
	"fmt"
	"math"
	"sync"

	"unstencil/internal/linalg"
	"unstencil/internal/quadrature"
)

// This file holds the modal→monomial change of basis the evaluation paths
// contract with: a pair's quadrature samples are summed into monomial
// moments M_k = Σ w·r^a s^b, and one product with A = MonomialCoeffs turns
// them into per-mode weights, so no sample evaluates the modal basis.
//
// Monomial ordering: coefficients are grouped by the s-power b ascending,
// and within a group by the r-power a ascending, i.e.
//
//	1, r, r², …, r^P,  s, s·r, …, s·r^{P−1},  …,  s^P
//
// which lets a moment loop run the r-powers inside the s-powers without
// any index table.
//
// Conditioning: the change of basis goes through a Vandermonde solve on the
// equispaced reference lattice, whose conditioning degrades combinatorially
// with P. MonomialCoeffs checks the solved matrix against EvalAll at
// off-lattice points and returns an error when it disagrees by more than
// monomialResidualTol (first at P = 9); there is no modal fallback, so
// core.NewEvaluator fails with that error.

// monoCache memoises the modal→monomial change-of-basis matrix per degree.
var (
	monoMu    sync.Mutex
	monoCache = map[int]monoEntry{}
)

type monoEntry struct {
	a   [][]float64
	err error
}

// monomialResidualTol bounds monomialResidual for an accepted matrix. The
// residual is ~1e-13 at P = 4, ~6e-12 at P = 6 and ~1.5e-10 at P = 8; it
// first exceeds the bound at P = 9.
const monomialResidualTol = 1e-9

// MonomialCoeffs returns the change-of-basis matrix A with A[m] the monomial
// coefficients (in the ordering above) of orthonormal Dubiner mode m, so
// that a modal vector c collapses to monomial coefficients Σ_m c_m·A[m].
// It returns an error when A fails its conditioning check against EvalAll.
// The matrix is cached per degree and must not be modified.
func (b *Basis) MonomialCoeffs() ([][]float64, error) {
	monoMu.Lock()
	defer monoMu.Unlock()
	if e, ok := monoCache[b.P]; ok {
		return e.a, e.err
	}
	a, err := b.computeMonomialCoeffs()
	monoCache[b.P] = monoEntry{a, err}
	return a, err
}

func (b *Basis) computeMonomialCoeffs() ([][]float64, error) {
	n := b.N
	// Unisolvent sample set: the equispaced lattice (i/d, j/d), i+j <= d,
	// has exactly N points and determines total-degree-P polynomials.
	d := max(b.P, 1)
	type rs struct{ r, s float64 }
	pts := make([]rs, 0, n)
	for j := 0; j <= b.P; j++ {
		for i := 0; i+j <= b.P; i++ {
			pts = append(pts, rs{float64(i) / float64(d), float64(j) / float64(d)})
		}
	}
	if len(pts) != n {
		return nil, fmt.Errorf("dg: monomial lattice size %d != modes %d", len(pts), n)
	}
	// Vandermonde in the monomial ordering: V[p][k] = r^a · s^b.
	v := linalg.NewMatrix(n, n)
	for pi, p := range pts {
		row := v.Row(pi)
		k := 0
		sb := 1.0
		for bPow := 0; bPow <= b.P; bPow++ {
			ra := 1.0
			for aPow := 0; aPow+bPow <= b.P; aPow++ {
				row[k] = ra * sb
				k++
				ra *= p.r
			}
			sb *= p.s
		}
	}
	lu, err := linalg.Factor(v)
	if err != nil {
		return nil, fmt.Errorf("dg: monomial Vandermonde at P=%d: %w", b.P, err)
	}
	// Mode values at the lattice points, one column per mode.
	vals := make([][]float64, n)
	for pi, p := range pts {
		vals[pi] = b.EvalAll(p.r, p.s, make([]float64, n))
	}
	a := make([][]float64, n)
	rhs := make([]float64, n)
	for m := 0; m < n; m++ {
		for pi := range pts {
			rhs[pi] = vals[pi][m]
		}
		sol, err := lu.Solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("dg: monomial solve for mode %d at P=%d: %w", m, b.P, err)
		}
		a[m] = sol
	}
	if res := monomialResidual(b, a); !(res <= monomialResidualTol) { // NaN fails too
		return nil, fmt.Errorf("dg: monomial change of basis at P=%d is ill-conditioned: residual %.3g against EvalAll exceeds %g",
			b.P, res, monomialResidualTol)
	}
	return a, nil
}

// monomialResidual returns max_m |Σ_k A[m][k]·r^a s^b − φ_m(r, s)| over the
// nodes of the degree-2P triangle rule, which lie off the equispaced
// lattice A was solved on.
func monomialResidual(b *Basis, a [][]float64) float64 {
	phi := make([]float64, b.N)
	worst := 0.0
	for _, pt := range quadrature.TriangleForDegree(2 * b.P).Points {
		b.EvalAll(pt.X, pt.Y, phi)
		for m, am := range a {
			worst = math.Max(worst, math.Abs(evalMonomial(b.P, am, pt.X, pt.Y)-phi[m]))
		}
	}
	return worst
}

// evalMonomial evaluates monomial coefficients c (in the ordering above,
// total degree p) at reference (r, s).
func evalMonomial(p int, c []float64, r, s float64) float64 {
	u, k, sb := 0.0, 0, 1.0
	for bPow := 0; bPow <= p; bPow++ {
		ra := sb
		for aPow := 0; aPow+bPow <= p; aPow++ {
			u += c[k] * ra
			k++
			ra *= r
		}
		sb *= s
	}
	return u
}

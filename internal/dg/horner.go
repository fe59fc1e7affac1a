package dg

import (
	"fmt"
	"math"
	"sync"

	"unstencil/internal/linalg"
	"unstencil/internal/quadrature"
)

// This file implements the post-processor's per-element Horner fields: each
// element's modal Dubiner expansion is collapsed once, at evaluator-build
// time, into plain monomial coefficients in the reference coordinates, so
// the hot loop evaluates u(r, s) with a single bivariate Horner pass instead
// of rebuilding the shared Jacobi recurrences (EvalAll) and taking an N-term
// dot product at every quadrature point.
//
// Monomial ordering: coefficients are grouped by the s-power b ascending,
// and within a group by the r-power a ascending, i.e.
//
//	1, r, r², …, r^P,  s, s·r, …, s·r^{P−1},  …,  s^P
//
// which lets the evaluator run Horner in s over inner Horner passes in r
// without any index table.
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
	hf := HornerField{P: b.P, N: b.N}
	phi := make([]float64, b.N)
	worst := 0.0
	for _, pt := range quadrature.TriangleForDegree(2 * b.P).Points {
		b.EvalAll(pt.X, pt.Y, phi)
		for m, am := range a {
			worst = math.Max(worst, math.Abs(hf.EvalCoeffs(am, pt.X, pt.Y)-phi[m]))
		}
	}
	return worst
}

// HornerField is a Field collapsed to per-element monomial coefficients for
// Horner evaluation. It is immutable after construction and safe for
// concurrent reads.
type HornerField struct {
	P      int
	N      int       // coefficients per element
	Coeffs []float64 // NumTris × N, element-major, monomial ordering
}

// NewHornerField collapses every element of f. The per-element transforms
// are independent, so they are spread over the given number of workers
// (<= 1 means serial).
func NewHornerField(f *Field, workers int) (*HornerField, error) {
	a, err := f.Basis.MonomialCoeffs()
	if err != nil {
		return nil, err
	}
	n := f.Basis.N
	hf := &HornerField{
		P:      f.Basis.P,
		N:      n,
		Coeffs: make([]float64, len(f.Coeffs)),
	}
	numElems := len(f.Coeffs) / n
	parallelRange(numElems, workers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			ce := f.Coeffs[e*n : (e+1)*n]
			out := hf.Coeffs[e*n : (e+1)*n]
			for m, c := range ce {
				if c == 0 {
					continue
				}
				am := a[m]
				for k := range out {
					out[k] += c * am[k]
				}
			}
		}
	})
	return hf, nil
}

// ElemCoeffs returns element e's monomial coefficients (do not modify).
func (hf *HornerField) ElemCoeffs(e int) []float64 {
	return hf.Coeffs[e*hf.N : (e+1)*hf.N]
}

// EvalCoeffs evaluates one element's monomial coefficients (from ElemCoeffs)
// at reference (r, s) by bivariate Horner: the b-groups are walked from s^P
// down to s^0, each evaluated by an inner Horner pass in r.
func (hf *HornerField) EvalCoeffs(c []float64, r, s float64) float64 {
	u := 0.0
	end := len(c)
	for blen := 1; blen <= hf.P+1; blen++ { // group for s^b has P−b+1 entries
		start := end - blen
		q := c[end-1]
		for a := end - 2; a >= start; a-- {
			q = q*r + c[a]
		}
		u = u*s + q
		end = start
	}
	return u
}

// parallelRange splits [0, n) into contiguous chunks executed across up to
// the given number of goroutines. workers <= 1 (or tiny n) runs inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 0 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

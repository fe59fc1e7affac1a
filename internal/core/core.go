// Package core implements the paper's contribution: efficient evaluation of
// stencil computations over unstructured triangular meshes, demonstrated as
// SIAC post-processing of discontinuous Galerkin solutions.
//
// Two evaluation schemes are provided (paper §3):
//
//   - Per-point (§3.3, Algorithm 2): iterate evaluation grid points; for
//     each point, find all mesh elements whose geometry intersects the
//     B-spline stencil centred at the point via an element hash grid (cell
//     size cp = s, one-cell halo), clip each stencil square against each
//     element with Sutherland–Hodgman, triangulate, integrate, and
//     accumulate into the point's solution.
//
//   - Per-element (§3.4, Algorithm 3): iterate mesh elements; for each
//     element, find all grid points whose stencil intersects the element
//     via a point hash grid (cell size ce = s/2, no halo), reuse the
//     element data across all of them, and scatter partial solutions.
//
// Both schemes compute exactly the same sums in different orders; the
// per-element scheme trades scattered element reads for data reuse and
// fewer intersection tests, which is the paper's headline result.
//
// The domain is the unit square with periodic boundary conditions by
// default: stencils crossing the boundary integrate against integer-shifted
// images of the mesh. A one-sided kernel mode is available for
// non-periodic domains.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"unstencil/internal/bspline"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/grid"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
	"unstencil/internal/quadrature"
)

// Scheme selects the evaluation strategy.
type Scheme int

const (
	// PerPoint is the paper's baseline gather scheme (Algorithm 2).
	PerPoint Scheme = iota
	// PerElement is the paper's proposed scatter scheme (Algorithm 3).
	PerElement
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case PerPoint:
		return "per-point"
	case PerElement:
		return "per-element"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Boundary selects how stencils interact with the domain boundary.
type Boundary int

const (
	// Periodic wraps stencils around the unit square (the paper's test
	// configuration).
	Periodic Boundary = iota
	// OneSided shifts the kernel node lattice near boundaries so the
	// stencil support stays inside the domain (Ryan & Shu 2003).
	OneSided
)

// String implements fmt.Stringer.
func (b Boundary) String() string {
	switch b {
	case Periodic:
		return "periodic"
	case OneSided:
		return "one-sided"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Options configure an Evaluator.
type Options struct {
	// P is the dG polynomial order; the SIAC kernel uses B-splines of order
	// P+1 and reproduces polynomials of degree 2P. Required, >= 1.
	P int
	// GridDegree selects the per-element quadrature rule whose nodes form
	// the evaluation grid (paper: "grid points correspond to the numerical
	// quadrature points"). 0 means 2P; a negative value selects the
	// one-point (degree-0) rule, which the benchmark harness uses to sweep
	// large meshes at reduced grid density.
	GridDegree int
	// H is the characteristic element length h scaling the kernel. 0 means
	// the mesh's longest edge s, the paper's choice for unstructured
	// meshes.
	H float64
	// Boundary selects periodic wrapping (default) or one-sided kernels.
	Boundary Boundary
	// Workers bounds evaluation concurrency; 0 means GOMAXPROCS.
	Workers int
	// CellFactorPoint scales the per-point hash-grid cell size relative to
	// s (paper: cp = s, factor 1). 0 means 1. Values below 1 violate the
	// enclosure guarantee and are rejected.
	CellFactorPoint float64
	// CellFactorElem scales the per-element hash-grid cell size relative to
	// s (paper: ce = s/2, factor 0.5). 0 means 0.5.
	CellFactorElem float64
}

func (o *Options) normalize(m *mesh.Mesh) error {
	if o.P < 1 {
		return fmt.Errorf("core: polynomial order P must be >= 1, got %d", o.P)
	}
	if o.GridDegree == 0 {
		o.GridDegree = 2 * o.P
	} else if o.GridDegree < 0 {
		o.GridDegree = 0
	}
	if o.H == 0 {
		o.H = m.LongestEdge()
	}
	if o.H <= 0 {
		return fmt.Errorf("core: characteristic length h must be positive, got %g", o.H)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CellFactorPoint == 0 {
		o.CellFactorPoint = 1
	}
	if o.CellFactorPoint < 1 {
		return fmt.Errorf("core: per-point cell factor %g < 1 breaks the enclosure guarantee",
			o.CellFactorPoint)
	}
	if o.CellFactorElem == 0 {
		o.CellFactorElem = 0.5
	}
	if o.CellFactorElem <= 0 {
		return fmt.Errorf("core: per-element cell factor must be positive")
	}
	return nil
}

// GridPoint is one evaluation point of the computation grid.
type GridPoint struct {
	Elem int32
	Pos  geom.Point
}

// Evaluator holds the immutable state shared by both schemes for one
// (mesh, field, options) triple.
type Evaluator struct {
	Mesh  *mesh.Mesh
	Field *dg.Field
	Opt   Options

	Kernel *bspline.Kernel // symmetric kernel (Boundary == Periodic)
	H      float64         // kernel scale
	W      float64         // stencil support width in domain units: h·(3P+1)

	Points     []GridPoint
	PerElem    int // evaluation points per element
	elemGrid   *grid.HashGrid
	pointGrid  *grid.HashGrid
	elemBounds []geom.AABB // cached triangle bounding boxes

	rule quadrature.Rule2D // sub-region integration rule (degree P + 2k)

	// mono is the field-independent modal→monomial matrix A
	// (Basis.MonomialCoeffs): every evaluation path turns a pair's monomial
	// moments into per-mode weights with one A·M product instead of
	// evaluating the modal basis at every sample.
	mono [][]float64

	// osCache memoises one-sided kernels by quantised node shift, turning
	// the per-candidate LU moment solve into an amortised map lookup. nil
	// unless Boundary == OneSided.
	osCache *kernelCache

	// wkPool recycles per-goroutine scratch workers across runs, colour
	// waves and batch queries (see getWorker); a worker's buffers grow to
	// steady state once and are reused instead of reallocated.
	wkPool sync.Pool
}

// NewEvaluator validates options, builds the SIAC kernel, the computation
// grid and both hash grids. It fails if the degree's modal→monomial change
// of basis fails its conditioning check (Basis.MonomialCoeffs), and
// returns a *par.PanicError if a grid-building loop panics.
func NewEvaluator(f *dg.Field, opt Options) (*Evaluator, error) {
	m := f.Mesh
	if err := opt.normalize(m); err != nil {
		return nil, err
	}
	if opt.P != f.P() {
		return nil, fmt.Errorf("core: options P=%d but field has degree %d", opt.P, f.P())
	}
	ker, err := bspline.NewSymmetric(opt.P)
	if err != nil {
		return nil, err
	}
	mono, err := f.Basis.MonomialCoeffs()
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{
		Mesh:   m,
		Field:  f,
		Opt:    opt,
		Kernel: ker,
		H:      opt.H,
		W:      opt.H * float64(3*opt.P+1),
		rule:   quadrature.TriangleForDegree(3 * opt.P), // degree P + 2k, k = P
		mono:   mono,
	}
	if opt.Boundary == OneSided {
		ev.osCache = newKernelCache(opt.P)
	}

	// Computation grid: the nodes of a per-element quadrature rule.
	// Per-element slots are independent, so generation fans out across
	// Opt.Workers.
	gr := quadrature.TriangleForDegree(opt.GridDegree)
	ev.PerElem = gr.Len()
	ev.Points = make([]GridPoint, m.NumTris()*gr.Len())
	if err := par.Chunks(opt.Workers, m.NumTris(), rangeChunk, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			tri := m.Triangle(e)
			base := e * ev.PerElem
			for q, rp := range gr.Points {
				ev.Points[base+q] = GridPoint{
					Elem: int32(e),
					Pos:  tri.MapReference(rp.X, rp.Y),
				}
			}
		}
	}); err != nil {
		return nil, err
	}

	// Hash grids (paper §3.2). Element grid stores centroids with cell
	// size cp = factor·s; point grid stores the evaluation points with
	// ce = factor·s.
	s := m.LongestEdge()
	cents := make([]geom.Point, m.NumTris())
	ev.elemBounds = make([]geom.AABB, m.NumTris())
	if err := par.Chunks(opt.Workers, m.NumTris(), rangeChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cents[i] = m.Centroid(i)
			ev.elemBounds[i] = m.Triangle(i).Bounds()
		}
	}); err != nil {
		return nil, err
	}
	ev.elemGrid = grid.New(cents, opt.CellFactorPoint*s)
	locs := make([]geom.Point, len(ev.Points))
	if err := par.Chunks(opt.Workers, len(ev.Points), rangeChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			locs[i] = ev.Points[i].Pos
		}
	}); err != nil {
		return nil, err
	}
	ev.pointGrid = grid.New(locs, opt.CellFactorElem*s)

	return ev, nil
}

// NumPoints returns the size of the computation grid.
func (ev *Evaluator) NumPoints() int { return len(ev.Points) }

// shiftRange returns the integer lattice shifts d along one axis for which
// the interval [lo, hi] shifted by −d overlaps [0, 1]; equivalently images
// of the periodic domain that the interval touches.
func shiftRange(lo, hi float64) (d0, d1 int) {
	// Need [lo−d, hi−d] ∩ [0,1] ≠ ∅ ⇔ d ∈ [lo−1, hi].
	d0 = int(math.Ceil(lo - 1))
	d1 = int(math.Floor(hi))
	return
}

// forEachShift invokes fn for every periodic image shift (dx, dy) under
// which box b (a stencil support or padded element box) overlaps the unit
// square. With Boundary == OneSided only the identity shift is used.
func (ev *Evaluator) forEachShift(b geom.AABB, fn func(dx, dy int)) {
	if ev.Opt.Boundary == OneSided {
		fn(0, 0)
		return
	}
	x0, x1 := shiftRange(b.Min.X, b.Max.X)
	y0, y1 := shiftRange(b.Min.Y, b.Max.Y)
	for dy := y0; dy <= y1; dy++ {
		for dx := x0; dx <= x1; dx++ {
			fn(dx, dy)
		}
	}
}

// worker holds per-goroutine scratch state so the hot loops allocate
// nothing.
type worker struct {
	clip     geom.Clipper
	tris     []geom.FanTri
	samp     []sample // one (point, element) pair's quadrature samples
	counters metrics.Counters
	cand     []int32
	kx, ky   *bspline.Kernel // kernels in effect for the current point
	// mom and wacc receive one pair's monomial moments and per-basis-function
	// weights (integrateWeights).
	mom, wacc []float64
	// acc merges a row's pair weights; rowIDs and rowVals receive the row in
	// block form (assembleRow).
	acc     rowAccum
	rowIDs  []int32
	rowVals []float64
	// slot maps a grid point to its slot in the patch the worker is
	// evaluating, -1 outside it; allocated on the first patch attempt and
	// all -1 between attempts (EvalPatchesResilientCtx).
	slot []int32
	// edPerRegion is the modeled element-data bytes charged (uncoalesced,
	// one scattered load transaction) for every integrated sub-region. The
	// per-point scheme sets it to the element payload: in a point-block
	// every lane works on a *different* element, so the modal coefficients
	// cannot be staged in shared memory and must be re-fetched from
	// scattered global locations for each integration (paper §3.3: "the
	// element data requires (P+1)(P+2)/2 + 3 values to be read from memory
	// per integration"). The per-element scheme sets it to 0 — the element
	// data is loaded once and stays resident for the whole element pass
	// (§3.4).
	edPerRegion uint64
}

func (ev *Evaluator) newWorker() *worker {
	n := ev.Field.Basis.N
	return &worker{
		mom:  make([]float64, n),
		wacc: make([]float64, n),
		acc:  rowAccum{basisN: n, idx: make(map[int32]int32)},
		kx:   ev.Kernel,
		ky:   ev.Kernel,
	}
}

// kernelsFor returns the (x, y) kernels for a point at pos. Periodic
// domains always use the symmetric kernel; one-sided domains shift the node
// lattice near boundaries so the support [lo, hi]·h + pos stays inside
// [0, 1].
func (ev *Evaluator) kernelsFor(pos geom.Point) (kx, ky *bspline.Kernel, err error) {
	if ev.Opt.Boundary == Periodic {
		return ev.Kernel, ev.Kernel, nil
	}
	kx, err = ev.oneSidedFor(pos.X)
	if err != nil {
		return nil, nil, err
	}
	ky, err = ev.oneSidedFor(pos.Y)
	if err != nil {
		return nil, nil, err
	}
	return kx, ky, nil
}

// supportBox returns the footprint, in domain units, of a stencil centred
// at c under the kernel pair (kx, ky): each axis' support scaled by h.
func (ev *Evaluator) supportBox(c geom.Point, kx, ky *bspline.Kernel) geom.AABB {
	xlo, xhi := kx.Support()
	ylo, yhi := ky.Support()
	return geom.Box(c.X+ev.H*xlo, c.Y+ev.H*ylo, c.X+ev.H*xhi, c.Y+ev.H*yhi)
}

// oneSidedShift returns how far, in kernel units, the kernel centred at x
// must shift to keep its support inside [0, 1]; 0 when it already fits.
func (ev *Evaluator) oneSidedShift(x float64) float64 {
	lo, hi := ev.Kernel.Support()
	// Support in domain units: [x + h·lo, x + h·hi].
	switch {
	case x+ev.H*lo < 0:
		return -(x/ev.H + lo)
	case x+ev.H*hi > 1:
		return (1-x)/ev.H - hi
	}
	return 0
}

func (ev *Evaluator) oneSidedFor(x float64) (*bspline.Kernel, error) {
	shift := ev.oneSidedShift(x)
	if shift == 0 {
		return ev.Kernel, nil
	}
	// Amortised O(1): quantised-shift kernels are memoised instead of
	// re-solving the moment system per candidate pair.
	return ev.osCache.get(shift)
}

// sample is one quadrature sample of Eq. (2)'s integrand on a clipped
// sub-region: the element's reference coordinates (r, s) and the weight
// w_q·jac·K_x·K_y/h² that multiplies u_e(r, s) there.
type sample struct{ r, s, w float64 }

// samples is the one sub-region walker behind every evaluation path. It
// clips element e against each kernel cell of a stencil centred at center,
// fans the clipped polygon into sub-triangles, and writes every quadrature
// sample of Eq. (2),
//
//	(1/h²) Σ_{stencil squares} Σ_{τ_n} ∫_{τ_n} K_x((y1−cx)/h)·K_y((y2−cy)/h)·u_e(y) dy,
//
// into wk.samp, which it returns. The stencil squares are the kernel's unit
// break lattice scaled by h, so the integrand is one polynomial on each
// sub-region and the quadrature is exact. A pair that integrates any
// sub-region counts as a true positive; an empty result means it integrated
// none. Every path contracts the samples the same way: into monomial
// moments and then per-mode pair weights (integrateWeights), which a row or
// a pair value dots with the field.
//
// Every geometric quantity is computed in stencil-local coordinates: the
// element translated by −center, kernel cells at exact offsets h·(blo+i)
// from the origin. The samples are translation-invariant in exact
// arithmetic, and local coordinates make them translation-invariant in
// floating point too whenever the inputs are exact translates: two stencils
// whose element geometry differs by an exactly-representable shift see
// bitwise-identical local vertices and produce bitwise-identical samples.
// That is what congruence-first assembly (signature.go) keys on.
func (ev *Evaluator) samples(center geom.Point, e int32, wk *worker) []sample {
	wk.samp = wk.samp[:0]
	bb := ev.elemBounds[e]
	tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
	h := ev.H
	kx, ky := wk.kx, wk.ky
	bxlo, _ := kx.Support()
	bylo, _ := ky.Support()
	np := kx.NumPieces()

	// Kernel-cell index ranges overlapping the element bounding box.
	i0 := int(math.Floor((bb.Min.X-center.X)/h - bxlo))
	i1 := int(math.Floor((bb.Max.X-center.X)/h - bxlo))
	j0 := int(math.Floor((bb.Min.Y-center.Y)/h - bylo))
	j1 := int(math.Floor((bb.Max.Y-center.Y)/h - bylo))
	if i1 < 0 || j1 < 0 || i0 >= np || j0 >= ky.NumPieces() {
		return wk.samp
	}
	i0 = max(i0, 0)
	j0 = max(j0, 0)
	i1 = min(i1, np-1)
	j1 = min(j1, ky.NumPieces()-1)

	// Per-call element state, hoisted out of the cell and quadrature loops:
	// the inverse reference map (one reciprocal determinant instead of a
	// division per quadrature point).
	invH := 1 / h
	inv := tri.AffineInverse()
	minArea := 1e-14 * tri.Area()
	quadFlops := metrics.FlopsPerQuadEval(ev.Opt.P, ev.Opt.P)

	qpts := ev.rule.Points
	qwts := ev.rule.Weights
	nq := uint64(len(qpts))

	for j := j0; j <= j1; j++ {
		cy0 := h * (bylo + float64(j))
		// The cell indices (i, j) are the kernel piece indices (stencil
		// squares are the break lattice), so the piece polynomials are
		// hoisted per cell and evaluated directly — no floor, no bounds
		// search.
		py := ky.Piece(j)
		for i := i0; i <= i1; i++ {
			cx0 := h * (bxlo + float64(i))
			px := kx.Piece(i)
			cell := geom.Box(cx0, cy0, cx0+h, cy0+h)
			poly := wk.clip.ClipTriangleBox(tri, cell)
			wk.counters.Flops += uint64((len(poly) + 3) * metrics.FlopsPerClipVertex)
			if len(poly) < 3 {
				continue
			}
			wk.tris = geom.SplitFan(geom.Polygon(poly), wk.tris[:0], minArea)
			for n := range wk.tris {
				tau := &wk.tris[n].Tri
				wk.counters.Regions++
				wk.counters.Flops += metrics.FlopsPerRegion
				if wk.edPerRegion > 0 {
					wk.counters.BytesRead += wk.edPerRegion
					wk.counters.BytesUncoalesced += wk.edPerRegion
					wk.counters.ScatteredLoads++
				}
				jac := 2 * wk.tris[n].Area * invH * invH // with Eq. (2)'s 1/h²
				// Compose tau's reference map with the element's inverse
				// map and the kernel-cell normalisation once per
				// sub-region, so each quadrature point costs four fused
				// affine evaluations instead of a map, an inverse solve
				// and two normalisations.
				bxu, bxv := tau.B.X-tau.A.X, tau.C.X-tau.A.X
				byu, byv := tau.B.Y-tau.A.Y, tau.C.Y-tau.A.Y
				dax, day := tau.A.X-inv.X0, tau.A.Y-inv.Y0
				r0 := (dax*inv.Ys - day*inv.Xs) * inv.InvDet
				ru := (bxu*inv.Ys - byu*inv.Xs) * inv.InvDet
				rv := (bxv*inv.Ys - byv*inv.Xs) * inv.InvDet
				s0 := (day*inv.Xr - dax*inv.Yr) * inv.InvDet
				su := (byu*inv.Xr - bxu*inv.Yr) * inv.InvDet
				sv := (byv*inv.Xr - bxv*inv.Yr) * inv.InvDet
				tx0, txu, txv := (tau.A.X-cx0)*invH, bxu*invH, bxv*invH
				ty0, tyu, tyv := (tau.A.Y-cy0)*invH, byu*invH, byv*invH
				for q, rp := range qpts {
					tx := tx0 + txu*rp.X + txv*rp.Y
					ty := ty0 + tyu*rp.X + tyv*rp.Y
					kvx := px[len(px)-1]
					for d := len(px) - 2; d >= 0; d-- {
						kvx = kvx*tx + px[d]
					}
					kvy := py[len(py)-1]
					for d := len(py) - 2; d >= 0; d-- {
						kvy = kvy*ty + py[d]
					}
					wk.samp = append(wk.samp, sample{
						r: r0 + ru*rp.X + rv*rp.Y,
						s: s0 + su*rp.X + sv*rp.Y,
						w: qwts[q] * jac * kvx * kvy,
					})
				}
				wk.counters.QuadEvals += nq
				wk.counters.Flops += quadFlops * nq
			}
		}
	}
	if len(wk.samp) > 0 {
		wk.counters.TruePositives++
	}
	return wk.samp
}

// pairValue is element e's contribution to the post-processed value of a
// stencil centred at center — the inner sums of Eq. (2) — as the direct
// per-element paths take it: the pair's weights dotted with the element's
// modal coefficients. It is 0 when no sub-region is integrated.
func (ev *Evaluator) pairValue(center geom.Point, e int32, wk *worker) float64 {
	if !ev.integrateWeights(center, e, wk) {
		return 0
	}
	ce := ev.Field.ElemCoeffs(int(e))
	v := 0.0
	for m, w := range wk.wacc {
		v += w * ce[m]
	}
	return v
}

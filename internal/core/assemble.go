package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/spatial"
)

// This file assembles the SIAC post-processing step as a sparse operator
// (internal/operator): instead of contracting quadrature samples with the
// field's modal coefficients, integrateWeights accumulates the per-basis-
// function weights W[pt][e][m] of Eq. (2), which depend only on
// (mesh, grid, kernel, h) — never on the coefficients. Applying the frozen
// operator to a coefficient vector reproduces RunPerPoint/RunPerElement to
// rounding, so for workloads that post-process many fields on one mesh
// (every time step of the dg/advect solver, or a resident service's warm
// mesh) all candidate finding, clipping, fan triangulation and kernel
// Horner evaluation is paid once and amortised.
//
// Rows are independent (a gather per evaluation point), which is what lets
// the congruence-first schedule in signature.go integrate one row per
// congruence class and stamp the rest. The naive schedule here — every row
// integrated on its own — is that schedule's fallback on meshes with
// nothing to stamp, and the bitwise oracle the tests hold it against.

// AssembleOpts configure AssembleOperator. The zero value assembles the
// evaluation grid.
type AssembleOpts struct {
	// Points supplies custom row positions (e.g. a query batch) instead
	// of the evaluation grid.
	Points []geom.Point
	// SigCache, when non-nil, caches canonical signature hashes across
	// assemblies on the same mesh: rows whose (position, kernel class)
	// pair was hashed by an earlier assembly skip the candidate walk and
	// re-canonicalisation entirely. See SignatureCache for the soundness
	// contract.
	SigCache SignatureCache
}

// AssembleOperator builds the assembled post-processing operator for this
// evaluator's (mesh, grid, kernel, h) tuple, on Opt.Workers goroutines. The
// operator is independent of the evaluator's field: any field of the same
// degree on the same mesh may be applied. Row weights are accumulated by
// the same candidate enumeration, clipping and exact sub-region quadrature
// the direct schemes use, so an apply agrees with RunPerPoint to rounding for
// symmetric and one-sided boundary configurations alike. Rows are stored
// in quadtree depth-first (Z-order) sequence of their positions, so
// consecutive rows of an apply gather coefficient blocks of spatially
// nearby elements; the operator's Perm routes outputs back to point order.
func (ev *Evaluator) AssembleOperator(opts AssembleOpts) (*operator.Operator, error) {
	return ev.assembleOperator(opts, (*assembly).congruent)
}

// assembly is the state one operator assembly shares between the row
// schedules: per-goroutine workers and scratch, the builder rows land in,
// and the outcome record.
type assembly struct {
	ev        *Evaluator
	positions []geom.Point
	perm      []int32 // storage row → position index; nil = identity
	basisN    int
	cache     SignatureCache // may be nil
	bld       *operator.Builder
	wks       []*worker
	scr       []rowScratch
	stats     operator.CongruenceStats

	cacheLookups, cacheHits atomic.Int64 // SigCache traffic, folded into stats
}

// rowScratch is one goroutine's reusable buffers: the row accumulator and
// its flattened form, plus the signature and stamp scratch of the
// congruence-first schedule.
type rowScratch struct {
	acc   *rowAccum
	cols  []int32
	vals  []float64
	sig   []sigEntry
	ids   []int32
	labs  map[int32]int32
	scols []int32
	slots []int32
}

// assembleOperator runs one row schedule over the requested positions and
// freezes the result.
func (ev *Evaluator) assembleOperator(opts AssembleOpts, schedule func(*assembly) error) (*operator.Operator, error) {
	basisN := ev.Field.Basis.N
	if int64(ev.Mesh.NumTris())*int64(basisN) > math.MaxInt32 {
		return nil, fmt.Errorf("core: operator column space %d×%d exceeds int32 indexing",
			ev.Mesh.NumTris(), basisN)
	}
	positions := opts.Points
	if positions == nil {
		positions = make([]geom.Point, len(ev.Points))
		for i, gp := range ev.Points {
			positions[i] = gp.Pos
		}
	}
	n := len(positions)
	// Quadtree depth-first order is the Z curve, so storage neighbours are
	// spatial neighbours (see spatial.Quadtree.Order).
	var perm []int32
	if n > 1 {
		perm = spatial.NewQuadtree(positions).Order()
	}

	start := time.Now()
	a := &assembly{
		ev:        ev,
		positions: positions,
		perm:      perm,
		basisN:    basisN,
		cache:     opts.SigCache,
		bld:       operator.NewBuilder(n, ev.Mesh.NumTris()*basisN, basisN),
		wks:       ev.getWorkers(max(min(ev.Opt.Workers, n), 1)),
		stats:     operator.CongruenceStats{Rows: n},
	}
	a.scr = make([]rowScratch, len(a.wks))
	for i := range a.scr {
		a.scr[i].acc = newRowAccum(basisN)
		a.scr[i].labs = make(map[int32]int32)
	}
	err := schedule(a)
	var total metrics.Counters
	for _, wk := range a.wks {
		total.Add(&wk.counters)
	}
	ev.putWorkers(a.wks)
	if err != nil {
		return nil, err
	}
	op := a.bld.Finish(perm, ev.Opt.Workers, PerPoint.String(), time.Since(start), total)
	// A copy, not &a.stats: an interior pointer would keep the whole
	// assembly — builder rows and scratch included — alive as long as the
	// operator is cached.
	stats := a.stats
	op.Congruence = &stats
	return op, nil
}

// rowPos returns the position storage row r evaluates.
func (a *assembly) rowPos(r int) geom.Point {
	if a.perm != nil {
		return a.positions[a.perm[r]]
	}
	return a.positions[r]
}

// integrateRow runs the full quadrature for storage row r on worker slot w
// and stores the row; it is a runDynamic unit.
func (a *assembly) integrateRow(w, r int) error {
	if err := fault.Inject(siteAssembleRow); err != nil {
		return err
	}
	s := &a.scr[w]
	if err := a.ev.assembleRow(a.rowPos(r), a.wks[w], s.acc); err != nil {
		return err
	}
	s.cols, s.vals = s.acc.flattenBlocks(s.cols, s.vals)
	a.bld.SetRowBlocks(r, s.cols, s.vals)
	return nil
}

// naive integrates every row independently: each row enumerates its
// candidate elements exactly as evalAt does and accumulates weights. Rows
// are uniform units with disjoint outputs, so they are dispatched off a
// shared atomic counter and the result is bit-identical for every worker
// count.
func (a *assembly) naive() error {
	n := len(a.positions)
	a.stats.RowsIntegrated = n
	return runDynamic(len(a.wks), n, a.integrateRow)
}

// rowAccum merges one row's (element → weights) contributions across
// periodic images and candidate visits. Per-goroutine scratch.
type rowAccum struct {
	basisN int
	elems  []int32
	idx    map[int32]int32
	w      []float64
}

func newRowAccum(basisN int) *rowAccum {
	return &rowAccum{basisN: basisN, idx: make(map[int32]int32)}
}

func (a *rowAccum) reset() {
	a.elems = a.elems[:0]
	a.w = a.w[:0]
	clear(a.idx)
}

// row returns the weight block of element e, creating a zeroed block on
// first touch.
func (a *rowAccum) row(e int32) []float64 {
	if i, ok := a.idx[e]; ok {
		return a.w[int(i)*a.basisN : (int(i)+1)*a.basisN]
	}
	i := int32(len(a.elems))
	a.idx[e] = i
	a.elems = append(a.elems, e)
	for j := 0; j < a.basisN; j++ {
		a.w = append(a.w, 0)
	}
	return a.w[int(i)*a.basisN : (int(i)+1)*a.basisN]
}

// add accumulates src into element e's block.
func (a *rowAccum) add(e int32, src []float64) {
	dst := a.row(e)
	for m := range dst {
		dst[m] += src[m]
	}
}

// flattenBlocks emits the accumulated row in block form — one ascending
// element id per basisN-wide weight block, exactly the (elems, vals) pair
// Builder.SetRowBlocks takes. The sort is over the handful of contributing
// elements, so it is noise next to the quadrature that produced the
// weights.
func (a *rowAccum) flattenBlocks(elems []int32, vals []float64) ([]int32, []float64) {
	elems = append(elems[:0], a.elems...)
	sort.Slice(elems, func(i, j int) bool { return elems[i] < elems[j] })
	vals = vals[:0]
	for _, e := range elems {
		vals = append(vals, a.w[int(a.idx[e])*a.basisN:(int(a.idx[e])+1)*a.basisN]...)
	}
	return elems, vals
}

// assembleRow accumulates every candidate element's weight block for a
// stencil centred at pos, mirroring evalAt's enumeration (periodic images,
// hash-grid candidates, bounding-box rejection).
func (ev *Evaluator) assembleRow(pos geom.Point, wk *worker, acc *rowAccum) error {
	acc.reset()
	return ev.forEachRowCandidate(pos, wk, func(e int32, center geom.Point) {
		if ev.integrateWeights(center, e, wk) {
			wk.counters.TruePositives++
			acc.add(e, wk.wacc)
		}
	})
}

// forEachRowCandidate enumerates, in the deterministic order the assembly
// integrates them, every bounding-box-passing (periodic image, element)
// candidate pair of a stencil centred at pos. Both the integration pass
// (assembleRow) and the congruence signature pass walk candidates through
// this one enumerator, so a signature match certifies that the integration
// pass would visit translate-identical pairs in the identical sequence —
// the property row stamping relies on.
func (ev *Evaluator) forEachRowCandidate(pos geom.Point, wk *worker, visit func(e int32, center geom.Point)) error {
	kx, ky, err := ev.kernelsFor(pos)
	if err != nil {
		return err
	}
	wk.kx, wk.ky = kx, ky
	supp := ev.supportBox(pos, kx, ky)
	ev.forEachShift(supp, func(dx, dy int) {
		shift := geom.Pt(float64(dx), float64(dy))
		box := supp.Translate(shift.Scale(-1))
		center := pos.Sub(shift)
		wk.cand = ev.elemGrid.AppendInBox(wk.cand[:0], box, 1)
		for _, e := range wk.cand {
			wk.counters.IntersectionTests++
			wk.counters.Flops += metrics.FlopsPerTest
			if !ev.elemBounds[e].Intersects(box) {
				continue
			}
			visit(e, center)
		}
	})
	return nil
}

// integrateWeights is integrate with the coefficient contraction removed:
// it accumulates, into wk.wacc, the per-basis-function weights
//
//	wacc[m] = (1/h²) Σ_{cells} Σ_{τ_n} Σ_q w_q · jac · K_x · K_y · φ_m(r_q, s_q)
//
// for element e against a stencil centred at center, using the same
// clipping, fan triangulation and fused per-sub-region affine maps as the
// direct path. It reports whether any sub-region was integrated (false
// leaves wk.wacc unspecified). Contracting the result with the element's
// modal coefficients reproduces integrate's value up to summation-order
// rounding.
//
// Unlike the direct path, every geometric quantity here is computed in
// stencil-local coordinates (the element translated by -center, kernel
// cells at exact offsets h·(blo+i) from the origin). The weights are
// translation-invariant in exact arithmetic, and working in local
// coordinates makes them translation-invariant in floating point too
// whenever the inputs are exact translates: two stencils whose element
// geometry differs by an exactly-representable shift see bitwise-identical
// local vertices and therefore produce bitwise-identical weight rows. That
// is what congruence-first assembly (signature.go) keys on — interior
// points of a (near-)structured mesh collapse to a handful of stencil
// classes, each integrated once.
func (ev *Evaluator) integrateWeights(center geom.Point, e int32, wk *worker) bool {
	bb := ev.elemBounds[e]
	tri := ev.Mesh.Triangle(int(e)).Translate(geom.Pt(-center.X, -center.Y))
	h := ev.H
	kx, ky := wk.kx, wk.ky
	bxlo, _ := kx.Support()
	bylo, _ := ky.Support()
	np := kx.NumPieces()

	basisN := ev.Field.Basis.N
	if cap(wk.wacc) < basisN {
		wk.wacc = make([]float64, basisN)
	}
	wk.wacc = wk.wacc[:basisN]
	clear(wk.wacc)

	i0 := int(math.Floor((bb.Min.X-center.X)/h - bxlo))
	i1 := int(math.Floor((bb.Max.X-center.X)/h - bxlo))
	j0 := int(math.Floor((bb.Min.Y-center.Y)/h - bylo))
	j1 := int(math.Floor((bb.Max.Y-center.Y)/h - bylo))
	if i1 < 0 || j1 < 0 || i0 >= np || j0 >= ky.NumPieces() {
		return false
	}
	i0 = max(i0, 0)
	j0 = max(j0, 0)
	i1 = min(i1, np-1)
	j1 = min(j1, ky.NumPieces()-1)

	invH := 1 / h
	inv := tri.AffineInverse()
	minArea := 1e-14 * tri.Area()
	quadFlops := metrics.FlopsPerQuadEval(ev.Opt.P, ev.Opt.P)

	qpts := ev.rule.Points
	qwts := ev.rule.Weights
	nq := uint64(len(qpts))

	integrated := false
	for j := j0; j <= j1; j++ {
		cy0 := h * (bylo + float64(j))
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
			for _, tau := range wk.tris {
				integrated = true
				wk.counters.Regions++
				wk.counters.Flops += metrics.FlopsPerRegion
				jac := 2 * tau.Area()
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
					r := r0 + ru*rp.X + rv*rp.Y
					s := s0 + su*rp.X + sv*rp.Y
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
					scale := qwts[q] * jac * kvx * kvy * invH * invH
					ev.Field.Basis.EvalAll(r, s, wk.basis)
					for m := 0; m < basisN; m++ {
						wk.wacc[m] += scale * wk.basis[m]
					}
				}
				wk.counters.QuadEvals += nq
				wk.counters.Flops += quadFlops * nq
			}
		}
	}
	return integrated
}

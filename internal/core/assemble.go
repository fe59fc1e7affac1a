package core

import (
	"fmt"
	"math"
	"slices"

	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/par"
	"unstencil/internal/spatial"
)

// This file assembles the SIAC post-processing step as a sparse operator
// (internal/operator). integrateWeights contracts a pair's quadrature
// samples with the basis into the per-basis-function weights W[pt][e][m] of
// Eq. (2), which depend only on (mesh, grid, kernel, h) — never on the
// coefficients — and assembleRow merges them into one point's row. The
// per-point paths dot that row with the field as they go (evalAt);
// assembly freezes it. Applying the frozen operator therefore reproduces
// RunPerPoint, EvalAt and EvalBatch bitwise and RunPerElement to rounding,
// so for workloads that post-process many fields on one mesh (every time
// step of the dg/advect solver, or a resident service's warm mesh) all
// candidate finding, clipping, fan triangulation and kernel Horner
// evaluation is paid once and amortised.
//
// Rows are independent (a gather per evaluation point), which is what lets
// the congruence-first schedule in signature.go integrate one row per
// congruence class and stamp the rest. The naive schedule here — every row
// integrated on its own — is that schedule's fallback on meshes with
// nothing to stamp, and the bitwise oracle the tests hold it against.

// AssembleOperator builds the assembled post-processing operator for this
// evaluator's (mesh, grid, kernel, h) tuple, on Opt.Workers goroutines. The
// operator is independent of the evaluator's field: any field of the same
// degree on the same mesh may be applied. Row weights are accumulated by
// the same candidate enumeration, clipping and exact sub-region quadrature
// the direct schemes use, so an apply equals RunPerPoint bitwise for
// symmetric and one-sided boundary configurations alike. Rows are stored
// in quadtree depth-first (Z-order) sequence of their positions, so
// consecutive rows of an apply gather coefficient blocks of spatially
// nearby elements; the operator's Perm routes outputs back to point order.
// points supplies custom row positions (e.g. a query batch); nil assembles
// the evaluation grid. The returned stats say how the congruence-first
// schedule went.
func (ev *Evaluator) AssembleOperator(points []geom.Point) (*operator.Operator, CongruenceStats, error) {
	return ev.assembleOperator(points, (*assembly).congruent)
}

// assembly is the state one operator assembly shares between the row
// schedules: per-goroutine workers and scratch, the builder rows land in,
// and the outcome record.
type assembly struct {
	ev        *Evaluator
	positions []geom.Point
	perm      []int32 // storage row → position index; nil = identity
	basisN    int
	bld       *operator.Builder
	wks       []*worker
	scr       []rowScratch
	stats     CongruenceStats

	// hashOverride, when set, replaces every row's signature hash. Only
	// tests set it, to force hash collisions past certification.
	hashOverride func(pos geom.Point) uint64
}

// rowScratch is one goroutine's signature and stamp scratch for the
// congruence-first schedule; the row itself lands in the worker's buffers.
type rowScratch struct {
	sig   []sigEntry
	ids   []int32
	labs  map[int32]int32
	scols []int32
	slots []int32
}

// assembleOperator runs one row schedule over the requested positions and
// freezes the result.
func (ev *Evaluator) assembleOperator(positions []geom.Point, schedule func(*assembly) error) (*operator.Operator, CongruenceStats, error) {
	basisN := ev.Field.Basis.N
	if int64(ev.Mesh.NumTris())*int64(basisN) > math.MaxInt32 {
		return nil, CongruenceStats{}, fmt.Errorf("core: operator column space %d×%d exceeds int32 indexing",
			ev.Mesh.NumTris(), basisN)
	}
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

	a := &assembly{
		ev:        ev,
		positions: positions,
		perm:      perm,
		basisN:    basisN,
		bld:       operator.NewBuilder(n, ev.Mesh.NumTris()*basisN, basisN),
		wks:       ev.getWorkers(max(min(ev.Opt.Workers, n), 1)),
		stats:     CongruenceStats{Rows: n},
	}
	a.scr = make([]rowScratch, len(a.wks))
	for i := range a.scr {
		a.scr[i].labs = make(map[int32]int32)
	}
	err := schedule(a)
	ev.putWorkers(a.wks)
	if err != nil {
		return nil, CongruenceStats{}, err
	}
	return a.bld.Finish(perm, ev.Opt.Workers), a.stats, nil
}

// rowPos returns the position storage row r evaluates.
func (a *assembly) rowPos(r int) geom.Point {
	if a.perm != nil {
		return a.positions[a.perm[r]]
	}
	return a.positions[r]
}

// integrateRow runs the full quadrature for storage row r on worker slot w
// and stores the row; it is a par.For unit.
func (a *assembly) integrateRow(w, r int) error {
	if err := fault.Inject(siteAssembleRow); err != nil {
		return err
	}
	ids, vals, err := a.ev.assembleRow(a.rowPos(r), a.wks[w])
	if err != nil {
		return err
	}
	a.bld.SetRowBlocks(r, ids, vals)
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
	return par.For(len(a.wks), n, a.integrateRow)
}

// rowAccum merges one row's (element → weights) contributions across
// periodic images and candidate visits. Per-worker scratch.
type rowAccum struct {
	basisN int
	elems  []int32
	idx    map[int32]int32
	w      []float64
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
	slices.Sort(elems)
	vals = vals[:0]
	for _, e := range elems {
		vals = append(vals, a.w[int(a.idx[e])*a.basisN:(int(a.idx[e])+1)*a.basisN]...)
	}
	return elems, vals
}

// assembleRow computes the operator row of a stencil centred at pos: every
// candidate element's weight block (periodic images, hash-grid candidates,
// bounding-box rejection), merged per element and returned in block form
// in wk's row buffers. Assembly stores it; evalAt dots it with the field.
func (ev *Evaluator) assembleRow(pos geom.Point, wk *worker) ([]int32, []float64, error) {
	wk.acc.reset()
	if err := ev.forEachRowCandidate(pos, wk, func(e int32, center geom.Point) {
		if ev.integrateWeights(center, e, wk) {
			wk.acc.add(e, wk.wacc)
		}
	}); err != nil {
		return nil, nil, err
	}
	wk.rowIDs, wk.rowVals = wk.acc.flattenBlocks(wk.rowIDs, wk.rowVals)
	return wk.rowIDs, wk.rowVals, nil
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

// integrateWeights is the one pair contraction: it writes, into wk.wacc,
// the per-basis-function weights
//
//	wacc[m] = Σ_samples w · φ_m(r, s) = Σ_k A[m][k] · M_k,  M_k = Σ_samples w · r^a s^b
//
// for element e against a stencil centred at center. The monomial moments
// M_k are accumulated in MonomialCoeffs' order and changed to the modal
// basis once per pair by A = Basis.MonomialCoeffs(), so no quadrature
// sample evaluates the modal basis. It reports whether any sub-region was
// integrated (false leaves wk.wacc unspecified). Dotting the result with the
// element's modal coefficients gives the pair's contribution to the
// stencil's value; the samples' stencil-local frame (see samples) makes the
// weights of exact translates bitwise equal.
func (ev *Evaluator) integrateWeights(center geom.Point, e int32, wk *worker) bool {
	samp := ev.samples(center, e, wk)
	if len(samp) == 0 {
		return false
	}
	p, mom := ev.Opt.P, wk.mom
	if p == 1 {
		// The three moments stay in registers: the general loop's
		// per-sample read-modify-write of mom costs the P1 per-element
		// scheme about a fifth of its time. Same terms in the same order,
		// so the same bits.
		var m0, m1, m2 float64
		for _, q := range samp {
			m0 += q.w
			m1 += q.w * q.r
			m2 += q.w * q.s
		}
		mom[0], mom[1], mom[2] = m0, m1, m2
	} else {
		clear(mom)
		for _, q := range samp {
			k := 0
			wsb := q.w
			for b := 0; b <= p; b++ {
				v := wsb
				for a := 0; a+b <= p; a++ {
					mom[k] += v
					v *= q.r
					k++
				}
				wsb *= q.s
			}
		}
	}
	for m, am := range ev.mono {
		acc := 0.0
		for k, c := range am {
			acc += c * mom[k]
		}
		wk.wacc[m] = acc
	}
	return true
}

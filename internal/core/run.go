package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
	"unstencil/internal/par"
	"unstencil/internal/tile"
)

// This file holds the direct-evaluation surface that needs no policy: the
// context-free conveniences (Run, RunPerPoint, RunPerElement) over the full
// forms in resilient.go and patches.go, the two walks those execute — the
// per-point gather (evalAt) and the per-element scatter (processElement) —
// tiling construction, and the brute-force Reference.

// Result is the outcome of one post-processing run.
type Result struct {
	// Solution holds the post-processed value u* at every grid point, in
	// Evaluator.Points order. For multi-field (batched operator) runs it is
	// the first field's solution.
	Solution []float64
	// Solutions holds the per-field solutions of a multi-field batched
	// operator apply, in the job's field order; nil for single-field runs.
	// Solutions[0] aliases Solution.
	Solutions [][]float64
	// Blocks holds the exact per-logical-block counters under the paper's
	// strided block schedule (per-point) or block-per-patch schedule
	// (per-element). The device simulator turns these into modeled times.
	Blocks []metrics.Counters
	// Total is the sum over Blocks.
	Total metrics.Counters
	// Wall is the measured wall-clock duration of the evaluation phase.
	Wall time.Duration
	// MemoryOverhead is the tiling partial-solution overhead relative to
	// baseline solution storage (1.0 for the per-point scheme).
	MemoryOverhead float64
	// Scheme records which scheme produced the result.
	Scheme Scheme
	// Coverage is non-nil only for degraded runs (resilient variants with
	// AllowPartial) where some blocks or tiles exhausted their retries; it
	// records which units failed and how many points remain fully covered.
	Coverage *Coverage
}

// RunPerPoint executes the per-point scheme (Algorithm 2) with nBlocks
// logical blocks, to completion and without retry; see
// RunPerPointResilientCtx for cancellation and the fault-handling policy.
func (ev *Evaluator) RunPerPoint(nBlocks int) (*Result, error) {
	return ev.RunPerPointResilientCtx(context.Background(), nBlocks, nil)
}

// evalPoint computes the post-processed solution at grid point pi,
// accumulating contributions from every (element, periodic image) pair
// whose geometry intersects the stencil. It is the grid-indexed form of
// evalAt, so scheme runs and EvalAt report identical cost models.
func (ev *Evaluator) evalPoint(pi int32, wk *worker) (float64, error) {
	return ev.evalAt(ev.Points[pi].Pos, wk)
}

// CandidateMarker returns a marking function for tile.New that enumerates,
// for an element, exactly the candidate grid points processElement queries
// (both walk forEachInfluenceImage), so tiling slot coverage is identical to
// the evaluation by construction. The returned closure owns a scratch
// buffer and is not safe for concurrent use.
func (ev *Evaluator) CandidateMarker() func(e int, markPt func(pt int32)) {
	var cand []int32
	return func(e int, markPt func(pt int32)) {
		ev.forEachInfluenceImage(e, func(qbox geom.AABB, _ geom.Point) {
			cand = ev.pointGrid.AppendInBox(cand[:0], qbox, 0)
			for _, pt := range cand {
				markPt(pt)
			}
		})
	}
}

// NewTiling builds the overlapped tiling for the per-element scheme with k
// patches, marking each patch's influence region with exactly the candidate
// enumeration processElement uses. Patches are balanced by estimated
// workload (candidate-point counts per element), which keeps block-per-
// patch execution balanced even on high-variance meshes where per-element
// cost varies by orders of magnitude. A panic in the parallel weight sweep
// is re-raised on the caller's goroutine as a *par.PanicError, where the
// caller's own recover can catch it.
func (ev *Evaluator) NewTiling(k int) *tile.Tiling {
	weights := make([]float64, ev.Mesh.NumTris())
	ruleLen := float64(ev.rule.Len())
	// The candidate-count sweep only reads the point grid and element
	// bounds, so it fans out across Opt.Workers.
	if err := par.Chunks(ev.Opt.Workers, ev.Mesh.NumTris(), rangeChunk, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			n := 0
			ev.forEachInfluenceImage(e, func(qbox geom.AABB, _ geom.Point) {
				n += ev.pointGrid.CountInBox(qbox, 0)
			})
			// Each candidate pair clips the element against the kernel
			// cells its bounding box overlaps and integrates the clipped
			// regions, so the per-pair cost scales with cell count ×
			// quadrature size. An extent of w overlaps up to
			// floor(w/h)+2 cells along an axis once it straddles a cell
			// boundary (only an extent aligned to the lattice touches
			// floor(w/h)+1), so the pessimistic count keeps small
			// elements from being under-weighted in the partition.
			bb := ev.elemBounds[e]
			cx := math.Floor(bb.Width()/ev.H) + 2
			cy := math.Floor(bb.Height()/ev.H) + 2
			weights[e] = 1 + float64(n)*(1+cx*cy*ruleLen)
		}
	}); err != nil {
		panic(err)
	}
	part := mesh.PartitionWeighted(ev.Mesh, k, weights)
	return tile.NewWithPartition(ev.Mesh, len(ev.Points), part, k, ev.CandidateMarker())
}

// influencePad returns how far an element's influence extends beyond its
// bounding box. Periodic kernels are symmetric (half the support width);
// one-sided kernels can be shifted by up to half a support width, so the
// full width bounds them.
func (ev *Evaluator) influencePad() float64 {
	if ev.Opt.Boundary == OneSided {
		return ev.W
	}
	return ev.W / 2
}

// forEachInfluenceImage is the one definition of element e's influence
// region: for every periodic image it passes fn the image's query box over
// the point grid (the element's bounding box padded by influencePad, then
// translated by s) and the shift s, so a grid point at pos in the box sees
// the element through the stencil centred at pos - s. The tiling's marker
// and weights, the per-element scatter and the intersection-test count all
// walk it.
func (ev *Evaluator) forEachInfluenceImage(e int, fn func(qbox geom.AABB, s geom.Point)) {
	box := ev.elemBounds[e].Pad(ev.influencePad())
	ev.forEachShift(box, func(dx, dy int) {
		s := geom.Pt(float64(-dx), float64(-dy))
		fn(box.Translate(s), s)
	})
}

// RunPerElement executes the per-element scheme (Algorithm 3) under the
// overlapped tiling, to completion and without retry: one logical block per
// patch, each accumulating partial solutions into its own scratch-pad,
// followed by the reduction stage. A nil tiling builds one with k patches
// equal to Opt.Workers. See RunPerElementResilientCtx for cancellation and
// the fault-handling policy.
func (ev *Evaluator) RunPerElement(t *tile.Tiling) (*Result, error) {
	return ev.RunPerElementResilientCtx(context.Background(), t, nil)
}

// processElement computes every partial solution contributed by element e
// and hands it to add. The element data (coefficients, bounds, triangle) is
// loaded once and reused across all candidate points — the data-reuse
// property the per-element scheme exists for.
func (ev *Evaluator) processElement(e int32, wk *worker, add func(pt int32, v float64)) error {
	bb := ev.elemBounds[e]
	// Element data is read once per element and kept resident (shared
	// memory in the paper's GPU terms), so integrations charge nothing
	// further.
	wk.counters.BytesRead += metrics.ElementDataBytes(ev.Opt.P)
	wk.counters.ScatteredLoads++
	wk.edPerRegion = 0
	var firstErr error
	ev.forEachInfluenceImage(int(e), func(qbox geom.AABB, s geom.Point) {
		if firstErr != nil {
			return
		}
		wk.cand = ev.pointGrid.AppendInBox(wk.cand[:0], qbox, 0)
		for _, pt := range wk.cand {
			wk.counters.IntersectionTests++
			wk.counters.Flops += metrics.FlopsPerTest
			// Paper §3.4: only the grid point's spatial offset (two
			// values) is read per candidate, and point storage is
			// contiguous by cell, so the read coalesces.
			wk.counters.BytesRead += metrics.PointDataBytes()
			pos := ev.Points[pt].Pos
			kx, ky, err := ev.kernelsFor(pos)
			if err != nil {
				firstErr = err
				return
			}
			wk.kx, wk.ky = kx, ky
			center := pos.Sub(s)
			if !ev.supportBox(center, kx, ky).Intersects(bb) {
				continue
			}
			if v := ev.pairValue(center, e, wk); v != 0 {
				add(pt, v)
			}
		}
	})
	return firstErr
}

// Run dispatches on the scheme: PerPoint uses nBlocks logical blocks,
// PerElement uses a fresh tiling with nBlocks patches.
func (ev *Evaluator) Run(scheme Scheme, nBlocks int) (*Result, error) {
	switch scheme {
	case PerPoint:
		return ev.RunPerPoint(nBlocks)
	case PerElement:
		return ev.RunPerElement(ev.NewTiling(nBlocks))
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", scheme)
	}
}

// Reference computes the post-processed solution by brute force: every
// (point, element, periodic image) triple is integrated directly with no
// spatial acceleration. It exists to validate both optimised schemes on
// small meshes.
func (ev *Evaluator) Reference() ([]float64, error) {
	out := make([]float64, ev.NumPoints())
	wk := ev.newWorker()
	for pi := range ev.Points {
		gp := ev.Points[pi]
		kx, ky, err := ev.kernelsFor(gp.Pos)
		if err != nil {
			return nil, err
		}
		wk.kx, wk.ky = kx, ky
		supp := ev.supportBox(gp.Pos, kx, ky)
		total := 0.0
		ev.forEachShift(supp, func(dx, dy int) {
			center := gp.Pos.Sub(geom.Pt(float64(dx), float64(dy)))
			for e := 0; e < ev.Mesh.NumTris(); e++ {
				total += ev.pairValue(center, int32(e), wk)
			}
		})
		out[pi] = total
	}
	return out, nil
}

// EvalAt post-processes the field at an arbitrary physical position (not
// necessarily one of the evaluation grid points), using the per-point
// gather. This is the entry point for applications such as streamline
// integration through discontinuous fields (Steffen et al. 2008; Walfisch
// et al. 2009), where query positions are produced on the fly by an ODE
// integrator. The value is bitwise the one an operator assembled at pos
// (AssembleOperator) applies to the field. It draws a pooled worker, so it
// is safe for concurrent use; EvalBatch spreads a bulk query over workers.
func (ev *Evaluator) EvalAt(pos geom.Point) (float64, error) {
	wk := ev.getWorker()
	defer ev.putWorker(wk)
	return ev.evalAt(pos, wk)
}

// evalAt is the position-parameterised per-point gather shared by evalPoint
// and EvalAt: it builds the point's operator row (assembleRow) and dots it
// with the field by the operator's own row recurrence (operator.RowDot), so
// its value is bitwise the one an assembled operator's apply writes. It
// charges the full paper cost model (§3.3): every candidate test fetches
// the candidate element's geometry from a non-contiguous location (charged
// from the walk's test count once it is over), and every integration
// re-reads the element data (scattered) — so arbitrary-position queries and
// scheme runs report identical counters.
func (ev *Evaluator) evalAt(pos geom.Point, wk *worker) (float64, error) {
	wk.edPerRegion = metrics.ElementDataBytes(ev.Opt.P)
	testsBefore := wk.counters.IntersectionTests
	ids, vals, err := ev.assembleRow(pos, wk)
	tests := wk.counters.IntersectionTests - testsBefore
	wk.counters.BytesRead += tests * metrics.ElementGeometryBytes
	wk.counters.BytesUncoalesced += tests * metrics.ElementGeometryBytes
	wk.counters.ScatteredLoads += tests
	if err != nil {
		return 0, err
	}
	return operator.RowDot(ids, vals, ev.Field.Coeffs), nil
}

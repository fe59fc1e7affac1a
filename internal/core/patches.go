package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"unstencil/internal/metrics"
	"unstencil/internal/tile"
)

// PatchPartial is the outcome of evaluating one tile patch in isolation:
// the patch's scratch-pad partial-solution buffer, Values[i] being the
// partial sum at grid point Points[i] (the patch's slot list,
// t.Slots[Patch], ascending and shared with the tiling: never modify it),
// plus the exact counters the patch accrued.
// It is also the wire form a cluster shard returns to the coordinator
// (counters travel summed, not per patch). A patch's buffer is accumulated
// element by element in PatchElems order whichever process runs it, so
// MergePartials gives the same bits in process and across shards.
type PatchPartial struct {
	Patch    int              `json:"patch"`
	Points   []int32          `json:"points"`
	Values   []float64        `json:"values"`
	Counters metrics.Counters `json:"-"`
}

// MergePartials is the reduction of the overlapped tiling (paper §4), the
// one merge of the per-element scheme in process and across shards. It
// zeroes out, sorts parts by patch, adds every partial into out point by
// point in ascending patch order, then zeroes the uncovered points: a
// degraded run's failed patches contribute nothing, so the sums there are
// incomplete and the contract is a deterministic 0. Accumulating from 0 in
// ascending patch order fixes the addition order at every point, which is
// what makes the result independent of which process evaluated which
// patch. Partials may arrive over the network, so a point outside out, a
// Points/Values length mismatch and a patch merged twice are errors, after
// which out holds no meaningful result.
func MergePartials(out []float64, parts []PatchPartial, uncovered []int32) error {
	clear(out)
	slices.SortFunc(parts, func(a, b PatchPartial) int { return cmp.Compare(a.Patch, b.Patch) })
	for i := range parts {
		pp := &parts[i]
		if i > 0 && parts[i-1].Patch == pp.Patch {
			return fmt.Errorf("core: patch %d merged twice", pp.Patch)
		}
		if len(pp.Points) != len(pp.Values) {
			return fmt.Errorf("core: partial for patch %d has %d points and %d values",
				pp.Patch, len(pp.Points), len(pp.Values))
		}
		for j, pt := range pp.Points {
			if pt < 0 || int(pt) >= len(out) {
				return fmt.Errorf("core: partial for patch %d references point %d outside [0, %d)",
					pp.Patch, pt, len(out))
			}
			out[pt] += pp.Values[j]
		}
	}
	for _, pt := range uncovered {
		if pt < 0 || int(pt) >= len(out) {
			return fmt.Errorf("core: uncovered point %d outside [0, %d)", pt, len(out))
		}
		out[pt] = 0
	}
	return nil
}

// EvalPatchesResilientCtx evaluates only the given patches of tiling t,
// each under the resilience policy (panic isolation, capped-backoff retry),
// and returns their partial-solution buffers without performing the
// reduction. It is the shard half of the distributed per-element scheme:
// the coordinator assigns disjoint patch sets to shards, gathers the
// partials, and merges them with MergePartials.
//
// With rs.AllowPartial, patches that exhaust their retries are dropped and
// reported in the second return value (sorted); without it the first
// permanent patch failure fails the call. Patch ids must be unique and in
// [0, t.K).
func (ev *Evaluator) EvalPatchesResilientCtx(ctx context.Context, t *tile.Tiling, patches []int, rs *Resilience) ([]PatchPartial, []int, error) {
	if t.NumPoints != ev.NumPoints() {
		return nil, nil, fmt.Errorf("core: tiling covers %d points, evaluator has %d", t.NumPoints, ev.NumPoints())
	}
	if len(patches) == 0 {
		return nil, nil, nil
	}
	seen := make(map[int]bool, len(patches))
	for _, p := range patches {
		if p < 0 || p >= t.K {
			return nil, nil, fmt.Errorf("core: patch %d outside [0, %d)", p, t.K)
		}
		if seen[p] {
			return nil, nil, fmt.Errorf("core: duplicate patch %d", p)
		}
		seen[p] = true
	}
	out := make([]PatchPartial, len(patches))
	failed, err := ev.runUnits(ctx, rs.orNone(), PerElement, SiteTile, len(patches), patches,
		func(i int, wk *worker) error {
			// Every attempt accumulates into a fresh scratch-pad, so an
			// aborted one leaves nothing behind and a dropped patch's
			// partial stays empty. The worker's slot table maps the patch's
			// points to their slots for this attempt only: the deferred
			// reset restores -1 at every point written, even when the
			// attempt panics.
			p := patches[i]
			slots := t.Slots[p]
			slot := wk.slotTable(ev.NumPoints())
			marked := 0
			defer func() {
				for _, pt := range slots[:marked] {
					slot[pt] = -1
				}
			}()
			for j, pt := range slots {
				slot[pt] = int32(j)
				marked++
			}
			buf := make([]float64, len(slots))
			for _, e := range t.PatchElems[p] {
				if err := ctx.Err(); err != nil {
					return err
				}
				var slotErr error
				err := ev.processElement(e, wk, func(pt int32, v float64) {
					sl := slot[pt]
					if sl < 0 {
						slotErr = fmt.Errorf("core: patch %d received partial for unmarked point %d", p, pt)
						return
					}
					buf[sl] += v
				})
				if err == nil {
					err = slotErr
				}
				if err != nil {
					return err
				}
			}
			out[i] = PatchPartial{Patch: p, Points: slots, Values: buf, Counters: wk.counters}
			return nil
		}, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(failed) == 0 {
		return out, nil, nil
	}
	kept := out[:0]
	for _, pp := range out {
		if pp.Values != nil {
			kept = append(kept, pp)
		}
	}
	return kept, failed, nil
}

// slotTable returns the worker's point-to-slot table over n grid points,
// allocating it all -1 on first use.
func (wk *worker) slotTable(n int) []int32 {
	if wk.slot == nil {
		wk.slot = make([]int32, n)
		for i := range wk.slot {
			wk.slot[i] = -1
		}
	}
	return wk.slot
}

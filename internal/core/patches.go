package core

import (
	"context"
	"fmt"

	"unstencil/internal/metrics"
	"unstencil/internal/tile"
)

// PatchPartial is the outcome of evaluating one tile patch in isolation:
// the patch's scratch-pad partial-solution buffer (indexed by its slot
// list, t.Slots[Patch]) plus the exact counters the patch accrued. It is
// the unit of work a cluster shard returns to the coordinator: because a
// patch's buffer is accumulated element-by-element in PatchElems order
// regardless of which process runs it, merging buffers in ascending patch
// order reproduces tile.Reduce — and therefore a single-process
// RunPerElement — bit for bit.
type PatchPartial struct {
	Patch    int
	Values   []float64
	Counters metrics.Counters
}

// EvalPatchesResilientCtx evaluates only the given patches of tiling t,
// each under the resilience policy (panic isolation, capped-backoff retry),
// and returns their partial-solution buffers without performing the
// reduction. It is the shard half of the distributed per-element scheme:
// the coordinator assigns disjoint patch sets to shards, gathers the
// partials, and merges them in ascending patch order.
//
// With rs.AllowPartial, patches that exhaust their retries are dropped and
// reported in the second return value (sorted); without it the first
// permanent patch failure fails the call. Patch ids must be unique and in
// [0, t.K).
func (ev *Evaluator) EvalPatchesResilientCtx(ctx context.Context, t *tile.Tiling, patches []int, rs *Resilience) ([]PatchPartial, []int, error) {
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
			// partial stays empty.
			p := patches[i]
			buf := make([]float64, len(t.Slots[p]))
			for _, e := range t.PatchElems[p] {
				if err := ctx.Err(); err != nil {
					return err
				}
				var slotErr error
				err := ev.processElement(e, wk, func(pt int32, v float64) {
					sl := t.Slot(p, pt)
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
			out[i] = PatchPartial{Patch: p, Values: buf, Counters: wk.counters}
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

package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
	"unstencil/internal/tile"
)

// This file is the fault-handling policy of the direct schemes and the
// schemes themselves. Both are one shape — independent units with disjoint
// write sets, dispatched by par.For — so one loop (runUnits) applies the
// policy to either: per-point blocks and per-element patches are its two
// callers, and the single-process per-element run is the shard path
// (EvalPatchesResilientCtx) over every patch plus the one merge
// (MergePartials).

// Fault-injection sites the evaluation pipeline exposes (see internal/fault
// and DESIGN.md §8). Each site sits at the top of a unit attempt, so an
// injected error or panic exercises exactly the recovery path a real
// failure of that unit would take.
const (
	// SitePointBlock fires at the start of each per-point block attempt.
	SitePointBlock = "core.point-block"
	// SiteTile fires at the start of each per-element patch (tile) attempt.
	SiteTile = "core.tile"
	// siteAssembleRow fires at the start of each integrated operator row.
	// Rows run outside the unit policy: a fault fails the assembly, which
	// the server's artifact stage retries whole.
	siteAssembleRow = "core.assemble-row"
)

// Resilience configures fault handling for the resilient run variants. The
// zero value (and a nil pointer) means: one attempt per unit, no partial
// completion — panics still become errors instead of killing the process.
type Resilience struct {
	// Policy is the per-unit retry: Attempts tries per unit, separated by
	// capped exponential backoff keyed by the unit id.
	fault.Policy
	// AllowPartial lets a run complete when some units exhaust their
	// retries: their output is zeroed and reported via Result.Coverage
	// instead of failing the whole run.
	AllowPartial bool
	// Faults receives recovery telemetry; nil disables counting.
	Faults *metrics.FaultCounters
}

// Coverage reports partial completion of a degraded run: which units
// (blocks or patches) exhausted their retries, and how many grid points
// still carry a complete value. The other points are exactly zero in both
// schemes: a failed block's strided points, and for the per-element scheme
// every point in a failed patch's influence region, which MergePartials
// zeroes rather than leave the surviving patches' incomplete sum.
type Coverage struct {
	FailedUnits   []int `json:"failed_units"`
	TotalUnits    int   `json:"total_units"`
	CoveredPoints int   `json:"covered_points"`
	TotalPoints   int   `json:"total_points"`
	// UncoveredIDs is the per-element scheme's full, ascending uncovered
	// set (tile.UncoveredIDs of FailedUnits); nil for the per-point scheme.
	// It is not part of the coverage JSON: job views list these ids
	// separately, capped.
	UncoveredIDs []int32 `json:"-"`
}

// PatchCoverage is the coverage of a per-element run over tiling t that
// lost the given patches (ids in [0, t.K), ascending). The tiling is a
// function of the geometry alone, so a single process and a cluster
// coordinator derive the identical value from their own copies of it.
func PatchCoverage(t *tile.Tiling, failed []int) *Coverage {
	ids := t.UncoveredIDs(failed)
	return &Coverage{
		FailedUnits:   failed,
		TotalUnits:    t.K,
		CoveredPoints: t.NumPoints - len(ids),
		TotalPoints:   t.NumPoints,
		UncoveredIDs:  ids,
	}
}

// Fraction returns CoveredPoints/TotalPoints (1 when the grid is empty).
func (c *Coverage) Fraction() float64 {
	if c.TotalPoints == 0 {
		return 1
	}
	return float64(c.CoveredPoints) / float64(c.TotalPoints)
}

// orNone returns rs, or the zero policy when rs is nil.
func (rs *Resilience) orNone() *Resilience {
	if rs == nil {
		return &Resilience{}
	}
	return rs
}

// runUnit executes one unit under the retry half of the policy: every
// attempt starts at the unit's fault site and runs panic-isolated, a panic
// coming back as a *par.PanicError wrapped with the scheme and the block or
// patch id, and fault.Retry separates attempts, keyed by the unit id. fn
// must be restartable: an attempt resets whatever an aborted one left
// behind.
func (rs *Resilience) runUnit(ctx context.Context, scheme Scheme, unit int, site string, fn func() error) error {
	_, err := fault.Retry(ctx, rs.Policy, uint64(unit)<<20,
		func(error) {
			if rs.Faults != nil {
				rs.Faults.TileRetries.Add(1)
			}
		},
		func() error {
			err := par.Call(unit, func() error {
				if err := fault.Inject(site); err != nil {
					return err
				}
				return fn()
			})
			if pe, ok := err.(*par.PanicError); ok {
				if rs.Faults != nil {
					rs.Faults.PanicsRecovered.Add(1)
				}
				noun := "block"
				if scheme == PerElement {
					noun = "patch"
				}
				err = fmt.Errorf("core: %s %s %d: %w", scheme, noun, unit, pe)
			}
			return err
		})
	return err
}

// runUnits is the one executor behind both direct schemes: n units
// dispatched across the evaluator's workers, each under the policy. ids
// names the units (block or patch ids — what a panic error names, the backoff
// jitter and the failed list report); nil means unit i is id i. attempt is
// one restartable attempt of unit i on scratch worker wk, whose counters
// start at zero; it records its own outputs once it has succeeded. Under
// AllowPartial a unit that exhausts its retries is undone by drop (nil when
// a failed attempt leaves nothing behind) and returned in the sorted failed
// list; otherwise the first exhausted unit fails the run.
func (ev *Evaluator) runUnits(ctx context.Context, rs *Resilience, scheme Scheme, site string, n int, ids []int,
	attempt func(i int, wk *worker) error, drop func(i int)) (failed []int, err error) {
	workers := min(ev.Opt.Workers, n)
	wks := ev.getWorkers(max(workers, 1))
	defer ev.putWorkers(wks)
	unitID := func(i int) int {
		if ids != nil {
			return ids[i]
		}
		return i
	}
	dropped := make([]bool, n) // one slot per unit: written without a lock
	err = par.For(workers, n, func(w, i int) error {
		wk := wks[w]
		err := rs.runUnit(ctx, scheme, unitID(i), site, func() error {
			wk.counters.Reset()
			return attempt(i, wk)
		})
		if !fault.Transient(err) || !rs.AllowPartial {
			return err
		}
		if drop != nil {
			drop(i)
		}
		if rs.Faults != nil {
			rs.Faults.TilesFailed.Add(1)
		}
		dropped[i] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, d := range dropped {
		if d {
			failed = append(failed, unitID(i))
		}
	}
	sort.Ints(failed)
	return failed, nil
}

// RunPerPointResilientCtx executes the per-point scheme (Algorithm 2) under
// ctx and a fault-handling policy (nil: one attempt per block, no partial
// completion). nBlocks logical blocks iterate grid points in the paper's
// strided fashion (block b handles points b, b+NB, ...). Workers stop at
// the next grid point once ctx is cancelled and the run returns ctx's
// error. Each block runs panic-isolated, transient failures retry with
// capped exponential backoff, and — when rs.AllowPartial — blocks that
// exhaust their retries are zeroed and reported in Result.Coverage instead
// of failing the run. Blocks write disjoint strided slices of the solution,
// so a failed or retried block never corrupts its neighbours.
func (ev *Evaluator) RunPerPointResilientCtx(ctx context.Context, nBlocks int, rs *Resilience) (*Result, error) {
	if nBlocks < 1 {
		nBlocks = 1
	}
	res := &Result{
		Solution:       make([]float64, ev.NumPoints()),
		Blocks:         make([]metrics.Counters, nBlocks),
		MemoryOverhead: 1,
		Scheme:         PerPoint,
	}
	start := time.Now()
	failed, err := ev.runUnits(ctx, rs.orNone(), PerPoint, SitePointBlock, nBlocks, nil,
		func(b int, wk *worker) error {
			for p := b; p < len(ev.Points); p += nBlocks {
				if err := ctx.Err(); err != nil {
					return err
				}
				v, err := ev.evalPoint(int32(p), wk)
				if err != nil {
					return err
				}
				res.Solution[p] = v
			}
			res.Blocks[b] = wk.counters
			return nil
		},
		// Degrade: an aborted attempt may have written a prefix of the
		// block's strided points.
		func(b int) {
			for p := b; p < len(ev.Points); p += nBlocks {
				res.Solution[p] = 0
			}
		})
	if err != nil {
		return nil, err
	}
	res.finish(start)
	if len(failed) > 0 {
		covered := len(ev.Points)
		for _, b := range failed {
			covered -= strideCount(len(ev.Points), b, nBlocks)
		}
		res.Coverage = &Coverage{
			FailedUnits:   failed,
			TotalUnits:    nBlocks,
			CoveredPoints: covered,
			TotalPoints:   len(ev.Points),
		}
	}
	return res, nil
}

// finish stamps the wall time and sums the per-block counters.
func (res *Result) finish(start time.Time) {
	res.Wall = time.Since(start)
	for i := range res.Blocks {
		res.Total.Add(&res.Blocks[i])
	}
}

// strideCount returns |{p : p = b + i·n, p < total}|.
func strideCount(total, b, n int) int {
	if b >= total {
		return 0
	}
	return (total - b + n - 1) / n
}

// RunPerElementResilientCtx executes the per-element scheme (Algorithm 3)
// under ctx and a fault-handling policy (nil: one attempt per patch, no
// partial completion): EvalPatchesResilientCtx over every patch of the
// overlapped tiling, then MergePartials. A nil tiling builds one with
// Opt.Workers patches. The tiling is the unit of fault containment: every
// patch accumulates into its own scratch-pad, so a patch that exhausts its
// retries is dropped without touching any neighbour. With rs.AllowPartial
// the run then completes with the dropped patches' influence regions
// zeroed and reported in Result.Coverage; otherwise the first exhausted
// patch fails the run.
func (ev *Evaluator) RunPerElementResilientCtx(ctx context.Context, t *tile.Tiling, rs *Resilience) (*Result, error) {
	if t == nil {
		t = ev.NewTiling(ev.Opt.Workers)
	}
	res := &Result{
		Solution:       make([]float64, ev.NumPoints()),
		Blocks:         make([]metrics.Counters, t.K),
		MemoryOverhead: t.Overhead(),
		Scheme:         PerElement,
	}
	all := make([]int, t.K)
	for p := range all {
		all[p] = p
	}
	start := time.Now()
	partials, failed, err := ev.EvalPatchesResilientCtx(ctx, t, all, rs)
	if err != nil {
		return nil, err
	}
	for _, pp := range partials {
		res.Blocks[pp.Patch] = pp.Counters
	}
	var uncovered []int32
	if len(failed) > 0 {
		res.Coverage = PatchCoverage(t, failed)
		uncovered = res.Coverage.UncoveredIDs
	}
	if err := MergePartials(res.Solution, partials, uncovered); err != nil {
		return nil, err
	}
	res.finish(start)
	return res, nil
}

package core

import (
	"sync"
	"sync/atomic"
)

// This file holds the one dispatcher every parallel loop in core runs on,
// and the scratch-worker pool its units draw from.
//
// A unit is an independent piece of work whose write set the caller has
// made disjoint from every other unit's: a per-point block (a strided slice
// of the solution), a per-element patch (its own scratch-pad, paper §4), an
// operator row, a query point, a patch's owned points in the reduction.
// The dispatcher hands each unit to exactly one worker and never looks
// inside it, and a unit's output does not depend on which worker ran it or
// when — so the schedule cannot reach the floating-point results and a
// parallel run is bit-identical to the serial one.
//
// It is also the only place in core and tile that starts goroutines for
// units, which makes it the one place a panicking unit has to be caught:
// every unit, inline or on a goroutine, runs under safeCall.

// runDynamic executes units 0..n-1 on up to `workers` goroutines, each
// claiming the next unit from a shared atomic counter, and returns the
// first unit error. unit receives the worker index (for per-worker
// scratch) and the unit. A panicking unit is recovered into a *PanicError
// carrying its index. After the first failure no new unit is claimed;
// units already in flight finish. workers <= 1 runs inline in unit order.
func runDynamic(workers, n int, unit func(w, u int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error
	)
	work := func(w int) {
		for !failed.Load() {
			u := int(next.Add(1)) - 1
			if u >= n {
				return
			}
			if err := safeCall(PerPoint, u, nil, func() error { return unit(w, u) }); err != nil {
				if failed.CompareAndSwap(false, true) {
					first = err
				}
				return
			}
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work(0)
		return first
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return first
}

// rangeChunk is the number of indices one runChunks unit covers: enough
// that a unit's dispatch is noise next to its work, few enough that the
// workers stay level.
const rangeChunk = 1024

// runChunks runs fn over [0, n) in contiguous index chunks of rangeChunk,
// each a runDynamic unit, so a panicking chunk comes back as a
// *PanicError instead of killing the process. fn's chunks must write
// disjoint outputs.
func runChunks(workers, n int, fn func(lo, hi int)) error {
	return runDynamic(workers, (n+rangeChunk-1)/rangeChunk, func(_, u int) error {
		fn(u*rangeChunk, min((u+1)*rangeChunk, n))
		return nil
	})
}

// getWorker returns a scratch worker from the evaluator's pool (counters
// reset, kernels restored to the symmetric default), allocating on first
// use, so runs, assemblies and batch queries reuse grown buffers — samples,
// rows, clipper scratch, candidate slices — instead of reallocating them.
func (ev *Evaluator) getWorker() *worker {
	if w, _ := ev.wkPool.Get().(*worker); w != nil {
		w.counters.Reset()
		w.kx, w.ky = ev.Kernel, ev.Kernel
		w.edPerRegion = 0
		return w
	}
	return ev.newWorker()
}

// putWorker returns a worker to the pool once no goroutine references it.
func (ev *Evaluator) putWorker(w *worker) { ev.wkPool.Put(w) }

// getWorkers acquires n pooled workers (index by the dispatcher's worker id).
func (ev *Evaluator) getWorkers(n int) []*worker {
	wks := make([]*worker, n)
	for i := range wks {
		wks[i] = ev.getWorker()
	}
	return wks
}

// putWorkers returns every worker acquired by getWorkers.
func (ev *Evaluator) putWorkers(wks []*worker) {
	for _, w := range wks {
		ev.putWorker(w)
	}
}

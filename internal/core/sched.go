package core

// This file holds the scratch-worker pool the units core runs on
// par.For draw from: a unit indexes the pool by the dispatcher's worker id.

// rangeChunk is the number of indices one par.Chunks unit of core covers:
// enough that a unit's dispatch is noise next to its work, few enough that
// the workers stay level.
const rangeChunk = 1024

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

package core

import (
	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
)

// EvalBatch post-processes the field at many arbitrary physical positions
// concurrently — the batched form of EvalAt for streamline-style query
// workloads, where an ODE integrator (or a remote client, via the service's
// POST /v1/query endpoint) produces thousands of positions against one
// resident evaluator. Unlike EvalAt it is safe for concurrent use: each
// dispatcher worker evaluates on its own pooled scratch worker, positions
// are claimed off a shared atomic counter (queries are uniform units), and
// every result lands in its own output slot.
//
// Values are bit-identical to calling EvalAt per position — a query reads
// only immutable evaluator state, so the schedule cannot reach the numbers
// — and the returned counters equal the sum of the per-call counters a
// sequential sweep would report. workers <= 0 uses Opt.Workers.
func (ev *Evaluator) EvalBatch(positions []geom.Point, workers int) ([]float64, metrics.Counters, error) {
	out := make([]float64, len(positions))
	var total metrics.Counters
	if len(positions) == 0 {
		return out, total, nil
	}
	if workers <= 0 {
		workers = ev.Opt.Workers
	}
	workers = min(workers, len(positions))
	wks := ev.getWorkers(max(workers, 1))
	err := par.For(workers, len(positions), func(w, i int) (err error) {
		out[i], err = ev.evalAt(positions[i], wks[w])
		return err
	})
	for _, wk := range wks {
		total.Add(&wk.counters)
	}
	ev.putWorkers(wks)
	if err != nil {
		return nil, metrics.Counters{}, err
	}
	return out, total, nil
}

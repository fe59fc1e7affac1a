package server

import (
	"context"
	"errors"
	"net/http"
	"time"

	"unstencil/internal/metrics"
)

// QueryResult is the body of a POST /v1/query answer.
type QueryResult struct {
	// Values holds one array per field, in request order (one array for a
	// one-field query), each in Points order.
	Values [][]float64 `json:"values"`
	// CacheHits lists the artifacts served warm, in the job vocabulary:
	// "evaluator", "operator" (the batch's operator from memory) or
	// "operator-disk" (from the artifact store).
	CacheHits []string         `json:"cache_hits,omitempty"`
	Counters  metrics.Counters `json:"counters"`
	WallMS    float64          `json:"wall_ms"`
	// Shard is the shard that answered, set by the cluster coordinator only.
	Shard string `json:"shard,omitempty"`
}

// Query implements Backend for POST /v1/query: the spec, which must carry
// points, runs the evaluate a job runs, synchronously on the request
// goroutine and under the job deadline, so it neither queues behind long
// jobs nor is journaled. The evaluator and operators it resolves are the
// cache's, so repeated queries never rebuild kernel tables or grids, and
// the batch fans across the evaluator's Opt.Workers — the server's
// -eval-workers budget. wall_ms spans artifact resolution and evaluation.
func (s *Server) Query(ctx context.Context, spec JobSpec) (*QueryResult, error) {
	if err := spec.Validate(s.cfg.DefaultBlocks, true); err != nil {
		return nil, Errorf(http.StatusBadRequest, "bad query: %v", err)
	}
	ctx, cancel := context.WithTimeout(ctx, clampTimeout(spec.TimeoutMS, s.cfg.JobTimeout))
	defer cancel()
	start := time.Now()
	out, err := s.evaluate(ctx, spec)
	if err != nil {
		return nil, queryError(err)
	}
	res := &QueryResult{
		Values:    out.Solutions,
		CacheHits: out.CacheHits,
		Counters:  out.Total,
		WallMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	s.mgr.totals.Record("batch-query", &res.Counters) // beside the schemes in /debug/metrics
	return res, nil
}

// queryError is the status a failed query answers: 404 for a mesh that is
// not resident (the coordinator's cue to re-seed it), 504 for a spent
// deadline, 500 for a stage that panicked — the server's fault, which
// runStage has counted — and 422 for any other failure of a validated
// request, such as a kernel a one-sided boundary cannot build.
func queryError(err error) error {
	var je *JobError
	if !errors.As(err, &je) {
		return err
	}
	status := http.StatusUnprocessableEntity
	switch {
	case je.Panicked:
		return Errorf(http.StatusInternalServerError, "internal error: %s", je.of("query"))
	case errors.Is(err, ErrMeshNotFound):
		status = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	return Errorf(status, "%s", je.of("query"))
}

package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
)

// MaxQueryPoints bounds one batch query. Requests beyond it are rejected
// with 400 at decode time rather than allowed to monopolise the evaluator.
const MaxQueryPoints = 1 << 16

// QueryRequest is the body of POST /v1/query: a batch of arbitrary
// evaluation positions against a resident evaluator. Unlike jobs, queries
// run synchronously on the request goroutine — the point of the endpoint is
// to amortise one warm evaluator (kernel tables, hash grids, the cached
// change of basis) across thousands of point evaluations, streamline-style,
// without a queue round-trip per point. A direct query's values equal the
// use_operator path's bitwise: each point is its operator row dotted with
// the field by the apply's own recurrence.
type QueryRequest struct {
	// MeshID references a mesh previously uploaded via POST /v1/meshes.
	MeshID string `json:"mesh_id"`
	// P is the dG polynomial order (1..4). A query's values do not depend
	// on the computation grid, so it has no grid_degree: it shares the
	// default-grid (grid_degree 0) evaluator with jobs.
	P int `json:"p"`
	// Boundary is "periodic" (default) or "one-sided".
	Boundary string `json:"boundary,omitempty"`
	// Field names the analytic input field ("sincos" default).
	Field string `json:"field,omitempty"`
	// Fields names several input fields to evaluate at the same positions
	// in one batched operator apply. Requires use_operator; the answer's
	// values then hold one array per entry, in order. When set, Field
	// defaults to Fields[0].
	Fields []string `json:"fields,omitempty"`
	// Points are the query positions, [x, y] pairs: any finite point under
	// periodic boundaries, points of the closed unit square under one-sided
	// ones (whose kernels are only defined for stencils centred there).
	Points [][2]float64 `json:"points"`
	// UseOperator routes the batch through an assembled sparse operator
	// keyed by the content hash of the position batch: the first query at
	// these positions pays per-point assembly, every repeat — the same
	// streamline sample set against a new field each time step — is a
	// sparse apply that skips geometry entirely.
	UseOperator bool `json:"use_operator,omitempty"`
}

func (q *QueryRequest) normalize() error {
	if len(q.Fields) > 0 && !q.UseOperator {
		return errors.New("fields (batched apply) requires use_operator")
	}
	if err := checkEval(q.MeshID, q.P, 0, &q.Boundary, &q.Field, q.Fields); err != nil {
		return err
	}
	if len(q.Points) == 0 {
		return errors.New("points must be non-empty")
	}
	if len(q.Points) > MaxQueryPoints {
		return fmt.Errorf("at most %d points per query, got %d", MaxQueryPoints, len(q.Points))
	}
	for i, p := range q.Points {
		if math.IsNaN(p[0]) || math.IsInf(p[0], 0) || math.IsNaN(p[1]) || math.IsInf(p[1], 0) {
			return fmt.Errorf("points[%d] is not finite", i)
		}
		if q.Boundary == "one-sided" && (p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1) {
			return fmt.Errorf("points[%d] = (%g, %g) lies outside the unit square, which one-sided boundaries require", i, p[0], p[1])
		}
	}
	return nil
}

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

// Query implements Backend for POST /v1/query: it resolves the
// default-grid evaluator, the one a job without grid_degree uses, through
// the artifact cache (so repeated queries against the same mesh and
// parameters never rebuild kernel tables or grids) and fans the batch
// across the evaluator's Opt.Workers pooled evaluation workers — the
// server's -eval-workers budget, as for jobs — via core's
// concurrency-safe EvalBatch.
func (s *Server) Query(_ context.Context, req *QueryRequest) (*QueryResult, error) {
	m, ok := s.arts.Mesh(req.MeshID)
	if !ok {
		return nil, Errorf(http.StatusNotFound,
			"mesh %q not resident (upload it via POST /v1/meshes)", req.MeshID)
	}
	boundary, _ := ParseBoundary(req.Boundary) // validated by normalize
	ev, hit, err := s.arts.Evaluator(m, req.MeshID, req.P, 0, boundary, req.Field)
	if err != nil {
		return nil, &Error{Status: http.StatusBadRequest, Err: err}
	}
	pts := make([]geom.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geom.Pt(p[0], p[1])
	}
	res := &QueryResult{}
	if hit {
		res.CacheHits = append(res.CacheHits, "evaluator")
	}
	start := time.Now()
	if req.UseOperator {
		op, src, err := s.arts.QueryOperator(ev, req.MeshID, pts)
		if err != nil {
			return nil, s.evalError("query operator assembly", err)
		}
		res.CacheHits = appendOpHit(res.CacheHits, src)
		fields, err := s.arts.fields(m, req.MeshID, req.P, req.Fields, ev.Field)
		if err != nil {
			return nil, &Error{Status: http.StatusBadRequest, Err: err}
		}
		if res.Values, res.Counters, err = s.arts.applyFields(op, fields); err != nil {
			return nil, s.evalError("query operator apply", err)
		}
	} else {
		vals, counters, err := ev.EvalBatch(pts, ev.Opt.Workers)
		if err != nil {
			return nil, s.evalError("query evaluation", err)
		}
		res.Values, res.Counters = [][]float64{vals}, counters
	}
	res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	s.mgr.totals.Record("batch-query", &res.Counters) // beside the schemes in /debug/metrics
	return res, nil
}

// evalError classifies a failed query evaluation, assembly or apply. The
// evaluator and inputs validated, so an ordinary failure is a kernel
// construction error for a position the boundary mode cannot serve (e.g.
// one-sided support wider than the domain) or an apply's dimension check:
// 422. A panic par.For recovered in a worker is the server's fault, not the
// request's: 500, counted like the ones the HTTP recovery middleware
// catches on the request goroutine.
func (s *Server) evalError(what string, err error) error {
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		return Errorf(http.StatusUnprocessableEntity, "%s: %v", what, err)
	}
	s.faults.PanicsRecovered.Add(1)
	if s.log != nil {
		s.log.Error("evaluation worker panic recovered",
			"stage", what, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
	return Errorf(http.StatusInternalServerError, "internal error: %s: %v", what, err)
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/geom"
	"unstencil/internal/metrics"
	"unstencil/internal/operator"
)

// MaxQueryPoints bounds one batch query. Requests beyond it are rejected
// with 400 at decode time rather than allowed to monopolise the evaluator.
const MaxQueryPoints = 1 << 16

// QueryRequest is the body of POST /v1/query: a batch of arbitrary
// evaluation positions against a resident evaluator. Unlike jobs, queries
// run synchronously on the request goroutine — the point of the endpoint is
// to amortise one warm evaluator (kernel tables, hash grids, collapsed
// Horner fields) across thousands of point evaluations, streamline-style,
// without a queue round-trip per point.
type QueryRequest struct {
	// MeshID references a mesh previously uploaded via POST /v1/meshes.
	MeshID string `json:"mesh_id"`
	// P is the dG polynomial order (1..4).
	P int `json:"p"`
	// GridDegree selects the evaluator's computation grid; it only matters
	// for sharing the evaluator with job submissions (same cache key).
	// 0 means 2P, negative the one-point rule.
	GridDegree int `json:"grid_degree,omitempty"`
	// Boundary is "periodic" (default) or "one-sided".
	Boundary string `json:"boundary,omitempty"`
	// Field names the analytic input field ("sincos" default).
	Field string `json:"field,omitempty"`
	// Fields names several input fields to evaluate at the same positions
	// in one batched operator apply. Requires use_operator; the response
	// then carries "fields" and a per-field "values" array in the same
	// order. When set, Field defaults to Fields[0].
	Fields []string `json:"fields,omitempty"`
	// Points are the query positions, [x, y] pairs.
	Points [][2]float64 `json:"points"`
	// Workers bounds this query's evaluation concurrency; 0 means the
	// server's evaluator worker budget.
	Workers int `json:"workers,omitempty"`
	// UseOperator routes the batch through an assembled sparse operator
	// keyed by the content hash of the position batch: the first query at
	// these positions pays per-point assembly, every repeat — the same
	// streamline sample set against a new field each time step — is a
	// sparse apply that skips geometry entirely.
	UseOperator bool `json:"use_operator,omitempty"`
}

func (q *QueryRequest) normalize() error {
	if q.MeshID == "" {
		return errors.New("mesh_id is required")
	}
	if q.P < 1 || q.P > 4 {
		return fmt.Errorf("p must be in 1..4, got %d", q.P)
	}
	if q.GridDegree > MaxGridDegree {
		return fmt.Errorf("grid_degree must be <= %d, got %d", MaxGridDegree, q.GridDegree)
	}
	if q.Boundary == "" {
		q.Boundary = "periodic"
	}
	if _, err := parseBoundary(q.Boundary); err != nil {
		return err
	}
	if len(q.Fields) > 0 {
		if !q.UseOperator {
			return errors.New("fields (batched apply) requires use_operator")
		}
		if len(q.Fields) > MaxJobFields {
			return fmt.Errorf("at most %d fields per query, got %d", MaxJobFields, len(q.Fields))
		}
		for i, f := range q.Fields {
			if _, ok := FieldFuncs[f]; !ok {
				return fmt.Errorf("unknown fields[%d] %q (have %v)", i, f, FieldNames())
			}
		}
		if q.Field == "" {
			q.Field = q.Fields[0]
		}
	}
	if q.Field == "" {
		q.Field = "sincos"
	}
	if _, ok := FieldFuncs[q.Field]; !ok {
		return fmt.Errorf("unknown field %q (have %v)", q.Field, FieldNames())
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
	}
	if q.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", q.Workers)
	}
	return nil
}

// handleQuery serves POST /v1/query: it resolves the evaluator through the
// artifact cache (so repeated queries against the same mesh and parameters
// never rebuild kernel tables or grids) and fans the batch across pooled
// evaluation workers via core's concurrency-safe EvalBatch.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	if err := req.normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	m, ok := s.arts.Mesh(req.MeshID)
	if !ok {
		writeError(w, http.StatusNotFound,
			"mesh %q not resident (upload it via POST /v1/meshes)", req.MeshID)
		return
	}
	boundary, _ := parseBoundary(req.Boundary) // validated by normalize
	ev, hit, err := s.arts.Evaluator(m, req.MeshID, req.P, req.GridDegree, boundary, req.Field)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pts := make([]geom.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = geom.Pt(p[0], p[1])
	}
	resp := map[string]any{
		"mesh_id":        req.MeshID,
		"evaluator_warm": hit,
	}
	var (
		vals     []float64
		counters metrics.Counters
	)
	start := time.Now()
	if req.UseOperator {
		op, opSrc, err := s.arts.QueryOperator(ev, req.MeshID, pts)
		if err != nil {
			s.writeEvalError(w, "query operator assembly", err)
			return
		}
		// Query outputs are encoded and dropped, so they come from the
		// apply-vector pool: the steady-state repeated-query path (same
		// points, new field each time step) allocates nothing per apply.
		fields := []*dg.Field{ev.Field}
		if len(req.Fields) > 0 {
			fields = make([]*dg.Field, len(req.Fields))
			for i, name := range req.Fields {
				if fields[i], _, err = s.arts.Field(m, req.MeshID, req.P, name); err != nil {
					writeError(w, http.StatusBadRequest, "%v", err)
					return
				}
			}
		}
		outs := make([][]float64, len(fields))
		for i := range outs {
			outs[i] = operator.GetVec(op.Rows)
			defer operator.PutVec(outs[i])
		}
		if counters, err = s.arts.applyFields(op, fields, outs); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "query operator apply: %v", err)
			return
		}
		vals = outs[0]
		if len(req.Fields) > 0 {
			resp["fields"] = req.Fields
			resp["values"] = outs
		}
		resp["operator_warm"] = opSrc != OpSrcAssembled
		resp["operator_source"] = opSrc
	} else {
		vals, counters, err = ev.EvalBatch(pts, req.Workers)
		if err != nil {
			s.writeEvalError(w, "query evaluation", err)
			return
		}
	}
	wall := time.Since(start)
	s.mgr.RecordQuery(&counters)
	resp["num_points"] = len(vals)
	if _, ok := resp["values"]; !ok {
		resp["values"] = vals
	}
	resp["counters"] = counters
	resp["wall_ms"] = float64(wall) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// writeEvalError reports a failed query evaluation or assembly. The
// evaluator and inputs validated, so an ordinary failure is a kernel
// construction error for a position the boundary mode cannot serve (e.g.
// one-sided support wider than the domain): 422. A panic core's dispatcher
// recovered in an evaluation worker is the server's fault, not the
// request's: 500, counted like the ones withRecovery catches on the request
// goroutine.
func (s *Server) writeEvalError(w http.ResponseWriter, what string, err error) {
	var pe *core.PanicError
	if !errors.As(err, &pe) {
		writeError(w, http.StatusUnprocessableEntity, "%s: %v", what, err)
		return
	}
	s.faults.PanicsRecovered.Add(1)
	if s.log != nil {
		s.log.Error("evaluation worker panic recovered",
			"stage", what, "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
	writeError(w, http.StatusInternalServerError, "internal error: %s: %v", what, err)
}

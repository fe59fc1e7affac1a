package server

// This file implements shard mode: the endpoints a cluster coordinator
// drives. Any unstencild process can serve them — "shard" is a role, not a
// build flavour. The coordinator partitions a job's tiling patches across
// shards; each shard evaluates its assigned patches against its own
// resident evaluator and returns sparse partial-solution buffers (slot
// lists + values). The tiling is deterministic given (mesh, parameters,
// k), so every shard sees the identical decomposition, and the
// coordinator's merge (core.MergePartials, the one a single process runs)
// reproduces a single-process per-element run bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/fault"
	"unstencil/internal/metrics"
	"unstencil/internal/tile"
)

// SiteShardEval fires at the top of each shard patch-evaluation request, so
// a -fault-spec campaign can chaos the coordinator's retry and failover
// paths deterministically (the coordinator sees a 5xx, exactly as it would
// from a genuinely failing shard).
const SiteShardEval = "server.shard-eval"

// ShardEvalRequest asks for the partial solutions of a subset of the
// k-patch tiling of a resident mesh.
type ShardEvalRequest struct {
	MeshID     string `json:"mesh_id"`
	P          int    `json:"p"`
	GridDegree int    `json:"grid_degree,omitempty"`
	Boundary   string `json:"boundary,omitempty"`
	Field      string `json:"field,omitempty"`
	// K is the total patch count of the tiling (shared by every shard of
	// the job, whatever subset each one evaluates).
	K int `json:"k"`
	// Patches are the tiling patch ids this shard should evaluate.
	Patches []int `json:"patches"`
	// TimeoutMS caps the evaluation; 0 means, and larger values are capped
	// at, the server's job timeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

func (q *ShardEvalRequest) normalize() error {
	if err := checkEval(q.MeshID, q.P, q.GridDegree, &q.Boundary, &q.Field, nil); err != nil {
		return err
	}
	if q.K < 1 || q.K > MaxBlocks {
		return fmt.Errorf("k must be in 1..%d, got %d", MaxBlocks, q.K)
	}
	if len(q.Patches) == 0 {
		return errors.New("patches must be non-empty")
	}
	seen := make([]bool, q.K)
	for _, p := range q.Patches {
		if p < 0 || p >= q.K {
			return fmt.Errorf("patch %d outside [0, %d)", p, q.K)
		}
		if seen[p] {
			return fmt.Errorf("patch %d repeats", p)
		}
		seen[p] = true
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", q.TimeoutMS)
	}
	return nil
}

// ShardEvalResponse carries the requested patches' partials, the patches
// that exhausted their retries (Failed) and the exact summed counters.
type ShardEvalResponse struct {
	MeshID         string              `json:"mesh_id"`
	K              int                 `json:"k"`
	NumPoints      int                 `json:"num_points"`
	Patches        []core.PatchPartial `json:"patches"`
	Failed         []int               `json:"failed,omitempty"`
	Counters       metrics.Counters    `json:"counters"`
	MemoryOverhead float64             `json:"memory_overhead"`
	WallMS         float64             `json:"wall_ms"`
}

// shardEval serves POST /v1/shard/eval: patch-scoped per-element
// evaluation, synchronous on the request goroutine like /v1/query. Each
// patch retries here and one that exhausts its retries is reported in
// Failed, for the coordinator's allow_partial and merge: a 5xx means the
// range never ran, a 504 that it ran out of its deadline.
func (s *Server) shardEval(r *http.Request) (*ShardEvalResponse, error) {
	if err := fault.Inject(SiteShardEval); err != nil {
		return nil, &Error{Status: http.StatusInternalServerError, Err: err}
	}
	var req ShardEvalRequest
	err := decodeStrict(r.Body, &req)
	if err == nil {
		err = req.normalize()
	}
	if err != nil {
		return nil, Errorf(http.StatusBadRequest, "bad shard eval request: %v", err)
	}
	ev, tiling, err := s.shardArtifacts(&req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), clampTimeout(req.TimeoutMS, s.cfg.JobTimeout))
	defer cancel()
	start := time.Now()
	partials, failed, err := ev.EvalPatchesResilientCtx(ctx, tiling, req.Patches, s.resilience(true))
	if err != nil {
		status := http.StatusInternalServerError
		if !fault.Transient(err) {
			status = http.StatusGatewayTimeout
		}
		return nil, Errorf(status, "shard eval: %v", err)
	}
	resp := &ShardEvalResponse{
		MeshID:         req.MeshID,
		K:              req.K,
		NumPoints:      tiling.NumPoints,
		Patches:        partials,
		Failed:         failed,
		MemoryOverhead: tiling.Overhead(),
		WallMS:         float64(time.Since(start)) / float64(time.Millisecond),
	}
	for i := range partials {
		resp.Counters.Add(&partials[i].Counters)
	}
	s.mgr.totals.Record("shard-eval", &resp.Counters)
	return resp, nil
}

// shardArtifacts resolves the evaluator and k-patch tiling for a normalized
// shard request: a 404 for a mesh the shard does not hold — the
// coordinator's cue to re-seed it — and a 422 for artifacts that cannot be
// built.
func (s *Server) shardArtifacts(req *ShardEvalRequest) (*core.Evaluator, *tile.Tiling, error) {
	m, ok := s.arts.Mesh(req.MeshID)
	if !ok {
		return nil, nil, Errorf(http.StatusNotFound,
			"mesh %q not resident (upload it via POST /v1/meshes)", req.MeshID)
	}
	boundary, _ := ParseBoundary(req.Boundary) // validated by normalize
	ev, _, err := s.arts.Evaluator(m, req.MeshID, req.P, req.GridDegree, boundary, req.Field)
	if err == nil {
		var tiling *tile.Tiling
		tiling, _, err = s.arts.Tiling(ev, OpKey(req.MeshID, req.P, ev.Opt.GridDegree, boundary), req.K)
		if err == nil {
			return ev, tiling, nil
		}
	}
	return nil, nil, &Error{Status: http.StatusUnprocessableEntity, Err: err}
}

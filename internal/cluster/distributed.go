package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
	"unstencil/internal/par"
	"unstencil/internal/server"
)

// assignment is one shard's share of a distributed job: a contiguous patch
// range of the deterministic k-patch tiling. Contiguous ranges correspond
// to coarser cuts of the recursive bisection (patch ids are assigned
// depth-first), so each shard's share is a spatially compact region.
type assignment struct {
	succession []string // [0] is the assignee; the rest is failover order
	patches    []int
}

// splitPatches assigns the k patches of the tiling to n shards as
// contiguous, near-equal ranges. order is the ring succession for the mesh
// key; assignment i goes to order[i] with the remaining shards (in
// succession order) as its failover chain.
func splitPatches(order []string, k int) []assignment {
	n := min(len(order), k)
	out := make([]assignment, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*k/n, (i+1)*k/n
		patches := make([]int, 0, hi-lo)
		for p := lo; p < hi; p++ {
			patches = append(patches, p)
		}
		succ := append(append([]string(nil), order[i:]...), order[:i]...)
		out = append(out, assignment{succession: succ, patches: patches})
	}
	return out
}

// errNoShards means no shard was ready to try at all; like a *ShardError,
// it is shard loss rather than a wrong request.
var errNoShards error = noShards{}

type noShards struct{}

func (noShards) Error() string     { return "no shard available" }
func (noShards) ErrorKind() string { return ErrorKindShardFailure }

// evalDistributed is the coordinator Manager's EvalFunc, one distributed
// per-element job: fan the patch ranges across shards, fail ranges over to
// ring successors when a shard exhausts its retry budget, account honestly
// for anything lost, and merge the surviving partials with
// core.MergePartials — the merge a single process runs, so the result is
// bit-identical to one at full coverage and zero at the uncovered points
// of a degraded run.
func (co *Coordinator) evalDistributed(ctx context.Context, spec server.JobSpec) (*server.Outcome, error) {
	start := time.Now()
	order := co.routable(spec.MeshID)
	if len(order) == 0 {
		return nil, fmt.Errorf("cluster: no ready shard for mesh %s: %w", spec.MeshID, errNoShards)
	}
	k := spec.Blocks
	asn := splitPatches(order, k)

	type rangeResult struct {
		resp  *server.ShardEvalResponse
		shard string
		a     assignment
		err   error
	}
	results := make([]rangeResult, len(asn))
	if err := par.For(len(asn), len(asn), func(_, i int) error {
		resp, shard, err := co.evalRange(ctx, asn[i], spec)
		results[i] = rangeResult{resp: resp, shard: shard, a: asn[i], err: err}
		return nil
	}); err != nil {
		// A range request panicked: re-raised on the job's goroutine, where
		// the pipeline's recovery fails the job as panicked and counts it.
		panic(err)
	}

	var (
		partials      []core.PatchPartial
		failedPatches []int
		shards        []string
		counters      metrics.Counters
		memOverhd     float64
		numPoints     int
		firstErr      error
	)
	for _, r := range results {
		if r.err != nil {
			failedPatches = append(failedPatches, r.a.patches...)
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		for _, p := range r.resp.Failed {
			if !slices.Contains(r.a.patches, p) {
				return nil, fmt.Errorf("cluster: shard %s reported failed patch %d outside its range", r.shard, p)
			}
		}
		partials = append(partials, r.resp.Patches...)
		failedPatches = append(failedPatches, r.resp.Failed...)
		counters.Add(&r.resp.Counters)
		memOverhd = r.resp.MemoryOverhead
		numPoints = r.resp.NumPoints
		if !slices.Contains(shards, r.shard) {
			shards = append(shards, r.shard)
		}
	}
	if len(shards) == 0 {
		// Complete outage is not degradation: there is nothing to merge.
		return nil, fmt.Errorf("cluster: every shard range failed: %w", firstErr)
	}
	sort.Ints(failedPatches)
	if len(failedPatches) > 0 && !spec.AllowPartial {
		if firstErr == nil {
			// All shard requests succeeded but units failed inside a shard
			// despite AllowPartial being off: the shard contract forbids this,
			// so treat it as a shard failure.
			firstErr = fmt.Errorf("shard reported failed patches %v without allow_partial", failedPatches)
		}
		return nil, fmt.Errorf("cluster: %d of %d patches lost and job does not allow partial results: %w",
			len(failedPatches), k, firstErr)
	}

	sol := make([]float64, numPoints)
	out := &server.Outcome{
		Solutions:      [][]float64{sol},
		Total:          counters,
		MemoryOverhead: memOverhd,
		Shards:         shards,
	}
	var uncovered []int32
	if len(failedPatches) > 0 {
		cov, err := co.coverage(spec, failedPatches)
		if err != nil {
			return nil, fmt.Errorf("cluster: coverage of degraded job: %w", err)
		}
		out.Coverage, uncovered = cov, cov.UncoveredIDs
	}
	if err := core.MergePartials(sol, partials, uncovered); err != nil {
		return nil, fmt.Errorf("cluster: merging shard partials: %w", err)
	}
	if out.Coverage != nil {
		co.counters.DegradedJobs.Add(1)
	}
	out.Wall = time.Since(start)
	return out, nil
}

// evalRange runs one patch range on its assignee, failing over along the
// succession through route, unhedged: a range is not worth evaluating twice.
func (co *Coordinator) evalRange(ctx context.Context, a assignment, spec server.JobSpec) (*server.ShardEvalResponse, string, error) {
	req := server.ShardEvalRequest{
		MeshID:       spec.MeshID,
		P:            spec.P,
		GridDegree:   spec.GridDegree,
		Boundary:     spec.Boundary,
		Field:        spec.Field,
		K:            spec.Blocks,
		Patches:      a.patches,
		AllowPartial: spec.AllowPartial,
		TimeoutMS:    spec.TimeoutMS,
	}
	raw, err := json.Marshal(&req)
	if err != nil {
		return nil, "", err
	}
	resp, shard, err := route[server.ShardEvalResponse](ctx, co, a.succession, 0, spec.MeshID, "/v1/shard/eval", raw)
	if err != nil {
		return nil, "", err
	}
	return &resp, shard, nil
}

// coverage derives a degraded job's coverage from the coordinator's own
// copy of the tiling, built from the retained mesh bytes. The tiling is a
// function of the geometry alone, so a zero field stands in for the job's
// (no projection runs) and the result is the one every shard would derive.
func (co *Coordinator) coverage(spec server.JobSpec, failed []int) (*core.Coverage, error) {
	raw, ok := co.retained(spec.MeshID)
	if !ok {
		return nil, fmt.Errorf("mesh %s not retained", spec.MeshID)
	}
	m, err := mesh.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	boundary, err := server.ParseBoundary(spec.Boundary)
	if err != nil {
		return nil, err
	}
	ev, err := core.NewEvaluator(dg.NewField(m, spec.P), core.Options{
		P: spec.P, GridDegree: spec.GridDegree, Boundary: boundary,
	})
	if err != nil {
		return nil, err
	}
	return core.PatchCoverage(ev.NewTiling(spec.Blocks), failed), nil
}

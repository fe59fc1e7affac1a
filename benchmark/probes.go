package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"unstencil/internal/artifact"
	"unstencil/internal/core"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/operator"
	"unstencil/internal/server"
)

// timeMS returns the wall time of fn in milliseconds.
func timeMS(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return msSince(start), err
}

// medianOf runs fn n times and returns the median wall time.
func medianOf(n int, fn func() error) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		var err error
		if times[i], err = timeMS(fn); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// layerProbes measures every layer cold and in isolation, through the
// public functions the server itself calls, on fresh Artifacts of its own.
// They are the same in every workload's traced run — the operator chain on
// the structured mesh, the per-element chain on the unstructured one — so
// each run states every layer's cost, also for the layers its workload
// bypasses.
func layerProbes(cfg runConfig, order []string) (map[string]float64, error) {
	out := map[string]float64{}
	sz := cfg.size
	arts := server.NewArtifacts(server.NewCache(256<<20), 1)
	first := order[0]

	// Operator chain: decode → project → evaluator → assemble → save →
	// load → apply.
	var raw bytes.Buffer
	if err := mesh.Encode(&raw, mesh.Structured(sz.structuredN)); err != nil {
		return nil, err
	}
	var m *mesh.Mesh
	var err error
	if out["mesh.decode_ms"], err = timeMS(func() (err error) {
		m, err = mesh.Decode(bytes.NewReader(raw.Bytes()))
		return err
	}); err != nil {
		return nil, err
	}
	id, err := arts.PutMesh(m)
	if err != nil {
		return nil, err
	}
	if out["dg.project_ms"], err = timeMS(func() error {
		_, _, err := arts.Field(m, id, sz.operatorP, first)
		return err
	}); err != nil {
		return nil, err
	}
	var ev *core.Evaluator
	if out["core.evaluator_ms"], err = timeMS(func() (err error) {
		ev, _, err = arts.Evaluator(m, id, sz.operatorP, 0, core.Periodic, first)
		return err
	}); err != nil {
		return nil, err
	}
	var op *operator.Operator
	if out["core.assemble_ms"], err = timeMS(func() (err error) {
		op, _, err = arts.Operator(ev, id)
		return err
	}); err != nil {
		return nil, err
	}

	storeDir, err := os.MkdirTemp(cfg.tmpDir, "probe-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(storeDir)
	store, err := artifact.NewStore(storeDir, nil)
	if err != nil {
		return nil, err
	}
	key := server.OpKey(id, ev.Opt.P, ev.Opt.GridDegree, ev.Opt.Boundary)
	if out["artifact.save_ms"], err = timeMS(func() error { return store.SaveOperator(key, op) }); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(store.Path(key)); err == nil {
		out["artifact.file_mb"] = float64(fi.Size()) / 1e6
	}
	if out["artifact.load_ms"], err = medianOf(5, func() error {
		_, _, err := store.LoadOperator(key, true)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := store.SaveMesh(m); err != nil {
		return nil, err
	}
	if out["server.boot_ms"], err = medianOf(5, func() error {
		srv, err := server.New(server.Config{Workers: 1, EvalWorkers: 1, StoreDir: storeDir})
		if err != nil {
			return err
		}
		return closeServer(context.Background(), srv)
	}); err != nil {
		return nil, err
	}

	dst := make([]float64, op.Rows)
	if out["operator.apply1_ms"], err = medianOf(20, func() error { return op.ApplyInto(ev.Field, dst) }); err != nil {
		return nil, err
	}
	const nf = 8
	coeffs, outs := make([][]float64, nf), make([][]float64, nf)
	for j := range coeffs {
		f, _, err := arts.Field(m, id, sz.operatorP, order[j%len(order)])
		if err != nil {
			return nil, err
		}
		coeffs[j], outs[j] = f.Coeffs, make([]float64, op.Rows)
	}
	if out["operator.apply8_ms"], err = medianOf(5, func() error { return op.ApplyBlock(coeffs, outs, op.Workers) }); err != nil {
		return nil, err
	}
	apply1s := out["operator.apply1_ms"] / 1e3
	out["operator.nnz"] = float64(op.NNZ())
	out["operator.bytes_mb"] = float64(op.Bytes()) / 1e6
	out["operator.ns_per_nnz"] = ratio(apply1s*1e9, float64(op.NNZ()))
	out["operator.apply1_gbs"] = ratio(float64(op.Bytes())/1e9, apply1s)

	rng := rand.New(rand.NewSource(cfg.seed))
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	batchMS, err := timeMS(func() error {
		_, _, err := ev.EvalBatch(pts, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["core.evalbatch_us_per_pt"] = batchMS * 1e3 / float64(len(pts))

	// Per-element chain: tiling → RunPerElement over every patch, in one
	// process on one worker.
	lv, err := mesh.SizedLowVariance(sz.lvTris, lvMeshSeed)
	if err != nil {
		return nil, err
	}
	lvID, err := arts.PutMesh(lv)
	if err != nil {
		return nil, err
	}
	lev, _, err := arts.Evaluator(lv, lvID, sz.lvP, 0, core.Periodic, first)
	if err != nil {
		return nil, err
	}
	tilingStart := time.Now()
	tiling, _, err := arts.Tiling(lev, server.EvalKey(lvID, sz.lvP, lev.Opt.GridDegree, core.Periodic, first), sz.blocks)
	if err != nil {
		return nil, err
	}
	out["tile.tiling_ms"] = msSince(tilingStart)
	var res *core.Result
	if out["core.per_element_ms"], err = medianOf(3, func() (err error) {
		res, err = lev.RunPerElement(tiling)
		return err
	}); err != nil {
		return nil, err
	}
	out["core.intersection_tests"] = float64(res.Total.IntersectionTests)
	out["core.flops"] = float64(res.Total.Flops)
	out["tile.memory_overhead"] = res.MemoryOverhead
	return out, nil
}

// scrapeCaches reads /debug/metrics on every shard of the live deployment
// and returns the artifact caches' resident bytes (MB) and pooled hit rate.
func (r *runner) scrapeCaches() (residentMB, hitRate float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var hits, lookups float64
	for _, sh := range r.dep.shards {
		raw, err := r.cl.do(ctx, http.MethodGet, sh.url+"/debug/metrics", nil)
		if err != nil {
			return 0, 0, err
		}
		var body struct {
			Cache server.CacheStats `json:"cache"`
		}
		if err := json.Unmarshal(raw, &body); err != nil {
			return 0, 0, fmt.Errorf("decoding /debug/metrics: %w", err)
		}
		residentMB += float64(body.Cache.Bytes) / 1e6
		hits += float64(body.Cache.Hits)
		lookups += float64(body.Cache.Hits + body.Cache.Misses)
	}
	return residentMB, ratio(hits, lookups), nil
}

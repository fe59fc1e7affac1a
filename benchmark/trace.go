package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
	"unstencil/internal/tile"
)

// span is one traced call: what ran, when, which span caused it, and which
// operation it belongs to. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. The benchmark records
// them from its own side of every call into a layer; nothing inside the
// program is instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent, op int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, OpID: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// durationsMS returns the duration of every span called name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// childNames returns the distinct names of the direct children of spans
// called parent, in first-seen order.
func (t *tracer) childNames(parent string) []string {
	isParent := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == parent {
			isParent[s.ID] = true
		}
	}
	var names []string
	seen := map[string]bool{}
	for _, s := range t.spans {
		if isParent[s.Parent] && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	return names
}

// The traced pass measures each operation from outside in three rings.
// Ring 1 is the op through the workload's front door. Ring 2 is the
// identical request sent straight to the shard that served it (for the
// distributed workload: its two patch ranges, sent to their two shards at
// once). Ring 3 replays the request's stages in-process on that shard's own
// Artifacts, through the public functions the job manager calls. A ring's
// self time is its duration minus the ring inside it.
const (
	spanOp      = "op"       // ring 1
	spanShardOp = "shard.op" // ring 2
	spanExec    = "exec"     // ring 3; its direct children are the stages
)

// stage is one timed call of a ring-3 replay.
type stage struct {
	name       string
	start, end time.Time
}

// stages accumulates a replay's stage list.
type stages []stage

// time runs fn as the stage called name.
func (s *stages) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	*s = append(*s, stage{name, start, time.Now()})
	return err
}

// recordJob writes a job's ring: a root span and its phases.
func (t *tracer) recordJob(root string, op int, s *sample) {
	id := t.add(0, op, root, s.start, s.out.fetched)
	if s.out.start.After(s.start) {
		t.add(id, op, root+".boot", s.start, s.out.start)
	}
	t.add(id, op, root+".submit", s.out.start, s.out.submitted)
	t.add(id, op, root+".wait", s.out.submitted, s.out.done)
	t.add(id, op, root+".fetch", s.out.done, s.out.fetched)
}

// tracedPass runs size.tracedOps operations through all three rings,
// alternating, and returns the tracer. Every ring's result is checked by
// the same oracle as the timed phase.
func (r *runner) tracedPass() (*tracer, int, error) {
	tr := newTracer()
	resultBytes := 0
	for k := 0; k < r.cfg.size.tracedOps; k++ {
		i := r.cfg.size.warmup + k

		s, err := r.op(i)
		if err != nil {
			return nil, 0, fmt.Errorf("traced op %d: %w", k, err)
		}
		tr.recordJob(spanOp, k, s)
		resultBytes = len(s.out.body)

		switch {
		case r.w.perElement:
			err = r.tracePatchRanges(tr, k, i, s.out.status.Shards)
		case r.w.restart:
			err = r.traceRestart(tr, k, i)
		default:
			err = r.traceWarm(tr, k, i, s.out.status.Shard)
		}
		r.attempted += 2
		if err != nil {
			r.failed++
			return nil, 0, fmt.Errorf("traced op %d, inner rings: %w\n  last server log lines:\n%s", k, err, r.logs.tail())
		}
	}
	return tr, resultBytes, nil
}

// traceWarm is rings 2 and 3 of a warm operator op: the same job straight
// to its home shard, then its stages on that shard's warm Artifacts.
func (r *runner) traceWarm(tr *tracer, k, i int, home string) error {
	sh, err := r.dep.shardByURL(home)
	if err != nil {
		return err
	}
	o, err := r.cl.runJob(sh.url, r.spec(i))
	if err != nil {
		return err
	}
	if err := r.verify(i, o, false); err != nil {
		return err
	}
	tr.recordJob(spanShardOp, k, &sample{start: o.start, out: o})
	return r.replayOperator(tr, k, i, time.Now(), nil, sh.srv.Artifacts())
}

// traceRestart is rings 2 and 3 of a disk-restart op. There is no
// coordinator, so ring 2 is ring 1 again — a null measurement whose
// difference, cluster.hop_ms, shows the noise floor of the method. Ring 3
// boots a server on the store and replays the cold chain on its Artifacts
// without submitting a job.
func (r *runner) traceRestart(tr *tracer, k, i int) error {
	s, err := r.restartJob(i, false)
	if err != nil {
		return err
	}
	tr.recordJob(spanShardOp, k, s)

	defer r.teardown()
	start := time.Now()
	var boot stages
	if err := boot.time("server.boot", func() (err error) {
		r.dep, err = deploy(r.topology(), r.logs)
		return err
	}); err != nil {
		return err
	}
	return r.replayOperator(tr, k, i, start, boot, r.dep.shards[0].srv.Artifacts())
}

// replayOperator is ring 3 of an operator op: the artifact chain and the
// apply, each a stage, on the given Artifacts. Warm, every lookup hits;
// after a restart the mesh and operator come from the store and the rest
// is rebuilt — the stage names say which.
func (r *runner) replayOperator(tr *tracer, k, i int, start time.Time, st stages, arts *server.Artifacts) error {
	names := r.fields(i)
	var (
		ev     *core.Evaluator
		fields = make([]*dg.Field, len(names))
		outs   = make([][]float64, len(names))
	)
	m, err := r.lookupMesh(&st, arts)
	if err != nil {
		return err
	}
	if err := st.time("dg.field", func() (err error) {
		for j, name := range names {
			if fields[j], _, err = arts.Field(m, r.meshID, r.p, name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.time("core.evaluator", func() (err error) {
		ev, _, err = arts.Evaluator(m, r.meshID, r.p, 0, core.Periodic, names[0])
		return err
	}); err != nil {
		return err
	}
	opStart := time.Now()
	op, src, err := arts.Operator(ev, r.meshID)
	if err != nil {
		return err
	}
	st = append(st, stage{map[string]string{
		server.OpSrcMemory:    "server.operator_cache",
		server.OpSrcDisk:      "artifact.load",
		server.OpSrcAssembled: "core.assemble",
	}[src], opStart, time.Now()})
	if err := st.time("operator.apply", func() error {
		backing := make([]float64, len(names)*op.Rows)
		coeffs := make([][]float64, len(names))
		for j := range outs {
			outs[j] = backing[j*op.Rows : (j+1)*op.Rows]
			coeffs[j] = fields[j].Coeffs
		}
		if len(names) == 1 {
			return op.ApplyInto(fields[0], outs[0])
		}
		return op.ApplyBlock(coeffs, outs, op.Workers)
	}); err != nil {
		return err
	}
	tr.recordStages(k, start, st)
	for j, name := range names {
		if err := r.oracle.check(name, outs[j]); err != nil {
			return fmt.Errorf("in-process replay: %w", err)
		}
	}
	return nil
}

// lookupMesh is the first stage of every replay: resolve the mesh on arts
// (from memory, or after a restart from the store).
func (r *runner) lookupMesh(st *stages, arts *server.Artifacts) (*mesh.Mesh, error) {
	var m *mesh.Mesh
	return m, st.time("server.mesh_lookup", func() error {
		var ok bool
		if m, ok = arts.Mesh(r.meshID); !ok {
			return fmt.Errorf("mesh %s not resolvable on the shard", r.meshID)
		}
		return nil
	})
}

// recordStages writes ring 3: the exec root from start to the last stage's
// end, and the stages as its children.
func (t *tracer) recordStages(op int, start time.Time, st stages) {
	id := t.add(0, op, spanExec, start, st[len(st)-1].end)
	for _, s := range st {
		t.add(id, op, s.name, s.start, s.end)
	}
}

// tracePatchRanges is rings 2 and 3 of a distributed per-element op. The
// coordinator gave shards[j] the j-th contiguous patch range; ring 2 posts
// the two ranges to /v1/shard/eval at once, as the coordinator does, and
// merges the partials in ascending patch order to check them. Ring 3
// evaluates each range on its shard's own Artifacts, again at once. Both
// rings last as long as their slower range.
func (r *runner) tracePatchRanges(tr *tracer, k, i int, shards []string) error {
	blocks := r.cfg.size.blocks
	if len(shards) != r.w.shards {
		return fmt.Errorf("job was evaluated by %d shards, want %d", len(shards), r.w.shards)
	}
	ranges := make([][]int, len(shards))
	for j := range ranges {
		for p := j * blocks / len(shards); p < (j+1)*blocks/len(shards); p++ {
			ranges[j] = append(ranges[j], p)
		}
	}
	field := r.fields(i)[0]

	// Ring 2.
	type evalOut struct {
		resp       server.ShardEvalResponse
		start, end time.Time
		err        error
	}
	evals := make([]evalOut, len(shards))
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for j := range shards {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			e := &evals[j]
			payload, _ := json.Marshal(server.ShardEvalRequest{
				MeshID: r.meshID, P: r.p, Field: field, K: blocks, Patches: ranges[j]})
			e.start = time.Now()
			var raw []byte
			if raw, e.err = r.cl.do(ctx, http.MethodPost, shards[j]+"/v1/shard/eval", payload); e.err == nil {
				e.end = time.Now()
				e.err = json.Unmarshal(raw, &e.resp)
			}
		}(j)
	}
	wg.Wait()
	end := time.Now()
	root := tr.add(0, k, spanShardOp, start, end)
	var merged []float64
	for j := range evals {
		e := &evals[j]
		if e.err != nil {
			return fmt.Errorf("shard eval of range %d: %w", j, e.err)
		}
		tr.add(root, k, "shard.eval", e.start, e.end)
		if merged == nil {
			merged = make([]float64, e.resp.NumPoints)
		}
		for _, pp := range e.resp.Patches { // ranges and patches ascend
			for n, pt := range pp.Points {
				merged[pt] += pp.Values[n]
			}
		}
	}
	if err := r.oracle.check(field, merged); err != nil {
		return fmt.Errorf("direct shard evals: %w", err)
	}

	// Ring 3.
	type branch struct {
		st  stages
		err error
	}
	branches := make([]branch, len(shards))
	start = time.Now()
	for j, url := range shards {
		sh, err := r.dep.shardByURL(url)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(j int, arts *server.Artifacts) {
			defer wg.Done()
			branches[j].st, branches[j].err = r.replayPatches(ctx, arts, field, ranges[j])
		}(j, sh.srv.Artifacts())
	}
	wg.Wait()
	slow := 0
	for j, b := range branches {
		if b.err != nil {
			return fmt.Errorf("in-process replay of range %d: %w", j, b.err)
		}
		if b.st[len(b.st)-1].end.After(branches[slow].st[len(branches[slow].st)-1].end) {
			slow = j
		}
	}
	// The slower range is the op's critical path: its stages are the exec
	// span's children. The other range ran beside it and is kept as a root
	// of its own.
	tr.recordStages(k, start, branches[slow].st)
	for j, b := range branches {
		if j != slow {
			tr.add(0, k, "exec.other_range", start, b.st[len(b.st)-1].end)
		}
	}
	return nil
}

// replayPatches resolves the evaluator and tiling on arts and evaluates the
// given patches, each step a stage.
func (r *runner) replayPatches(ctx context.Context, arts *server.Artifacts, field string, patches []int) (stages, error) {
	var (
		st     stages
		ev     *core.Evaluator
		tiling *tile.Tiling
	)
	m, err := r.lookupMesh(&st, arts)
	if err != nil {
		return nil, err
	}
	if err := st.time("core.evaluator", func() (err error) {
		ev, _, err = arts.Evaluator(m, r.meshID, r.p, 0, core.Periodic, field)
		return err
	}); err != nil {
		return nil, err
	}
	if err := st.time("tile.tiling", func() (err error) {
		key := server.EvalKey(r.meshID, r.p, ev.Opt.GridDegree, core.Periodic, field)
		tiling, _, err = arts.Tiling(ev, key, r.cfg.size.blocks)
		return err
	}); err != nil {
		return nil, err
	}
	return st, st.time("core.eval_patches", func() error {
		_, _, err := ev.EvalPatchesResilientCtx(ctx, tiling, patches, nil)
		return err
	})
}

// ringP50s returns the median duration of each ring's root span, in ms.
func (t *tracer) ringP50s() (r1, r2, r3 float64) {
	return median(t.durationsMS(spanOp)), median(t.durationsMS(spanShardOp)), median(t.durationsMS(spanExec))
}

// ringMetrics turns the spans into the per-layer figures that come from
// ring differences, and the reconciliation of the budget.
func ringMetrics(tr *tracer, perElement bool, resultBytes int, timedP50 float64) map[string]float64 {
	r1, r2, r3 := tr.ringP50s()
	// The job API's own round trips, at the innermost ring that speaks it:
	// the shard, except for the distributed workload, whose shard requests
	// are synchronous evals and whose job API lives at the coordinator.
	api := spanShardOp
	if perElement {
		api = spanOp
	}
	m := map[string]float64{
		"cluster.hop_ms":         r1 - r2,
		"cluster.result_kb":      float64(resultBytes) / 1024,
		"server.shard_op_ms":     r2,
		"server.overhead_ms":     r2 - r3,
		"server.submit_ms":       median(tr.durationsMS(api + ".submit")),
		"server.result_fetch_ms": median(tr.durationsMS(api + ".fetch")),
		"trace.overhead_ratio":   ratio(r1, timedP50),
	}
	// Ring self times plus the stage medians, against the op. The rings are
	// sampled on different (alternated) ops, so this is 1 only if their
	// medians are consistent with each other and the stages' medians add
	// up to the median of their total.
	sum := r1 - r3
	for _, name := range tr.childNames(spanExec) {
		sum += median(tr.durationsMS(name))
	}
	m["trace.reconcile_ratio"] = ratio(sum, r1)
	return m
}

// budgetTable renders where a traced op's time went: the two outer rings'
// self times, then every stage of the replay, each with its share of the op.
func budgetTable(tr *tracer) string {
	r1, r2, r3 := tr.ringP50s()
	out := fmt.Sprintf("    %-28s %9.3f ms  100.0%%\n", "op (ring 1, traced p50)", r1)
	row := func(name string, v float64) {
		out += fmt.Sprintf("    %-28s %9.3f ms  %5.1f%%\n", name, v, 100*ratio(v, r1))
	}
	row("cluster (ring 1 - ring 2)", r1-r2)
	row("server  (ring 2 - ring 3)", r2-r3)
	for _, name := range tr.childNames(spanExec) {
		row("  "+name, median(tr.durationsMS(name)))
	}
	return out
}

// writeTrace stores the spans as JSON.
func writeTrace(dir, workload string, tr *tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(map[string]any{"workload": workload, "spans": tr.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

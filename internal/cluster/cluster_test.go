package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/mesh"
	"unstencil/internal/server"
	"unstencil/internal/tile"
)

// flakyShard wraps a shard handler with a kill switch and a latency knob:
// down aborts the connection (the coordinator sees a transport error, as
// with a dead process), slowMS delays every response (for hedging tests).
// A delayed request whose caller goes away ends early and counts in
// aborted; delayed counts the requests sitting in the delay right now.
// The inner handler is swappable so a "restarted" shard — a fresh stateless
// server.New behind the same URL — can take over the address.
type flakyShard struct {
	mu      sync.Mutex
	handler http.Handler
	down    atomic.Bool
	slowMS  atomic.Int64
	delayed atomic.Int64
	aborted atomic.Int64
}

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if d := f.slowMS.Load(); d > 0 {
		// Read the body first, as a real handler does: net/http only
		// notices a vanished caller once the request body is consumed.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		f.delayed.Add(1)
		select {
		case <-time.After(time.Duration(d) * time.Millisecond):
			f.delayed.Add(-1)
		case <-r.Context().Done():
			f.delayed.Add(-1)
			f.aborted.Add(1)
			return
		}
	}
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (f *flakyShard) swap(h http.Handler) {
	f.mu.Lock()
	f.handler = h
	f.mu.Unlock()
}

func newShard(t *testing.T) (*flakyShard, *httptest.Server) {
	t.Helper()
	srv := newShardServer(t)
	fs := &flakyShard{handler: srv}
	ts := httptest.NewServer(fs)
	t.Cleanup(ts.Close)
	return fs, ts
}

func newShardServer(t *testing.T) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{Workers: 1, EvalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// newCluster builds a coordinator over the given shard URLs. Health is
// probed synchronously in New and afterwards only via CheckNow — tests
// never depend on poll timing.
func newCluster(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = fault.Policy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ts := httptest.NewServer(co)
	t.Cleanup(ts.Close)
	return co, ts
}

func encodeMesh(t *testing.T, m *mesh.Mesh) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mesh.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, url string, req any, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		raw, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(raw, out); err != nil && resp.StatusCode < 300 {
			t.Fatalf("decode %s: %v (%s)", url, err, raw)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		raw, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(raw, out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decode %s: %v (%s)", url, err, raw)
		}
	}
	return resp.StatusCode
}

func uploadMesh(t *testing.T, coURL string, m *mesh.Mesh) string {
	t.Helper()
	resp, err := http.Post(coURL+"/v1/meshes", "application/octet-stream",
		bytes.NewReader(encodeMesh(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mesh upload: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		MeshID       string   `json:"mesh_id"`
		ShardsSeeded []string `json:"shards_seeded"`
		ShardsFailed []string `json:"shards_failed"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.ShardsFailed) != 0 {
		t.Fatalf("mesh fan-out failed on %v", out.ShardsFailed)
	}
	return out.MeshID
}

func waitClusterJob(t *testing.T, coURL, id string, deadline time.Duration) server.JobStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		var v server.JobStatus
		if code := getJSON(t, coURL+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("job %s status code %d", id, code)
		}
		if v.State == server.StateDone || v.State == server.StateFailed {
			return v
		}
		if time.Now().After(end) {
			t.Fatalf("job %s still %s after %v", id, v.State, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// localRef reproduces exactly the artifact recipe the shards use, giving
// the single-process reference a distributed run must match bit for bit.
func localRef(t *testing.T, m *mesh.Mesh, p int, b core.Boundary, k int) (*tile.Tiling, []float64) {
	t.Helper()
	f := dg.Project(m, p, server.FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: p, Boundary: b, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tl := ev.NewTiling(k)
	res, err := ev.RunPerElement(tl)
	if err != nil {
		t.Fatal(err)
	}
	return tl, res.Solution
}

// getResult fetches the body of job id's result from base and requires 200.
func getResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s result: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// decodeSolutions decodes a result body with unknown keys rejected: it is
// the job's solutions, one per field, and nothing else.
func decodeSolutions(t *testing.T, body []byte) [][]float64 {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var res server.JobResult
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result body: %v", err)
	}
	return res.Solutions
}

// getSolution fetches a finished one-field job's solution through base.
func getSolution(t *testing.T, base, id string) []float64 {
	t.Helper()
	sols := decodeSolutions(t, getResult(t, base, id))
	if len(sols) != 1 {
		t.Fatalf("job %s: %d solutions, want 1", id, len(sols))
	}
	return sols[0]
}

// TestClusterBitIdentical: a two-shard distributed per-element run merges
// to exactly — max_diff zero, not small — the single-process solution, for
// P1 and P2 under both boundary treatments.
func TestClusterBitIdentical(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	m := mesh.Structured(12)
	meshID := uploadMesh(t, cts.URL, m)
	const k = 7

	for _, tc := range []struct {
		p        int
		boundary string
		b        core.Boundary
	}{
		{1, "periodic", core.Periodic},
		{2, "periodic", core.Periodic},
		{1, "one-sided", core.OneSided},
		{2, "one-sided", core.OneSided},
	} {
		spec := server.JobSpec{
			MeshID: meshID, Scheme: "per-element", P: tc.p, Blocks: k, Boundary: tc.boundary,
		}
		var v server.JobStatus
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
			t.Fatalf("P%d %s: submit status %d", tc.p, tc.boundary, code)
		}
		if v.Kind != KindDistributed {
			t.Fatalf("per-element job kind %q, want distributed", v.Kind)
		}
		v = waitClusterJob(t, cts.URL, v.ID, 120*time.Second)
		if v.State != server.StateDone {
			t.Fatalf("P%d %s: state %s err %q", tc.p, tc.boundary, v.State, v.Error)
		}
		if v.Degraded {
			t.Fatalf("P%d %s: degraded with both shards up", tc.p, tc.boundary)
		}
		if len(v.Shards) != 2 {
			t.Errorf("P%d %s: %v contributed, want both shards", tc.p, tc.boundary, v.Shards)
		}
		sol := getSolution(t, cts.URL, v.ID)
		_, ref := localRef(t, m, tc.p, tc.b, k)
		if len(sol) != len(ref) {
			t.Fatalf("P%d %s: %d points, want %d", tc.p, tc.boundary, len(sol), len(ref))
		}
		for i := range ref {
			if sol[i] != ref[i] {
				t.Fatalf("P%d %s: point %d: cluster %v != local %v (must be bit-identical)",
					tc.p, tc.boundary, i, sol[i], ref[i])
			}
		}
	}
	snap := co.Counters()
	if snap.JobsDistributed.Load() != 4 {
		t.Errorf("jobs_distributed = %d, want 4", snap.JobsDistributed.Load())
	}
	if snap.MeshFanouts.Load() != 1 {
		t.Errorf("mesh_fanouts = %d, want 1", snap.MeshFanouts.Load())
	}
}

// TestClusterFailoverHealsShardLoss: with failover enabled (the default),
// killing a shard mid-cluster does not degrade results — its patch range
// moves to the ring successor and the merge stays bit-identical and at
// full coverage. The dead shard is marked Down, and a recovered shard is
// routable again after the next health pass.
func TestClusterFailoverHealsShardLoss(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	shards := []string{tsA.URL, tsB.URL}
	co, cts := newCluster(t, Config{Shards: shards})
	m := mesh.Structured(12)
	meshID := uploadMesh(t, cts.URL, m)
	const k = 8

	ring, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	victimURL := ring.Order(meshID)[1]
	victim := fsB
	if victimURL == tsA.URL {
		victim = fsA
	}
	victim.down.Store(true)

	spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: k}
	var v server.JobStatus
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v = waitClusterJob(t, cts.URL, v.ID, 120*time.Second)
	if v.State != server.StateDone {
		t.Fatalf("job with failover: state %s err %q", v.State, v.Error)
	}
	if v.Degraded {
		t.Fatal("failover available but job degraded")
	}
	sol := getSolution(t, cts.URL, v.ID)
	_, ref := localRef(t, m, 1, core.Periodic, k)
	for i := range ref {
		if sol[i] != ref[i] {
			t.Fatalf("point %d: failed-over %v != local %v", i, sol[i], ref[i])
		}
	}
	snap := co.Counters()
	if snap.Failovers.Load() == 0 {
		t.Error("no failover counted though a shard was dead")
	}
	if snap.ShardFailures.Load() == 0 {
		t.Error("no shard failure counted though a shard was dead")
	}
	if st := co.Health().State(victimURL); st != StateDown {
		t.Errorf("dead shard state %s, want down", st)
	}

	// Recovery: the shard comes back, the next health pass restores it, and
	// — the static-ring property — it owns its old keyspace again.
	victim.down.Store(false)
	co.Health().CheckNow()
	if st := co.Health().State(victimURL); st != StateReady {
		t.Errorf("recovered shard state %s, want ready", st)
	}
	if order := co.routable(meshID); len(order) != 2 || order[1] != victimURL {
		t.Errorf("recovered shard did not reclaim its succession slot: %v", order)
	}
}

// TestClusterDegradedShardLoss is the degradation drill: failover disabled
// (FailoverAttempts < 0), one shard killed. An allow_partial job completes
// with coverage < 1 and exactly the uncovered points the deterministic
// tiling predicts for the lost patch range; a job without allow_partial
// fails with the typed shard-failure error; and after the shard restarts
// — stateless, healing through the mesh re-seed protocol — the same job
// recovers bit-identical full coverage.
func TestClusterDegradedShardLoss(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	shards := []string{tsA.URL, tsB.URL}
	co, cts := newCluster(t, Config{
		Shards:           shards,
		FailoverAttempts: -1,
		HealthThreshold:  1,
	})
	m := mesh.Structured(12)
	meshID := uploadMesh(t, cts.URL, m)
	const k = 8

	ring, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	order := ring.Order(meshID)
	victimURL := order[1]
	victim := fsB
	if victimURL == tsA.URL {
		victim = fsA
	}
	lostPatches := splitPatches(order, k)[1].patches
	tl, ref := localRef(t, m, 1, core.Periodic, k)
	wantUncov := tl.UncoveredIDs(lostPatches)

	// Phase 1: shard dead, allow_partial — degraded completion with honest
	// coverage accounting.
	victim.down.Store(true)
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: k, AllowPartial: true}
	var v server.JobStatus
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v = waitClusterJob(t, cts.URL, v.ID, 120*time.Second)
	if v.State != server.StateDone {
		t.Fatalf("allow_partial under shard loss: state %s err %q", v.State, v.Error)
	}
	if !v.Degraded || v.Coverage == nil {
		t.Fatalf("shard dead but job not degraded: %+v", v)
	}
	cov := v.Coverage
	if len(cov.FailedUnits) != len(lostPatches) {
		t.Fatalf("failed units %v, want the lost range %v", cov.FailedUnits, lostPatches)
	}
	for i, p := range cov.FailedUnits {
		if p != lostPatches[i] {
			t.Fatalf("failed units %v, want %v", cov.FailedUnits, lostPatches)
		}
	}
	if cov.CoveredPoints >= cov.TotalPoints {
		t.Fatalf("coverage %d/%d not < 1 with a dead shard", cov.CoveredPoints, cov.TotalPoints)
	}
	if cov.TotalPoints != tl.NumPoints || cov.CoveredPoints != tl.NumPoints-len(wantUncov) {
		t.Fatalf("coverage %d/%d, tiling says %d/%d",
			cov.CoveredPoints, cov.TotalPoints, tl.NumPoints-len(wantUncov), tl.NumPoints)
	}
	if len(v.UncoveredIDs) != len(wantUncov) {
		t.Fatalf("%d uncovered ids, tiling says %d", len(v.UncoveredIDs), len(wantUncov))
	}
	sol := getSolution(t, cts.URL, v.ID)
	uncov := map[int32]bool{}
	for i, pt := range v.UncoveredIDs {
		if pt != wantUncov[i] {
			t.Fatalf("uncovered id %d: %d != %d", i, pt, wantUncov[i])
		}
		uncov[pt] = true
	}
	// Covered points carry full sums (bit-identical); uncovered points are
	// deterministically zeroed, never half-summed.
	for i := range ref {
		if uncov[int32(i)] {
			if sol[i] != 0 {
				t.Fatalf("uncovered point %d carries partial sum %v, want 0", i, sol[i])
			}
		} else if sol[i] != ref[i] {
			t.Fatalf("covered point %d: degraded %v != local %v", i, sol[i], ref[i])
		}
	}
	snap := co.Counters()
	if snap.DegradedJobs.Load() == 0 {
		t.Error("degraded path not counted: degraded_jobs 0")
	}

	// Phase 2: same outage, allow_partial off — typed failure, no result.
	victim.down.Store(false)
	co.Health().CheckNow() // shard briefly back: Ready again
	victim.down.Store(true)
	spec.AllowPartial = false
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v = waitClusterJob(t, cts.URL, v.ID, 120*time.Second)
	if v.State != server.StateFailed {
		t.Fatalf("non-partial job under shard loss: state %s, want failed", v.State)
	}
	if v.ErrorKind != ErrorKindShardFailure {
		t.Fatalf("error kind %q, want %q", v.ErrorKind, ErrorKindShardFailure)
	}
	var fres struct {
		ErrorKind string `json:"error_kind"`
	}
	if code := getJSON(t, cts.URL+"/v1/jobs/"+v.ID+"/result", &fres); code != http.StatusConflict {
		t.Fatalf("failed job result status %d, want 409", code)
	}
	if fres.ErrorKind != ErrorKindShardFailure {
		t.Fatalf("result error kind %q, want %q", fres.ErrorKind, ErrorKindShardFailure)
	}

	// Phase 3: the victim restarts as a fresh stateless process on the same
	// address — no mesh resident. The re-seed protocol heals it on first
	// use and the job recovers bit-identical full coverage.
	victim.swap(newShardServer(t))
	victim.down.Store(false)
	co.Health().CheckNow()
	if st := co.Health().State(victimURL); st != StateReady {
		t.Fatalf("restarted shard state %s, want ready", st)
	}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	v = waitClusterJob(t, cts.URL, v.ID, 120*time.Second)
	if v.State != server.StateDone || v.Degraded {
		t.Fatalf("post-restart job: state %s degraded %v err %q", v.State, v.Degraded, v.Error)
	}
	sol = getSolution(t, cts.URL, v.ID)
	for i := range ref {
		if sol[i] != ref[i] {
			t.Fatalf("post-restart point %d: %v != local %v (must be bit-identical)",
				i, sol[i], ref[i])
		}
	}
	if snap.MeshReseeds.Load() == 0 {
		t.Error("restarted stateless shard served without a mesh re-seed")
	}
	if snap.ShardFailures.Load() == 0 {
		t.Error("no shard failures counted across the drill")
	}
}

// TestClusterDegradedPastIDCap: a degraded distributed job whose lost
// patch uncovers more than MaxUncoveredIDs points is still 0 at every
// uncovered point, not only at the ids a job view lists. The live shard
// answers /v1/shard/eval with synthetic partials (1 per slot) on the real
// slot lists, so the merge and the coverage are exercised without the
// per-element evaluation of 86,528 points.
func TestClusterDegradedPastIDCap(t *testing.T) {
	m := mesh.Structured(16)
	const k, gridDegree = 2, 24
	tilings := map[string]*tile.Tiling{}
	for name, b := range map[string]core.Boundary{"periodic": core.Periodic, "one-sided": core.OneSided} {
		ev, err := core.NewEvaluator(dg.NewField(m, 1), core.Options{P: 1, GridDegree: gridDegree, Boundary: b})
		if err != nil {
			t.Fatal(err)
		}
		tilings[name] = ev.NewTiling(k)
	}
	syntheticShard := func() (*flakyShard, *httptest.Server) {
		srv := newShardServer(t)
		fs := &flakyShard{handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shard/eval" {
				srv.ServeHTTP(w, r)
				return
			}
			var req server.ShardEvalRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("shard eval request: %v", err)
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			tl := tilings[req.Boundary]
			resp := server.ShardEvalResponse{MeshID: req.MeshID, K: req.K, NumPoints: tl.NumPoints}
			for _, p := range req.Patches {
				ones := make([]float64, len(tl.Slots[p]))
				for i := range ones {
					ones[i] = 1
				}
				resp.Patches = append(resp.Patches, core.PatchPartial{Patch: p, Points: tl.Slots[p], Values: ones})
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(&resp)
		})}
		ts := httptest.NewServer(fs)
		t.Cleanup(ts.Close)
		return fs, ts
	}
	fsA, tsA := syntheticShard()
	fsB, tsB := syntheticShard()
	shards := []string{tsA.URL, tsB.URL}
	co, cts := newCluster(t, Config{Shards: shards, FailoverAttempts: -1, HealthThreshold: 1})
	meshID := uploadMesh(t, cts.URL, m)
	order := co.ring.Order(meshID)
	victim := fsB
	if order[1] == tsA.URL {
		victim = fsA
	}
	lost := splitPatches(order, k)[1].patches

	for _, boundary := range []string{"periodic", "one-sided"} {
		want := tilings[boundary].UncoveredIDs(lost)
		if len(want) <= server.MaxUncoveredIDs {
			t.Fatalf("%s: %d uncovered points, the test needs more than %d", boundary, len(want), server.MaxUncoveredIDs)
		}
		victim.down.Store(false)
		co.Health().CheckNow() // a previous loss may have marked it down
		victim.down.Store(true)
		spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, GridDegree: gridDegree,
			Blocks: k, Boundary: boundary, AllowPartial: true}
		var v server.JobStatus
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", boundary, code)
		}
		v = waitClusterJob(t, cts.URL, v.ID, 60*time.Second)
		if v.State != server.StateDone || !v.Degraded {
			t.Fatalf("%s: state %s degraded %v err %q", boundary, v.State, v.Degraded, v.Error)
		}
		if !v.UncoveredTruncated || !slices.Equal(v.UncoveredIDs, want[:server.MaxUncoveredIDs]) {
			t.Errorf("%s status: %d uncovered ids (truncated %v), want the first %d of %d",
				boundary, len(v.UncoveredIDs), v.UncoveredTruncated, server.MaxUncoveredIDs, len(want))
		}
		if got := v.Coverage.TotalPoints - v.Coverage.CoveredPoints; got != len(want) {
			t.Errorf("%s status: total - covered = %d, want %d", boundary, got, len(want))
		}
		sol := getSolution(t, cts.URL, v.ID)
		uncovered := make([]bool, len(sol))
		for _, pt := range want {
			uncovered[pt] = true
		}
		partial := 0
		for i, x := range sol {
			if uncovered[i] && x != 0 {
				partial++
			} else if !uncovered[i] && x != 1 {
				t.Fatalf("%s: covered point %d = %v, want its one partial, 1", boundary, i, x)
			}
		}
		if partial > 0 {
			t.Errorf("%s: %d of %d uncovered points carry partial sums, want 0", boundary, partial, len(want))
		}
	}
}

// mutatedShardJob runs spec on a one-shard cluster whose /v1/shard/eval
// answers pass through mutate first, and returns the finished job.
func mutatedShardJob(t *testing.T, spec server.JobSpec, mutate func(*server.ShardEvalResponse)) server.JobStatus {
	t.Helper()
	srv := newShardServer(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard/eval" {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		var resp server.ShardEvalResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Errorf("shard eval: status %d body %s", rec.Code, rec.Body)
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		mutate(&resp)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	}))
	t.Cleanup(ts.Close)
	_, cts := newCluster(t, Config{Shards: []string{ts.URL}})
	spec.MeshID = uploadMesh(t, cts.URL, mesh.Structured(6))
	var v server.JobStatus
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	return waitClusterJob(t, cts.URL, v.ID, 60*time.Second)
}

// TestClusterRejectsDuplicatedPatch: a shard whose /v1/shard/eval answer
// carries one patch twice would double that patch's contribution if the
// coordinator summed whatever arrived. The merge rejects the repeat, so
// the job fails instead of completing with a wrong solution.
func TestClusterRejectsDuplicatedPatch(t *testing.T) {
	v := mutatedShardJob(t, server.JobSpec{Scheme: "per-element", P: 1, Blocks: 4},
		func(resp *server.ShardEvalResponse) { resp.Patches = append(resp.Patches, resp.Patches[0]) })
	if v.State != server.StateFailed {
		t.Fatalf("job merging a duplicated patch: state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "merged twice") {
		t.Errorf("error %q does not name the repeated patch", v.Error)
	}
}

// TestClusterRejectsForeignFailedPatch: the coordinator derives coverage
// from the failed patches a shard reports, so a reported patch outside the
// shard's assigned range fails the job rather than entering the accounting.
func TestClusterRejectsForeignFailedPatch(t *testing.T) {
	v := mutatedShardJob(t, server.JobSpec{Scheme: "per-element", P: 1, Blocks: 4, AllowPartial: true},
		func(resp *server.ShardEvalResponse) { resp.Failed = []int{resp.K} })
	if v.State != server.StateFailed {
		t.Fatalf("job with a failed patch outside the tiling: state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "outside its range") {
		t.Errorf("error %q does not name the foreign patch", v.Error)
	}
}

// TestClusterQueryRoutingAndHedging: /v1/query routes to the mesh's home
// shard; a slow primary loses the race to a hedged replica; a dead primary
// fails over. All paths return identical values. The dead-primary step
// runs on a second coordinator over the same shards with hedging off: a
// hedge could answer before the primary's first transport failure and
// cancel its retry, so failover must be the only way to an answer.
func TestClusterQueryRoutingAndHedging(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	shards := []string{tsA.URL, tsB.URL}
	co, cts := newCluster(t, Config{Shards: shards, HedgeDelay: 2 * time.Millisecond})
	m := mesh.Structured(8)
	meshID := uploadMesh(t, cts.URL, m)

	query := map[string]any{
		"mesh_id": meshID,
		"scheme":  "per-point",
		"p":       1,
		"points":  [][2]float64{{0.2, 0.3}, {0.5, 0.5}, {0.8, 0.1}},
	}
	var first server.QueryResult
	if code := postJSON(t, cts.URL+"/v1/query", query, &first); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if len(first.Values) != 1 || len(first.Values[0]) != 3 {
		t.Fatalf("%d value arrays, want one of 3 values", len(first.Values))
	}
	// The home shard comes from the ring, not from first.Shard: under load
	// the cold first query can outlast the hedge delay and be answered by
	// the replica.
	owner := co.ring.Order(meshID)[0]

	// Slow primary: the hedge fires and the replica's answer wins.
	slow := fsA
	if owner == tsB.URL {
		slow = fsB
	}
	slow.slowMS.Store(500)
	var hedged server.QueryResult
	if code := postJSON(t, cts.URL+"/v1/query", query, &hedged); code != http.StatusOK {
		t.Fatalf("hedged query status %d", code)
	}
	if hedged.Shard == owner {
		t.Errorf("hedged query answered by the slow primary %s", hedged.Shard)
	}
	for i := range first.Values[0] {
		if hedged.Values[0][i] != first.Values[0][i] {
			t.Fatalf("value %d: hedged %v != primary %v", i, hedged.Values[0][i], first.Values[0][i])
		}
	}
	snap := co.Counters()
	if snap.Hedges.Load() == 0 || snap.HedgeWins.Load() == 0 {
		t.Errorf("hedge not exercised: hedges=%d wins=%d", snap.Hedges.Load(), snap.HedgeWins.Load())
	}

	// Dead primary: transport failure, retry budget burns, failover wins.
	// The unhedged coordinator's first health pass sees both shards ready.
	slow.slowMS.Store(0)
	unhedged, uts := newCluster(t, Config{Shards: shards})
	slow.down.Store(true)
	var failedOver server.QueryResult
	if code := postJSON(t, uts.URL+"/v1/query", query, &failedOver); code != http.StatusOK {
		t.Fatalf("failover query status %d", code)
	}
	if failedOver.Shard == owner {
		t.Errorf("failover query answered by the dead primary")
	}
	for i := range first.Values[0] {
		if failedOver.Values[0][i] != first.Values[0][i] {
			t.Fatalf("value %d: failover %v != primary %v", i, failedOver.Values[0][i], first.Values[0][i])
		}
	}
	fsnap := unhedged.Counters()
	if fsnap.Retries.Load() == 0 {
		t.Error("dead-shard query burned no retries")
	}
	if fsnap.Failovers.Load() < 1 {
		t.Error("dead-shard query did not fail over")
	}
}

// TestClusterQueryFailoverBudget: a query walks the succession under the
// same failover budget as a patch range or a routed job. With failover off
// a dead home shard fails the query as shard loss rather than answering
// from the replica, and the router marks that shard Down.
func TestClusterQueryFailoverBudget(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}, FailoverAttempts: -1})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(6))
	home := co.ring.Order(meshID)[0]
	if home == tsA.URL {
		fsA.down.Store(true)
	} else {
		fsB.down.Store(true)
	}

	query := map[string]any{"mesh_id": meshID, "scheme": "per-point", "p": 1, "points": [][2]float64{{0.2, 0.3}}}
	var body struct {
		ErrorKind string `json:"error_kind"`
	}
	if code := postJSON(t, cts.URL+"/v1/query", query, &body); code != http.StatusBadGateway {
		t.Fatalf("query with its home shard dead and failover off: status %d, want 502", code)
	}
	if body.ErrorKind != ErrorKindShardFailure {
		t.Errorf("error kind %q, want %q", body.ErrorKind, ErrorKindShardFailure)
	}
	if n := co.Counters().Failovers.Load(); n != 0 {
		t.Errorf("failovers = %d with failover off", n)
	}
	if st := co.Health().State(home); st != StateDown {
		t.Errorf("dead home shard state %s after the query, want down", st)
	}
}

// TestClusterReseedsRequestedMesh: a restarted stateless shard that answers
// a query with 404 gets back the one mesh the query names, not every mesh
// the coordinator retains.
func TestClusterReseedsRequestedMesh(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(4))
	uploadMesh(t, cts.URL, mesh.Structured(5))
	uploadMesh(t, cts.URL, mesh.Structured(6))
	if co.ring.Order(meshID)[0] == tsA.URL {
		fsA.swap(newShardServer(t))
	} else {
		fsB.swap(newShardServer(t))
	}

	query := map[string]any{"mesh_id": meshID, "scheme": "per-point", "p": 1, "points": [][2]float64{{0.2, 0.3}}}
	if code := postJSON(t, cts.URL+"/v1/query", query, nil); code != http.StatusOK {
		t.Fatalf("query on the restarted home shard: status %d", code)
	}
	if n := co.Counters().MeshReseeds.Load(); n != 1 {
		t.Errorf("mesh_reseeds = %d, want 1 (the queried mesh only)", n)
	}
}

// TestClusterQueryResultShape: through the coordinator a query answers the
// shard's QueryResult and nothing else, one values array per field, with
// shard set to the shard that answered; the direct and operator
// arrays agree bitwise.
func TestClusterQueryResultShape(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(5))
	pts := [][2]float64{{0.21, 0.34}, {0.5, 0.5}, {0.73, 0.12}}
	names := []string{"sincos", "gauss", "poly"}
	query := func(req server.JobSpec) server.QueryResult {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(cts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", body, resp.StatusCode, raw)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var out server.QueryResult
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("query body: %v (%s)", err, raw)
		}
		if out.Shard != co.ring.Order(meshID)[0] {
			t.Errorf("query answered by %q, want the home shard", out.Shard)
		}
		return out
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(pts) || len(b) != len(pts) {
			t.Fatalf("%s: %d and %d values for %d points", what, len(a), len(b), len(pts))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: point %d: %v vs %v, want bitwise equal", what, i, a[i], b[i])
			}
		}
	}

	direct := query(server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Points: pts})
	viaOp := query(server.JobSpec{MeshID: meshID, Scheme: "operator", P: 1, Points: pts})
	batched := query(server.JobSpec{MeshID: meshID, Scheme: "operator", P: 1, Fields: names, Points: pts})
	if len(direct.Values) != 1 || len(viaOp.Values) != 1 || len(batched.Values) != len(names) {
		t.Fatalf("value arrays: direct %d, operator %d, three-field %d",
			len(direct.Values), len(viaOp.Values), len(batched.Values))
	}
	if !slices.Equal(viaOp.CacheHits, []string{"evaluator"}) {
		t.Errorf("first operator query: cache_hits %v, want [evaluator]", viaOp.CacheHits)
	}
	same("direct vs operator", direct.Values[0], viaOp.Values[0])
	for i, name := range names {
		one := query(server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Field: name, Points: pts})
		same(name+": direct vs batched", one.Values[0], batched.Values[i])
	}
}

// TestClusterValidatesSpecs: the coordinator runs the shard's Validate at
// its front door, so a job with points — routed or distributed — and a
// query without a scheme are 400s naming the key, and neither reaches a
// shard.
func TestClusterValidatesSpecs(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(4))
	pts := [][2]float64{{0.5, 0.5}}
	for _, tc := range []struct {
		path string
		spec server.JobSpec
		msg  string
	}{
		{"/v1/jobs", server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Points: pts}, "/v1/query"},
		{"/v1/jobs", server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Points: pts}, "/v1/query"},
		{"/v1/query", server.JobSpec{MeshID: meshID, P: 1, Points: pts}, "scheme"},
	} {
		var body struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, cts.URL+tc.path, tc.spec, &body); code != http.StatusBadRequest || !strings.Contains(body.Error, tc.msg) {
			t.Errorf("%s %s: status %d error %q, want a 400 naming %s", tc.path, tc.spec.Scheme, code, body.Error, tc.msg)
		}
	}
	if n, m := co.Counters().QueriesRouted.Load(), co.Counters().JobsRouted.Load(); n+m != 0 {
		t.Errorf("invalid specs routed: %d queries, %d jobs", n, m)
	}
}

// TestClusterQueryDeadline: a query that spends its timeout_ms on the
// home shard — here while a cold Structured(16) P2 operator builds — is
// the shard's 504 through the coordinator too, not a 502 shard failure.
func TestClusterQueryDeadline(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(16))
	pts := make([][2]float64, 400)
	for i := range pts {
		pts[i] = [2]float64{(float64(i%20) + 0.5) / 20, (float64(i/20) + 0.5) / 20}
	}
	var body struct {
		Error string `json:"error"`
	}
	spec := server.JobSpec{MeshID: meshID, Scheme: "operator", P: 2, TimeoutMS: 1, Points: pts}
	if code := postJSON(t, cts.URL+"/v1/query", spec, &body); code != http.StatusGatewayTimeout || !strings.Contains(body.Error, "deadline") {
		t.Fatalf("1 ms query on a cold operator: status %d error %q, want a 504 naming the deadline", code, body.Error)
	}
}

// TestClusterRoutedJob: non-per-element jobs run whole on the mesh's home
// shard, with the coordinator rewriting shard-local ids to cluster ids on
// every proxied status.
func TestClusterRoutedJob(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	m := mesh.Structured(8)
	meshID := uploadMesh(t, cts.URL, m)

	spec := server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 4}
	var sub struct {
		ID    string `json:"id"`
		Kind  string `json:"kind"`
		Shard string `json:"shard"`
	}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if sub.Kind != string(KindRouted) || sub.Shard == "" {
		t.Fatalf("routed submission %+v", sub)
	}
	if sub.ID == "" {
		t.Fatal("no cluster job id")
	}
	v := waitClusterJob(t, cts.URL, sub.ID, 120*time.Second)
	if v.State != server.StateDone {
		t.Fatalf("routed job: state %s err %q", v.State, v.Error)
	}
	if v.ID != sub.ID {
		t.Fatalf("status id %q, want the cluster id %q (shard-local id leaked)", v.ID, sub.ID)
	}
	if sol := getSolution(t, cts.URL, sub.ID); len(sol) == 0 {
		t.Fatal("routed result carries no solution")
	}
	if snap := co.Counters(); snap.JobsRouted.Load() != 1 {
		t.Errorf("jobs_routed = %d, want 1", snap.JobsRouted.Load())
	}
}

// TestClusterRoutedResultRelayed: a routed job's result through the
// coordinator is the home shard's body byte for byte, and that body is the
// job's solutions, one per field, and nothing else.
func TestClusterRoutedResultRelayed(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(8))

	for _, spec := range []server.JobSpec{
		{MeshID: meshID, Scheme: "operator", P: 1, Fields: []string{"sincos", "gauss", "poly"}},
		{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 4},
	} {
		var sub server.JobStatus
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", spec.Scheme, code)
		}
		v := waitClusterJob(t, cts.URL, sub.ID, 120*time.Second)
		if v.State != server.StateDone || v.Kind != KindRouted {
			t.Fatalf("%s: state %s kind %q err %q", spec.Scheme, v.State, v.Kind, v.Error)
		}
		i, path, ok := co.routed(v.ID)
		if !ok || v.Shard != co.cfg.Shards[i] {
			t.Fatalf("%s: id %s on shard %s does not resolve to its home", spec.Scheme, v.ID, v.Shard)
		}
		relayed := getResult(t, cts.URL, v.ID)
		direct := getResult(t, v.Shard, strings.TrimPrefix(path, "/v1/jobs/"))
		if !bytes.Equal(relayed, direct) {
			t.Fatalf("%s: the coordinator's %d-byte result differs from the shard's %d bytes", spec.Scheme, len(relayed), len(direct))
		}
		want := max(1, len(spec.Fields))
		if sols := decodeSolutions(t, relayed); len(sols) != want || v.NumFields != want {
			t.Fatalf("%s: %d solutions, num_fields %d, want %d", spec.Scheme, len(sols), v.NumFields, want)
		}
	}
}

// TestCoordinatorReadyzAndMetrics: the coordinator is ready while any
// shard is, and /debug/metrics exposes the routing table with per-shard
// state and primary mesh assignments.
func TestCoordinatorReadyzAndMetrics(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{
		Shards:          []string{tsA.URL, tsB.URL},
		HealthThreshold: 1,
	})
	m := mesh.Structured(8)
	meshID := uploadMesh(t, cts.URL, m)

	var rz struct {
		Ready       bool `json:"ready"`
		ShardsReady int  `json:"shards_ready"`
		ShardsTotal int  `json:"shards_total"`
	}
	if code := getJSON(t, cts.URL+"/readyz", &rz); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if !rz.Ready || rz.ShardsReady != 2 || rz.ShardsTotal != 2 {
		t.Fatalf("readyz %+v", rz)
	}

	// One shard down: still ready (degraded beats refusing traffic).
	fsA.down.Store(true)
	co.Health().CheckNow()
	if code := getJSON(t, cts.URL+"/readyz", &rz); code != http.StatusOK || !rz.Ready {
		t.Fatalf("one shard down: readyz %d ready=%v, want 200/true", code, rz.Ready)
	}

	// Both down: not ready.
	fsB.down.Store(true)
	co.Health().CheckNow()
	if code := getJSON(t, cts.URL+"/readyz", &rz); code != http.StatusServiceUnavailable || rz.Ready {
		t.Fatalf("all shards down: readyz %d ready=%v, want 503/false", code, rz.Ready)
	}

	fsA.down.Store(false)
	fsB.down.Store(false)
	co.Health().CheckNow()
	var mt struct {
		Cluster map[string]any `json:"cluster"`
		Routing map[string]struct {
			State  string   `json:"state"`
			VNodes int      `json:"vnodes"`
			Meshes []string `json:"meshes"`
		} `json:"routing"`
		Meshes int `json:"meshes"`
	}
	if code := getJSON(t, cts.URL+"/debug/metrics", &mt); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if len(mt.Routing) != 2 || mt.Meshes != 1 {
		t.Fatalf("metrics routing %+v meshes %d", mt.Routing, mt.Meshes)
	}
	primaries := 0
	for url, r := range mt.Routing {
		if r.State != "ready" {
			t.Errorf("shard %s state %q after recovery", url, r.State)
		}
		for _, id := range r.Meshes {
			if id != meshID {
				t.Errorf("shard %s routes unknown mesh %s", url, id)
			}
			primaries++
		}
	}
	if primaries != 1 {
		t.Errorf("%d primary assignments for 1 mesh", primaries)
	}
	if _, ok := mt.Cluster["mesh_fanouts"]; !ok {
		t.Error("cluster counters missing from metrics")
	}
}

// TestClusterMultiFieldOperatorJob: a multi-field operator job is
// forwarded whole to the mesh's home shard — the coordinator validates the
// batched field list at its front door and proxies the per-field solutions
// back bit-identically to the equivalent single-field submissions.
func TestClusterMultiFieldOperatorJob(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	m := mesh.Structured(8)
	meshID := uploadMesh(t, cts.URL, m)
	names := []string{"sincos", "gauss"}

	run := func(spec server.JobSpec) [][]float64 {
		var sub struct {
			ID string `json:"id"`
		}
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d", spec, code)
		}
		v := waitClusterJob(t, cts.URL, sub.ID, 120*time.Second)
		if v.State != server.StateDone {
			t.Fatalf("job %s: state %s err %q", sub.ID, v.State, v.Error)
		}
		return decodeSolutions(t, getResult(t, cts.URL, sub.ID))
	}

	single := make(map[string][]float64)
	for _, f := range names {
		sols := run(server.JobSpec{MeshID: meshID, Scheme: "operator", P: 1, Field: f})
		if len(sols) != 1 {
			t.Fatalf("field %s: %d solutions, want 1", f, len(sols))
		}
		single[f] = sols[0]
	}

	sols := run(server.JobSpec{MeshID: meshID, Scheme: "operator", P: 1, Fields: names})
	if len(sols) != len(names) {
		t.Fatalf("%d solutions, want %d", len(sols), len(names))
	}
	for i, f := range names {
		if len(sols[i]) != len(single[f]) {
			t.Fatalf("field %s: %d points, want %d", f, len(sols[i]), len(single[f]))
		}
		for j := range sols[i] {
			if sols[i][j] != single[f][j] {
				t.Fatalf("field %s point %d: routed batch %v != single %v", f, j, sols[i][j], single[f][j])
			}
		}
	}

	// Bad batched field lists die at the coordinator's front door.
	if code := postJSON(t, cts.URL+"/v1/jobs",
		server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Fields: names}, nil); code != http.StatusBadRequest {
		t.Errorf("fields on per-point accepted by the coordinator with status %d", code)
	}
}

// A caller that gives up while the client waits out a backoff gave up on a
// shard that was never asked again: the verdict is the context error with
// no *ShardError, so nothing counts a shard failure, fails over, or marks
// the (healthy) shard down.
func TestClientCancelDuringBackoff(t *testing.T) {
	_, ts := newShard(t)
	co, _ := newCluster(t, Config{
		Shards: []string{ts.URL},
		// The backoff outlasts the test: only the cancel can end it.
		Retry: fault.Policy{Attempts: 3, Base: time.Minute, Max: time.Minute},
	})
	if err := fault.Enable(fault.Config{
		Seed: 1, Mode: fault.ModeError, MaxFaults: 1,
		Sites: map[string]float64{SiteRoute: 1},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		spec := server.JobSpec{MeshID: "absent", P: 1, Blocks: 4}
		_, _, err := co.evalRange(ctx, assignment{succession: []string{ts.URL}, patches: []int{0}}, spec)
		done <- err
	}()
	// Retries is bumped on entry to the backoff, after the injected failure.
	for deadline := time.Now().Add(10 * time.Second); co.counters.Retries.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("client never entered its first backoff")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *ShardError
	if errors.As(err, &se) {
		t.Errorf("cancelled backoff reported as a shard failure: %v", se)
	}
	if n := co.counters.ShardFailures.Load(); n != 0 {
		t.Errorf("ShardFailures = %d, want 0", n)
	}
	if st := co.health.State(ts.URL); st != StateReady {
		t.Errorf("shard state %v after a client-side cancel, want ready", st)
	}
}

// waitUntil polls cond every millisecond until it holds or 30 s pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func deleteJob(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestClusterCancelRoutedJob: DELETE through the coordinator cancels a
// routed job on its shard, which ends it failed with context.Canceled; the
// id the coordinator hands out is not the shard's own.
func TestClusterCancelRoutedJob(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(32))

	var sub server.JobStatus
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 2, Blocks: 8}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if code := deleteJob(t, cts.URL+"/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", code)
	}
	v := waitClusterJob(t, cts.URL, sub.ID, 60*time.Second)
	if v.State != server.StateFailed || !strings.Contains(v.Error, "context canceled") {
		t.Fatalf("cancelled routed job: state %s err %q", v.State, v.Error)
	}

	var list struct {
		Jobs []server.JobStatus `json:"jobs"`
	}
	if code := getJSON(t, sub.Shard+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("shard job list: status %d, %d jobs", code, len(list.Jobs))
	}
	local := list.Jobs[0]
	if local.State != server.StateFailed || !strings.Contains(local.Error, context.Canceled.Error()) {
		t.Fatalf("shard-side job: state %s err %q, want failed with %v", local.State, local.Error, context.Canceled)
	}
	if local.ID == sub.ID {
		t.Fatalf("coordinator handed out the shard-local id %s", local.ID)
	}
	// A second cancel is the shard's 409, relayed.
	if code := deleteJob(t, cts.URL+"/v1/jobs/"+sub.ID); code != http.StatusConflict {
		t.Errorf("cancel of a finished job: status %d, want 409", code)
	}
}

// TestClusterCancelDistributedJob: DELETE on a distributed job cancels its
// context. The in-flight /v1/shard/eval requests are abandoned — each
// shard sees its caller go away — and the job fails with the cancel, not
// as a shard failure.
func TestClusterCancelDistributedJob(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(8))
	const slow = time.Minute
	fsA.slowMS.Store(slow.Milliseconds())
	fsB.slowMS.Store(slow.Milliseconds())

	var sub server.JobStatus
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}
	if code := postJSON(t, cts.URL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitUntil(t, "both patch ranges are in flight", func() bool {
		return fsA.delayed.Load()+fsB.delayed.Load() == 2
	})
	start := time.Now()
	if code := deleteJob(t, cts.URL+"/v1/jobs/"+sub.ID); code != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", code)
	}
	v := waitClusterJob(t, cts.URL, sub.ID, slow/2)
	if v.State != server.StateFailed || !strings.Contains(v.Error, "canceled") {
		t.Fatalf("cancelled distributed job: state %s err %q", v.State, v.Error)
	}
	if v.ErrorKind == ErrorKindShardFailure {
		t.Fatalf("cancel reported as %s: %s", v.ErrorKind, v.Error)
	}
	waitUntil(t, "both shards see their eval requests abandoned", func() bool {
		return fsA.aborted.Load()+fsB.aborted.Load() == 2
	})
	if took := time.Since(start); took >= slow/2 {
		t.Errorf("cancel took %v: the shard requests were waited out, not cancelled", took)
	}
}

// TestCoordinatorRecovery: the coordinator runs behind the same recovery
// middleware as a shard, so a handler panic is a JSON 500 counted in its
// /debug/metrics rather than a dropped connection.
func TestCoordinatorRecovery(t *testing.T) {
	_, ts := newShard(t)
	_, cts := newCluster(t, Config{Shards: []string{ts.URL}})
	if err := fault.Enable(fault.Config{
		Seed: 1, Mode: fault.ModePanic, MaxFaults: 1,
		Sites: map[string]float64{server.SiteHandler: 1},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)

	resp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatalf("handler panic dropped the connection: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !strings.Contains(body.Error, "internal error") {
		t.Fatalf("500 body is not the JSON internal-error envelope: %+v (%v)", body, err)
	}
	var mt struct {
		Faults struct {
			PanicsRecovered uint64 `json:"panics_recovered"`
		} `json:"faults"`
	}
	if code := getJSON(t, cts.URL+"/debug/metrics", &mt); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if mt.Faults.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", mt.Faults.PanicsRecovered)
	}
}

// TestClusterJobIDAfterRestart: after a coordinator restart over the same
// shard list, a routed id still resolves through its shard, and a
// distributed id — whose record died with the old process — answers 404,
// never the status or result of a job submitted since.
func TestClusterJobIDAfterRestart(t *testing.T) {
	_, tsA := newShard(t)
	_, tsB := newShard(t)
	cfg := Config{Shards: []string{tsA.URL, tsB.URL}}
	m := mesh.Structured(8)
	run := func(coURL string, spec server.JobSpec) (server.JobStatus, []byte) {
		t.Helper()
		var sub server.JobStatus
		if code := postJSON(t, coURL+"/v1/jobs", spec, &sub); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", spec.Scheme, code)
		}
		v := waitClusterJob(t, coURL, sub.ID, 120*time.Second)
		if v.State != server.StateDone {
			t.Fatalf("%s job: state %s err %q", spec.Scheme, v.State, v.Error)
		}
		return v, getResult(t, coURL, sub.ID)
	}

	co, cts := newCluster(t, cfg)
	meshID := uploadMesh(t, cts.URL, m)
	distributed := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}
	dist, _ := run(cts.URL, distributed)
	routed, routedRes := run(cts.URL, server.JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 4})
	cts.Close()
	co.Close()

	_, cts = newCluster(t, cfg)
	uploadMesh(t, cts.URL, m)
	if fresh, _ := run(cts.URL, distributed); fresh.ID == dist.ID {
		t.Fatalf("restarted coordinator reissued id %s", dist.ID)
	}
	for _, path := range []string{"/v1/jobs/" + dist.ID, "/v1/jobs/" + dist.ID + "/result"} {
		if code := getJSON(t, cts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s after restart: status %d, want 404", path, code)
		}
	}

	var v server.JobStatus
	if code := getJSON(t, cts.URL+"/v1/jobs/"+routed.ID, &v); code != http.StatusOK {
		t.Fatalf("routed id after restart: status %d", code)
	}
	if v.ID != routed.ID || v.State != server.StateDone {
		t.Fatalf("routed id after restart: %s is %s, want %s done", v.ID, v.State, routed.ID)
	}
	if res := getResult(t, cts.URL, routed.ID); !bytes.Equal(res, routedRes) {
		t.Fatalf("routed result after restart: %d bytes differ from the %d before", len(res), len(routedRes))
	}
}

// TestClusterRangeOutlastsRequestTimeout: a patch range runs under its
// job's deadline, not under RequestTimeout. Ranges slower than the
// request cap finish bit-identical to the local run; a job whose own
// timeout_ms expires first fails with a deadline error that is not shard
// loss, and no shard is marked down for it.
func TestClusterRangeOutlastsRequestTimeout(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}, RequestTimeout: 200 * time.Millisecond})
	m := mesh.Structured(4)
	meshID := uploadMesh(t, cts.URL, m)
	fsA.slowMS.Store(500)
	fsB.slowMS.Store(500)

	run := func(spec server.JobSpec) server.JobStatus {
		t.Helper()
		var v server.JobStatus
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
			t.Fatalf("submit status %d", code)
		}
		return waitClusterJob(t, cts.URL, v.ID, 60*time.Second)
	}
	spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4}
	v := run(spec)
	if v.State != server.StateDone {
		t.Fatalf("job with 500 ms ranges under a 200 ms request cap: state %s err %q", v.State, v.Error)
	}
	sol := getSolution(t, cts.URL, v.ID)
	_, ref := localRef(t, m, 1, core.Periodic, 4)
	if len(sol) != len(ref) {
		t.Fatalf("%d points, want %d", len(sol), len(ref))
	}
	for i := range ref {
		if math.Float64bits(sol[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("point %d: cluster %v != local %v", i, sol[i], ref[i])
		}
	}

	spec.TimeoutMS = 300
	v = run(spec)
	if v.State != server.StateFailed || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("job whose 300 ms timeout expires first: state %s err %q, want a deadline failure", v.State, v.Error)
	}
	if v.ErrorKind != "" {
		t.Errorf("deadline failure reported error_kind %q, want none", v.ErrorKind)
	}
	for _, shard := range []string{tsA.URL, tsB.URL} {
		if st := co.Health().State(shard); st != StateReady {
			t.Errorf("shard %s is %s after the job's own deadline, want ready", shard, st)
		}
	}
}

// panicTransport panics on every request, as a broken RoundTripper would.
type panicTransport struct{}

func (panicTransport) RoundTrip(*http.Request) (*http.Response, error) { panic("probe transport") }

// TestHealthProbePanicWithoutLogger: CheckNow contains a panicking probe
// when the checker has no logger, as the coordinator's Config.Log allows;
// under Start the panic would otherwise end the process.
func TestHealthProbePanicWithoutLogger(t *testing.T) {
	shard := "http://127.0.0.1:1"
	h := NewHealthChecker([]string{shard}, &http.Client{Transport: panicTransport{}}, time.Second, 1, nil)
	h.CheckNow()
	if st := h.State(shard); st != StateUnknown {
		t.Errorf("shard state %s after a panicked probe, want unknown", st)
	}
}

// TestClusterRetryBudget: across two shards, a per-element job whose
// patches always fail costs each patch N attempts on its shard and nothing
// more. The shards report the exhausted patches instead of failing their
// ranges, so the coordinator neither retries nor fails a range over, and
// the strict job fails without a shard-failure kind: no shard was lost.
func TestClusterRetryBudget(t *testing.T) {
	const k = 4
	m := mesh.Structured(4)
	for n := 1; n <= 3; n++ {
		policy := fault.Policy{Attempts: n}
		var shards []string
		for i := 0; i < 2; i++ {
			srv, err := server.New(server.Config{Workers: 1, EvalWorkers: 1, Retry: policy})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			shards = append(shards, ts.URL)
		}
		co, cts := newCluster(t, Config{Shards: shards, Retry: policy, FailoverAttempts: 1})
		meshID := uploadMesh(t, cts.URL, m)
		if err := fault.Enable(fault.Config{Seed: 1, Mode: fault.ModeError, Sites: map[string]float64{core.SiteTile: 1}}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fault.Disable)

		var v server.JobStatus
		spec := server.JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: k}
		if code := postJSON(t, cts.URL+"/v1/jobs", spec, &v); code != http.StatusAccepted {
			t.Fatalf("N=%d: submit status %d", n, code)
		}
		v = waitClusterJob(t, cts.URL, v.ID, 60*time.Second)
		if v.State != server.StateFailed || v.ErrorKind != "" {
			t.Errorf("N=%d: state %s error_kind %q (%s), want failed with no kind", n, v.State, v.ErrorKind, v.Error)
		}
		if got := fault.Stats()[core.SiteTile].Calls; got != uint64(k*n) {
			t.Errorf("N=%d: %s called %d times, want %d", n, core.SiteTile, got, k*n)
		}
		c := co.Counters()
		if r, f := c.Retries.Load(), c.Failovers.Load(); r != 0 || f != 0 {
			t.Errorf("N=%d: coordinator retries %d, failovers %d, want 0 and 0", n, r, f)
		}
		fault.Disable()
	}
}

// TestClusterHungShardFailsOver: a home shard that accepts a query and does
// not answer within RequestTimeout failed, where the caller did not give
// up: its retries spent, the query fails over to the replica, which
// answers, and the hung shard is marked down.
func TestClusterHungShardFailsOver(t *testing.T) {
	fsA, tsA := newShard(t)
	fsB, tsB := newShard(t)
	co, cts := newCluster(t, Config{Shards: []string{tsA.URL, tsB.URL}, RequestTimeout: 200 * time.Millisecond})
	meshID := uploadMesh(t, cts.URL, mesh.Structured(6))
	query := map[string]any{"mesh_id": meshID, "scheme": "per-point", "p": 1, "points": [][2]float64{{0.2, 0.3}}}
	home, hung, replica := co.ring.Order(meshID)[0], fsA, tsB.URL
	if home == tsB.URL {
		hung, replica = fsB, tsA.URL
	}
	// Warm the replica, so its answer is not a cold build racing the cap.
	if code := postJSON(t, replica+"/v1/query", query, nil); code != http.StatusOK {
		t.Fatalf("replica warm-up status %d", code)
	}
	hung.slowMS.Store(2000)

	var out server.QueryResult
	if code := postJSON(t, cts.URL+"/v1/query", query, &out); code != http.StatusOK {
		t.Fatalf("query with a hung home shard: status %d", code)
	}
	if out.Shard != replica {
		t.Errorf("query answered by %s, want the replica %s", out.Shard, replica)
	}
	if n := co.Counters().Failovers.Load(); n < 1 {
		t.Errorf("failovers = %d, want >= 1", n)
	}
	if st := co.Health().State(home); st != StateDown {
		t.Errorf("hung home shard state %s, want down", st)
	}
}

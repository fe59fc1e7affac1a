package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
)

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func putMesh(t *testing.T, srv *Server, m *mesh.Mesh) string {
	t.Helper()
	id, err := srv.arts.PutMesh(m)
	if err != nil {
		t.Fatalf("PutMesh: %v", err)
	}
	return id
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Manager().Shutdown(ctx); err != nil {
			t.Errorf("manager shutdown: %v", err)
		}
	})
	return srv, ts
}

func encodeMesh(t *testing.T, m *mesh.Mesh) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mesh.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func uploadMesh(t *testing.T, ts *httptest.Server, m *mesh.Mesh) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/meshes", "application/json",
		bytes.NewReader(encodeMesh(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("mesh upload: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		MeshID string `json:"mesh_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.MeshID != m.ContentHash() {
		t.Fatalf("mesh id %q != content hash %q", out.MeshID, m.ContentHash())
	}
	return out.MeshID
}

func submitJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getSolutions fetches job id's result from base, requires 200, and
// decodes it with unknown keys rejected: the body is the job's solutions,
// one per field, and nothing else.
func getSolutions(t *testing.T, base, id string) [][]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s result: status %d", id, resp.StatusCode)
	}
	var res JobResult
	if err := decodeStrict(resp.Body, &res); err != nil {
		t.Fatalf("job %s result: %v", id, err)
	}
	return res.Solutions
}

// getSolution is getSolutions for a one-field job.
func getSolution(t *testing.T, base, id string) []float64 {
	t.Helper()
	sols := getSolutions(t, base, id)
	if len(sols) != 1 {
		t.Fatalf("job %s: %d solutions, want 1", id, len(sols))
	}
	return sols[0]
}

func waitJob(t *testing.T, ts *httptest.Server, id string, deadline time.Duration) JobStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job %s status code %d", id, code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(end) {
			t.Fatalf("job %s still %s after %v", id, st.State, deadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance scenario: upload a mesh once, run 8
// concurrent jobs across both schemes, verify every solution matches a
// direct core.Evaluator run, and verify a second identical job is served
// from the warm evaluator cache.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueSize: 32, EvalWorkers: 2})
	m := mesh.Structured(6)
	meshID := uploadMesh(t, ts, m)

	// Direct reference runs, same parameters as the jobs below.
	want := map[string][]float64{}
	f := dg.Project(m, 1, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.PerPoint, core.PerElement} {
		res, err := ev.Run(scheme, 8)
		if err != nil {
			t.Fatal(err)
		}
		want[scheme.String()] = res.Solution
	}

	// Submit 8 jobs concurrently: 4 per scheme.
	ids := make([]string, 0, 8)
	schemes := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		scheme := "per-point"
		if i%2 == 1 {
			scheme = "per-element"
		}
		st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: scheme, P: 1, Blocks: 8})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, code)
		}
		if st.State != StateQueued && st.State != StateRunning {
			t.Fatalf("job %d: initial state %s", i, st.State)
		}
		ids = append(ids, st.ID)
		schemes = append(schemes, scheme)
	}

	for i, id := range ids {
		st := waitJob(t, ts, id, 60*time.Second)
		if st.State != StateDone {
			t.Fatalf("job %s: state %s err %q", id, st.State, st.Error)
		}
		if st.Counters == nil || st.Counters.IntersectionTests == 0 {
			t.Errorf("job %s: missing counters in status", id)
		}
		if st.Spec.Scheme != schemes[i] {
			t.Errorf("job %s: scheme %s, want %s", id, st.Spec.Scheme, schemes[i])
		}
		sol := getSolution(t, ts.URL, id)
		ref := want[schemes[i]]
		if len(sol) != len(ref) {
			t.Fatalf("job %s: %d points, want %d", id, len(sol), len(ref))
		}
		for p := range ref {
			if math.Abs(sol[p]-ref[p]) > 1e-12 {
				t.Fatalf("job %s: solution[%d] = %v, direct run %v", id, p, sol[p], ref[p])
			}
		}
	}

	// A second identical job must find the evaluator (and, per-element,
	// the tiling) already resident.
	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 8})
	if code != http.StatusAccepted {
		t.Fatalf("repeat job: status %d", code)
	}
	st = waitJob(t, ts, st.ID, 60*time.Second)
	if st.State != StateDone {
		t.Fatalf("repeat job failed: %s", st.Error)
	}
	hits := strings.Join(st.CacheHits, ",")
	if !strings.Contains(hits, "evaluator") || !strings.Contains(hits, "tiling") {
		t.Errorf("repeat job cache hits = %q, want evaluator and tiling", hits)
	}

	// Metrics must reflect the session.
	var metrics struct {
		Cache        CacheStats     `json:"cache"`
		CacheHitRate float64        `json:"cache_hit_rate"`
		Workers      int            `json:"workers"`
		Jobs         map[string]int `json:"jobs"`
		Schemes      map[string]struct {
			Runs uint64 `json:"runs"`
		} `json:"schemes"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics code %d", code)
	}
	if metrics.Cache.Hits == 0 || metrics.CacheHitRate <= 0 {
		t.Errorf("no cache hits recorded: %+v", metrics.Cache)
	}
	if metrics.Schemes["per-point"].Runs < 4 || metrics.Schemes["per-element"].Runs < 5 {
		t.Errorf("per-scheme totals wrong: %+v", metrics.Schemes)
	}
	if metrics.Jobs["done"] != 9 {
		t.Errorf("done jobs = %d, want 9", metrics.Jobs["done"])
	}
}

// TestTilingSharedAcrossFields: a tiling is a function of the geometry, so
// a per-element job on a second field of a warm (mesh, P, grid, boundary,
// blocks) reuses the first field's tiling.
func TestTilingSharedAcrossFields(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 2})
	meshID := uploadMesh(t, ts, mesh.Structured(6))
	var hits []string
	for _, field := range []string{"sincos", "gauss"} {
		st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: 4, Field: field})
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", field, code)
		}
		st = waitJob(t, ts, st.ID, 60*time.Second)
		if st.State != StateDone {
			t.Fatalf("%s: state %s err %q", field, st.State, st.Error)
		}
		hits = st.CacheHits
	}
	if !slices.Contains(hits, "tiling") {
		t.Errorf("per-element job on a second field: cache hits %q, want the tiling", hits)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var h struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: code %d status %q", code, h.Status)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(4)
	meshID := uploadMesh(t, ts, m)

	cases := []struct {
		name string
		spec JobSpec
		code int
	}{
		{"unknown mesh", JobSpec{MeshID: "deadbeef", Scheme: "per-point", P: 1}, http.StatusNotFound},
		{"bad scheme", JobSpec{MeshID: meshID, Scheme: "quantum", P: 1}, http.StatusBadRequest},
		{"bad order", JobSpec{MeshID: meshID, Scheme: "per-point", P: 9}, http.StatusBadRequest},
		{"bad boundary", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Boundary: "moebius"}, http.StatusBadRequest},
		{"bad field", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Field: "plasma"}, http.StatusBadRequest},
		{"missing mesh id", JobSpec{Scheme: "per-point", P: 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := submitJob(t, ts, c.spec); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
	}

	// Malformed JSON and unknown fields.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"mesh_id":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/job-99999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/meshes/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown mesh: status %d", code)
	}

	// Bad mesh upload.
	resp, err = http.Post(ts.URL+"/v1/meshes", "application/json", strings.NewReader(`{"format":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mesh: status %d", resp.StatusCode)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1024})
	m := mesh.Structured(12) // well over 1 KiB encoded
	resp, err := http.Post(ts.URL+"/v1/meshes", "application/json",
		bytes.NewReader(encodeMesh(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, EvalWorkers: 1})
	m := mesh.Structured(16)
	meshID := uploadMesh(t, ts, m)

	spec := JobSpec{MeshID: meshID, Scheme: "per-point", P: 2, Blocks: 4}
	saw503 := false
	accepted := []string{}
	for i := 0; i < 20 && !saw503; i++ {
		st, code := submitJob(t, ts, spec)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, st.ID)
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("submit %d: unexpected status %d", i, code)
		}
	}
	if !saw503 {
		t.Error("never observed 503 with a single worker and queue of 1")
	}
	// Cancel leftovers so the cleanup drain is quick.
	for _, id := range accepted {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 1})
	m := mesh.Structured(32)
	meshID := uploadMesh(t, ts, m)

	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-point", P: 2, Blocks: 8})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	final := waitJob(t, ts, st.ID, 60*time.Second)
	if final.State != StateFailed {
		t.Fatalf("cancelled job reached %s", final.State)
	}
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("cancelled job error = %q", final.Error)
	}
	// Result of a failed job is a conflict.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of failed job: status %d", code)
	}
}

func TestJobTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 1})
	m := mesh.Structured(32)
	meshID := uploadMesh(t, ts, m)
	st, code := submitJob(t, ts, JobSpec{
		MeshID: meshID, Scheme: "per-element", P: 2, Blocks: 8, TimeoutMS: 1,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts, st.ID, 60*time.Second)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("timed-out job: state %s err %q", final.State, final.Error)
	}
}

// TestJobTimeoutClampedToServer: a job's timeout_ms may shorten the
// server's job timeout but never extend it.
func TestJobTimeoutClampedToServer(t *testing.T) {
	mgr := NewManager(nil, ManagerConfig{
		Workers:    1,
		JobTimeout: 50 * time.Millisecond,
		Eval: func(ctx context.Context, _ JobSpec) (*Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	start := time.Now()
	job, err := mgr.Submit(JobSpec{MeshID: "m", Scheme: "per-element", P: 1, TimeoutMS: 60000})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(5 * time.Second):
		t.Fatal("job outlived the server's 50 ms job timeout by 5 s")
	}
	st := job.Status()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("job ran %v against a 50 ms job timeout", elapsed)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Fatalf("state %s err %q, want a deadline failure", st.State, st.Error)
	}
}

// TestResultIsSolutions: for every scheme the result body is one solution
// per field and nothing else (unknown keys are rejected), and the status's
// num_fields and num_points describe it.
func TestResultIsSolutions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, EvalWorkers: 2})
	meshID := uploadMesh(t, ts, mesh.Structured(4))
	for _, spec := range []JobSpec{
		{Scheme: "per-point"},
		{Scheme: "per-element"},
		{Scheme: "operator"},
		{Scheme: "operator", Fields: []string{"sincos", "gauss", "poly"}},
	} {
		spec.MeshID, spec.P, spec.Blocks = meshID, 1, 4
		st, code := submitJob(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s %v: submit status %d", spec.Scheme, spec.Fields, code)
		}
		if st = waitJob(t, ts, st.ID, 60*time.Second); st.State != StateDone {
			t.Fatalf("%s %v: state %s err %q", spec.Scheme, spec.Fields, st.State, st.Error)
		}
		sols := getSolutions(t, ts.URL, st.ID)
		want := max(1, len(spec.Fields))
		if len(sols) != want || st.NumFields != want {
			t.Errorf("%s %v: %d solutions, num_fields %d, want %d", spec.Scheme, spec.Fields, len(sols), st.NumFields, want)
		}
		for i, sol := range sols {
			if len(sol) != st.NumPoints || st.NumPoints == 0 {
				t.Errorf("%s %v: solution %d has %d points, num_points %d", spec.Scheme, spec.Fields, i, len(sol), st.NumPoints)
			}
		}
	}
}

// TestRetentionEvictsPastActiveJob: the retention bound holds while the
// oldest record is still running. Terminal records past maxJobs are
// evicted oldest first; the active one keeps its place.
func TestRetentionEvictsPastActiveJob(t *testing.T) {
	release := make(chan struct{})
	mgr := NewManager(nil, ManagerConfig{
		Workers: 2,
		Eval: func(ctx context.Context, spec JobSpec) (*Outcome, error) {
			if spec.Blocks == 1 {
				<-release
			}
			return &Outcome{Solutions: [][]float64{{0}}}, nil
		},
	})
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	mgr.maxJobs = 4
	submit := func(blocks int) *Job {
		t.Helper()
		job, err := mgr.Submit(JobSpec{MeshID: "m", Scheme: "per-point", P: 1, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	long := submit(1)
	for i := 0; i < 20; i++ {
		select {
		case <-submit(2).Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("quick job %d did not finish", i)
		}
	}
	submit(2)

	mgr.mu.Lock()
	n, order := len(mgr.jobs), len(mgr.order)
	mgr.mu.Unlock()
	if n > 4 || order != n {
		t.Fatalf("%d records retained (%d ordered) with maxJobs 4", n, order)
	}
	if _, ok := mgr.Job(long.ID); !ok {
		t.Fatal("the running job's record was evicted")
	}
	if st := long.Status(); st.State == StateDone || st.State == StateFailed {
		t.Fatalf("long job is %s before its release", st.State)
	}
}

// TestGracefulShutdownDrains verifies the acceptance property: shutdown
// lets a running job finish, and no worker goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := mustNew(t, Config{Workers: 2, EvalWorkers: 1})
	m := mesh.Structured(10)
	id := putMesh(t, srv, m)
	job, err := srv.Manager().Submit(JobSpec{MeshID: id, Scheme: "per-element", P: 1, Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := job.Status(); st.State != StateDone {
		t.Fatalf("drained job state %s err %q", st.State, st.Error)
	}

	// Submissions after shutdown are refused.
	if _, err := srv.Manager().Submit(JobSpec{MeshID: id, Scheme: "per-point", P: 1}); err == nil {
		t.Error("submit after shutdown succeeded")
	}

	// All worker goroutines must have exited (allow the runtime a moment
	// plus slack for unrelated test goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShutdownDeadlineCancelsInFlight: when the drain window expires, the
// in-flight evaluation is aborted through its context rather than leaking.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, EvalWorkers: 1})
	m := mesh.Structured(32)
	id := putMesh(t, srv, m)
	job, err := srv.Manager().Submit(JobSpec{MeshID: id, Scheme: "per-point", P: 2, Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err == nil {
		t.Log("job finished inside the drain window; cancellation path not exercised")
		return
	}
	<-job.Done()
	if st := job.Status(); st.State == StateRunning || st.State == StateQueued {
		t.Fatalf("job still %s after forced shutdown", st.State)
	}
}

// TestConcurrentSubmitAndShutdown hammers Submit while Shutdown runs to
// exercise the closing/enqueue race under -race.
func TestConcurrentSubmitAndShutdown(t *testing.T) {
	srv := mustNew(t, Config{Workers: 2, QueueSize: 4, EvalWorkers: 1})
	m := mesh.Structured(4)
	id := putMesh(t, srv, m)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = srv.Manager().Submit(JobSpec{MeshID: id, Scheme: "per-point", P: 1, Blocks: 2})
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Manager().Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
}

func TestJobList(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	m := mesh.Structured(4)
	meshID := uploadMesh(t, ts, m)
	for i := 0; i < 3; i++ {
		if _, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: 2}); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for i := 1; i < len(list.Jobs); i++ {
		if list.Jobs[i-1].ID >= list.Jobs[i].ID {
			t.Errorf("job list not in submission order: %s >= %s", list.Jobs[i-1].ID, list.Jobs[i].ID)
		}
	}
}

// TestJobIDNotReusedAfterRestart: a server without a StateDir forgets its
// jobs on restart. An id a client still holds must then answer 404 — never
// the status or result of a job submitted after the restart.
func TestJobIDNotReusedAfterRestart(t *testing.T) {
	m := mesh.Structured(4)
	spec := JobSpec{Scheme: "per-point", P: 1, Blocks: 2}

	_, before := newTestServer(t, Config{Workers: 1})
	spec.MeshID = uploadMesh(t, before, m)
	old, code := submitJob(t, before, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit before restart: %d", code)
	}
	waitJob(t, before, old.ID, 60*time.Second)
	before.Close()

	_, after := newTestServer(t, Config{Workers: 1})
	uploadMesh(t, after, m)
	fresh, code := submitJob(t, after, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", code)
	}
	waitJob(t, after, fresh.ID, 60*time.Second)
	if fresh.ID == old.ID {
		t.Fatalf("restarted server reissued id %s", old.ID)
	}
	for _, path := range []string{"/v1/jobs/" + old.ID, "/v1/jobs/" + old.ID + "/result"} {
		if code := getJSON(t, after.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s after restart: status %d, want 404", path, code)
		}
	}
}

func TestMeshGetStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(5)
	meshID := uploadMesh(t, ts, m)
	var info struct {
		NumTris     int     `json:"num_tris"`
		LongestEdge float64 `json:"longest_edge"`
	}
	if code := getJSON(t, ts.URL+"/v1/meshes/"+meshID, &info); code != http.StatusOK {
		t.Fatalf("mesh get: %d", code)
	}
	if info.NumTris != m.NumTris() || info.LongestEdge != m.LongestEdge() {
		t.Errorf("mesh stats %+v vs %d/%v", info, m.NumTris(), m.LongestEdge())
	}
}

func TestFieldNamesSorted(t *testing.T) {
	names := FieldNames()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 field kinds, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("FieldNames not sorted: %v", names)
		}
	}
	if _, ok := FieldFuncs["sincos"]; !ok {
		t.Error("default field sincos missing")
	}
}

func ExampleEvalKey() {
	fmt.Println(EvalKey("abc123", 2, 0, core.Periodic, "sincos"))
	// Output: eval:abc123/p2/g0/periodic/sincos
}

// TestOperatorScheme submits "operator" jobs: the first assembles the
// operator, a second job on a *different* field hits the field-independent
// cache entry, and both solutions match their per-point counterparts to
// tight tolerance.
func TestOperatorScheme(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	id := uploadMesh(t, ts, mesh.Structured(6))

	solution := func(spec JobSpec) []float64 {
		st, code := submitJob(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %+v: status %d", spec, code)
		}
		done := waitJob(t, ts, st.ID, 30*time.Second)
		if done.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, done.State, done.Error)
		}
		return getSolution(t, ts.URL, st.ID)
	}
	hitsOf := func(spec JobSpec) []string {
		st, code := submitJob(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		done := waitJob(t, ts, st.ID, 30*time.Second)
		if done.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, done.State, done.Error)
		}
		return done.CacheHits
	}

	for _, field := range []string{"sincos", "gauss"} {
		direct := solution(JobSpec{MeshID: id, Scheme: "per-point", P: 2, Field: field})
		viaOp := solution(JobSpec{MeshID: id, Scheme: "operator", P: 2, Field: field})
		if len(direct) != len(viaOp) {
			t.Fatalf("%s: %d operator points vs %d direct", field, len(viaOp), len(direct))
		}
		for i := range direct {
			if math.Float64bits(direct[i]) != math.Float64bits(viaOp[i]) {
				t.Fatalf("%s: point %d: operator %v vs per-point %v, want bitwise equal",
					field, i, viaOp[i], direct[i])
			}
		}
	}

	// A third field on the warm mesh must be served by the cached,
	// field-independent operator: no geometry re-run.
	hits := hitsOf(JobSpec{MeshID: id, Scheme: "operator", P: 2, Field: "poly"})
	warm := false
	for _, h := range hits {
		if h == "operator" {
			warm = true
		}
	}
	if !warm {
		t.Errorf("operator job on a new field missed the cache: hits=%v", hits)
	}

	// Unknown scheme still rejected.
	if _, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: "assembled", P: 2}); code != http.StatusBadRequest {
		t.Errorf("bad scheme accepted with status %d", code)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unstencil/internal/fault"
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

// enableFaults turns on deterministic fault injection for the test and
// guarantees it is off afterwards (the injector is process-global).
func enableFaults(t *testing.T, cfg fault.Config) {
	t.Helper()
	if err := fault.Enable(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
}

// TestRecoveryMiddleware: a panic inside the handler chain must surface as a
// 500 with the uniform JSON error envelope — never a dropped connection or a
// dead process — and must be counted.
func TestRecoveryMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	enableFaults(t, fault.Config{
		Seed:  1,
		Mode:  fault.ModePanic,
		Sites: map[string]float64{SiteHandler: 1},
	})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("request after handler panic failed at transport level: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %v", err)
	}
	if !strings.Contains(body.Error, "internal error") {
		t.Errorf("error body %q lacks the internal-error marker", body.Error)
	}
	if got := srv.Faults().PanicsRecovered.Load(); got == 0 {
		t.Error("recovered panic not counted")
	}

	// Injected errors (non-panic flavor) take the same recovery path.
	enableFaults(t, fault.Config{
		Seed:  2,
		Mode:  fault.ModeError,
		Sites: map[string]float64{SiteHandler: 1},
	})
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("error-mode status %d, want 500", resp2.StatusCode)
	}

	// With injection off the server must be fully healthy again.
	fault.Disable()
	var h struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("post-recovery healthz: code %d status %q", code, h.Status)
	}
}

// TestSubmissionCaps: resource-shaped parameters beyond the documented caps
// are rejected with 400 at submission time, before any memory is committed.
func TestSubmissionCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	meshID := uploadMesh(t, ts, mesh.Structured(4))

	cases := []struct {
		name string
		spec JobSpec
		code int
	}{
		{"blocks over cap", JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: MaxBlocks + 1}, http.StatusBadRequest},
		{"negative blocks", JobSpec{MeshID: meshID, Scheme: "per-element", P: 1, Blocks: -3}, http.StatusBadRequest},
		{"grid degree over cap", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, GridDegree: MaxGridDegree + 1}, http.StatusBadRequest},
		{"kernel order zero", JobSpec{MeshID: meshID, Scheme: "per-point", P: 0}, http.StatusBadRequest},
		{"negative timeout", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, TimeoutMS: -1}, http.StatusBadRequest},
		{"blocks at cap accepted", JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Blocks: MaxBlocks}, http.StatusAccepted},
	}
	for _, c := range cases {
		if _, code := submitJob(t, ts, c.spec); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
	}
}

// A job whose caller gives up while its artifact stage waits out a backoff
// failed because of the cancel, after the attempts actually made — not
// after the whole budget, and not with the transient error that was being
// retried. Every integrated assembly row fails, so each attempt of the
// operator build fails with an injected, transient error.
func TestJobRetryCancelDuringBackoff(t *testing.T) {
	srv := mustNew(t, Config{
		Workers: 1,
		// The backoff outlasts the test: only the cancel can end it.
		Retry: fault.Policy{Attempts: 3, Base: time.Minute, Max: time.Minute},
	})
	t.Cleanup(func() { shutdownManager(t, srv) })
	meshID := putMesh(t, srv, mesh.Structured(4))
	enableFaults(t, fault.Config{Seed: 1, Mode: fault.ModeError, Sites: map[string]float64{"core.assemble-row": 1}})
	job, err := srv.Manager().Submit(JobSpec{MeshID: meshID, Scheme: "operator", P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Faults().JobRetries.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("artifact stage never entered its first backoff")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Manager().Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job still waiting out its backoff")
	}
	job.mu.Lock()
	err = job.err
	job.mu.Unlock()

	if !errors.Is(err, context.Canceled) || errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want context.Canceled alone", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Attempts != 1 || je.Stage != StageArtifacts {
		t.Fatalf("err = %v, want an artifact-stage *JobError after 1 attempt", err)
	}
}

// withBoomField registers an input field whose projection panics, for the
// duration of the test.
func withBoomField(t *testing.T) {
	t.Helper()
	FieldFuncs["boom"] = func(geom.Point) float64 { panic("boom") }
	t.Cleanup(func() { delete(FieldFuncs, "boom") })
}

// TestArtifactBuildPanicFailsJob: a builder that panics in the artifact
// stage fails its job as panicked, counted once, instead of killing the
// process; the next job on a sound field succeeds.
func TestArtifactBuildPanicFailsJob(t *testing.T) {
	withBoomField(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	meshID := uploadMesh(t, ts, mesh.Structured(4))

	st, code := submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Field: "boom"})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st = waitJob(t, ts, st.ID, 10*time.Second)
	if st.State != StateFailed || !strings.Contains(st.Error, `job panicked in stage "artifacts"`) {
		t.Fatalf("boom job: state %s, error %q; want failed as panicked in the artifact stage", st.State, st.Error)
	}
	if n := srv.Faults().PanicsRecovered.Load(); n != 1 {
		t.Errorf("panics_recovered = %d, want 1", n)
	}

	st, _ = submitJob(t, ts, JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Field: "sincos"})
	if st = waitJob(t, ts, st.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("sincos job after the panic: state %s, error %q", st.State, st.Error)
	}
}

// TestArtifactBuildPanicDoesNotWedgeCache: a build that panicked leaves no
// in-flight entry behind, so a second query on the same key rebuilds (and
// panics again) instead of waiting forever on the first. Each panic answers
// the JSON 500 envelope and is counted once. The queries are served
// in-process under a 5 s timeout: a wedged one must fail the test, not
// hang it in the test server's Close.
func TestArtifactBuildPanicDoesNotWedgeCache(t *testing.T) {
	withBoomField(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	meshID := uploadMesh(t, ts, mesh.Structured(4))
	body, _ := json.Marshal(JobSpec{MeshID: meshID, Scheme: "per-point", P: 1, Field: "boom", Points: [][2]float64{{0.5, 0.5}}})
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("query %d unanswered after 5 s: the cache key is wedged", i)
		}
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("query %d: status %d, want 500", i, rec.Code)
		}
		var envelope errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || !strings.Contains(envelope.Error, "internal error") {
			t.Errorf("query %d: 500 body %s is not the JSON internal-error envelope (%v)", i, rec.Body, err)
		}
		if n := srv.Faults().PanicsRecovered.Load(); n != uint64(i) {
			t.Errorf("after query %d: panics_recovered = %d, want %d", i, n, i)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"unstencil/internal/mesh"
)

// TestReadinessRule: the pure readiness decision — not started means not
// ready, a saturated queue means not ready, otherwise ready.
func TestReadinessRule(t *testing.T) {
	cases := []struct {
		started         bool
		depth, capacity int
		want            bool
	}{
		{false, 0, 64, false},
		{true, 0, 64, true},
		{true, 63, 64, true},
		{true, 64, 64, false},
		{true, 65, 64, false},
	}
	for i, c := range cases {
		got, reason := readiness(c.started, c.depth, c.capacity)
		if got != c.want {
			t.Errorf("case %d: readiness(%v, %d, %d) = %v, want %v",
				i, c.started, c.depth, c.capacity, got, c.want)
		}
		if !got && reason == "" {
			t.Errorf("case %d: not ready without a reason", i)
		}
	}
}

// TestReadyzEndpoint: a freshly started server (journal replay and store
// GC are synchronous in New) answers 200 with queue stats.
func TestReadyzEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	var body struct {
		Ready         bool `json:"ready"`
		Started       bool `json:"started"`
		QueueDepth    int  `json:"queue_depth"`
		QueueCapacity int  `json:"queue_capacity"`
	}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	if !body.Ready || !body.Started || body.QueueCapacity != 4 {
		t.Fatalf("readyz body %+v", body)
	}
}

// TestServiceEWMA: a finished job's wall time folds into the manager's
// service-time average, which starts at 0.
func TestServiceEWMA(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	if srv.mgr.svc.Value() != 0 {
		t.Fatal("service EWMA non-zero before any job")
	}
	id := uploadMesh(t, ts, mesh.Structured(4))
	st, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: "per-element", P: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st = waitJob(t, ts, st.ID, 30*time.Second); st.State != StateDone {
		t.Fatalf("job state %s err %q", st.State, st.Error)
	}
	if srv.mgr.svc.Value() <= 0 {
		t.Fatal("finished job not folded into the service EWMA")
	}
}

// TestRetryAfterDerived: the advertised wait is ceil(svc · ahead / workers),
// clamped to [1, 60], falling back to 1 before any observation.
func TestRetryAfterDerived(t *testing.T) {
	m := &Manager{queue: make(chan *Job, 8), workers: 2}
	if got := m.RetryAfterSeconds(); got != 1 {
		t.Fatalf("no observations: %d, want fallback 1", got)
	}
	m.svc.Observe(3)
	m.queue <- &Job{}
	m.queue <- &Job{}
	// 2 queued, 0 busy, 2 workers: ceil(3 * 2 / 2) = 3.
	if got := m.RetryAfterSeconds(); got != 3 {
		t.Fatalf("derived Retry-After %d, want 3", got)
	}
	m.busy.Add(2)
	// 2 queued + 2 busy over 2 workers: ceil(3 * 4 / 2) = 6.
	if got := m.RetryAfterSeconds(); got != 6 {
		t.Fatalf("derived Retry-After %d, want 6", got)
	}
	m.svc.Observe(600) // EWMA jumps; clamp must cap at 60
	if got := m.RetryAfterSeconds(); got != 60 {
		t.Fatalf("derived Retry-After %d, want clamp 60", got)
	}
}

// TestQueueFullRetryAfterHeader: a queue-full 503 must carry the derived
// Retry-After, not a hardcoded constant. The manager is swapped for one
// with a stuffed queue and no workers, making saturation deterministic.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	m := mesh.Structured(4)
	meshID := uploadMesh(t, ts, m)

	full := &Manager{
		queue:     make(chan *Job, 1),
		workers:   2,
		defBlocks: 16,
		jobs:      map[string]*Job{},
		maxJobs:   16,
	}
	full.queue <- &Job{} // saturate: no workers will ever drain this
	full.svc.Observe(5)
	srv.mgr = full

	spec := JobSpec{MeshID: meshID, Scheme: "per-element", P: 1}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	// 1 queued + 0 busy over 2 workers at 5s each: ceil(5/2) = 3.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want %q (derived, not hardcoded 1)", got, "3")
	}

	// readyz must also report the saturation as not-ready back-pressure.
	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on saturated queue: status %d, want 503", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("saturated readyz missing Retry-After")
	}
}

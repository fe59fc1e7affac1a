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
	"unstencil/internal/geom"
	"unstencil/internal/mesh"
)

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeQuery decodes a query answer with unknown keys rejected: it is a
// QueryResult and nothing else.
func decodeQuery(t *testing.T, data []byte) QueryResult {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out QueryResult
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("query body: %v (%s)", err, data)
	}
	return out
}

// query posts body to ts's /v1/query, requires 200 and decodes the answer.
func query(t *testing.T, ts *httptest.Server, body any) QueryResult {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postQuery(t, ts, string(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: status %d: %s", raw, resp.StatusCode, data)
	}
	return decodeQuery(t, data)
}

// TestQueryMatchesEvalAt checks the endpoint end to end: the returned batch
// values must equal a direct sequential EvalAt sweep on an independently
// built evaluator, bit for bit.
func TestQueryMatchesEvalAt(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(6)
	id := uploadMesh(t, ts, m)

	pts := [][2]float64{{0.3, 0.4}, {0.51, 0.52}, {0.12, 0.87}, {0.66, 0.31}}
	out := query(t, ts, map[string]any{"mesh_id": id, "scheme": "per-point", "p": 1, "points": pts})
	if len(out.Values) != 1 || len(out.Values[0]) != len(pts) {
		t.Fatalf("got %d value arrays for one field at %d points", len(out.Values), len(pts))
	}
	if out.Counters.IntersectionTests == 0 {
		t.Error("query counters not populated")
	}

	f := dg.Project(m, 1, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		want, err := ev.EvalAt(geom.Pt(p[0], p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if out.Values[0][i] != want {
			t.Errorf("point %d: query %v != EvalAt %v", i, out.Values[0][i], want)
		}
	}
}

// TestQueryWarmEvaluator checks that a repeated query lists the evaluator
// in its cache_hits, and that query traffic lands in /debug/metrics totals.
func TestQueryWarmEvaluator(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(4))
	body := map[string]any{"mesh_id": id, "scheme": "per-point", "p": 1, "points": [][2]float64{{0.5, 0.5}}}
	query(t, ts, body)
	if out := query(t, ts, body); !slices.Contains(out.CacheHits, "evaluator") {
		t.Errorf("second query's cache_hits %v miss the warm evaluator", out.CacheHits)
	}

	mresp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metricsOut struct {
		Schemes map[string]json.RawMessage `json:"schemes"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metricsOut); err != nil {
		t.Fatal(err)
	}
	if _, ok := metricsOut.Schemes["batch-query"]; !ok {
		t.Errorf("metrics missing batch-query totals: %v", metricsOut.Schemes)
	}
}

// TestQueryWorkersCappedAtEvalBudget: a query runs on at most the
// server's EvalWorkers goroutines, not one per point, and returns the same
// bits as the same query on an EvalWorkers: 1 server.
func TestQueryWorkersCappedAtEvalBudget(t *testing.T) {
	const budget, n = 2, 4096
	m := mesh.Structured(8)
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{(float64(i%64) + 0.5) / 64, (float64(i/64) + 0.5) / 64}
	}
	values := func(srv *Server) []float64 {
		t.Helper()
		spec := JobSpec{MeshID: putMesh(t, srv, m), Scheme: "per-point", P: 1, Points: pts}
		resp, err := srv.Query(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Values[0]
	}
	want := values(mustNew(t, Config{Workers: 1, EvalWorkers: 1}))
	srv := mustNew(t, Config{Workers: 1, EvalWorkers: budget})

	base := runtime.NumGoroutine()
	peak := base
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak = max(peak, runtime.NumGoroutine())
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	got := values(srv)
	close(done)
	<-sampled
	// The sampler itself, the budget's workers, and slack for the runtime
	// and the server's own goroutines.
	if limit := base + 1 + budget + 16; peak > limit {
		t.Errorf("peak %d goroutines during a %d-point query at EvalWorkers %d (limit %d)", peak, n, budget, limit)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: %v at EvalWorkers %d vs %v at 1", i, got[i], budget, want[i])
		}
	}
}

// TestQueryValidation exercises the rejection paths: 404 for a mesh the
// server does not hold, the coordinator's cue to re-seed it, and 400 for
// bad input, naming the offending key where the case gives one.
func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(4))

	tooMany := make([][]float64, MaxQueryPoints+1)
	for i := range tooMany {
		tooMany[i] = []float64{0.5, 0.5}
	}
	tooManyJSON, _ := json.Marshal(tooMany)

	cases := []struct {
		name, body string
		status     int
		msg        string // a substring the error body must carry
	}{
		{"missing mesh", `{"scheme":"per-point","p":1,"points":[[0.5,0.5]]}`, http.StatusBadRequest, ""},
		{"unknown mesh", `{"mesh_id":"nope","scheme":"per-point","p":1,"points":[[0.5,0.5]]}`, http.StatusNotFound, ""},
		{"bad p", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":9,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, ""},
		{"no points", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"points":[]}`, id), http.StatusBadRequest, ""},
		{"bad field", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"field":"nope","points":[[0.5,0.5]]}`, id), http.StatusBadRequest, ""},
		{"non-finite point", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"points":[[1e999,0.5]]}`, id), http.StatusBadRequest, ""},
		{"one-sided point outside the domain", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"boundary":"one-sided","points":[[0.5,0.5],[5.3,0.4]]}`, id), http.StatusBadRequest, "points[1]"},
		{"one-sided point far outside the domain", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"boundary":"one-sided","points":[[1e9,0.4]]}`, id), http.StatusBadRequest, "points[0]"},
		{"one-sided point on the domain edge", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"boundary":"one-sided","points":[[1,0]]}`, id), http.StatusOK, ""},
		{"periodic point outside the domain", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"points":[[5.3,0.4]]}`, id), http.StatusOK, ""},
		{"unknown key", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"points":[[0.5,0.5]],"nope":1}`, id), http.StatusBadRequest, ""},
		{"grid_degree", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"grid_degree":2,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, "grid_degree"},
		{"blocks", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"blocks":4,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, "blocks"},
		{"per-element", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-element","p":1,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, "scheme"},
		{"missing scheme", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, "scheme"},
		{"too many points", fmt.Sprintf(`{"mesh_id":%q,"scheme":"per-point","p":1,"points":%s}`, id, tooManyJSON), http.StatusBadRequest, ""},
		{"allow_partial", fmt.Sprintf(`{"mesh_id":%q,"scheme":"operator","p":1,"allow_partial":true,"points":[[0.5,0.5]]}`, id), http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postQuery(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.status, bytes.TrimSpace(data))
			}
			if !bytes.Contains(data, []byte(tc.msg)) {
				t.Errorf("error body %s does not name %q", bytes.TrimSpace(data), tc.msg)
			}
		})
	}
}

// TestJobRefusesPoints: points are a query's, not a job's — jobs are
// journaled one line each, and a full batch of points outgrows a line — so
// /v1/jobs answers them with a 400 that names /v1/query.
func TestJobRefusesPoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(4))
	raw, _ := json.Marshal(JobSpec{MeshID: id, Scheme: "per-point", P: 1, Points: [][2]float64{{0.5, 0.5}}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body errorBody
	_ = json.NewDecoder(resp.Body).Decode(&body) // an empty body fails the check
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "/v1/query") {
		t.Fatalf("job with points: status %d error %q, want a 400 naming /v1/query", resp.StatusCode, body.Error)
	}
}

// TestQueryDeadline: a query runs under timeout_ms, capped at the server's
// job timeout, and answers 504 once it expires — here while a cold
// Structured(16) P2 evaluator and operator are still building.
func TestQueryDeadline(t *testing.T) {
	pts := make([][2]float64, 400)
	for i := range pts {
		pts[i] = [2]float64{(float64(i%20) + 0.5) / 20, (float64(i/20) + 0.5) / 20}
	}
	for _, tc := range []struct {
		name      string
		timeoutMS int
		cfg       Config
	}{
		{"timeout_ms 1", 1, Config{Workers: 1}},
		{"capped at the job timeout", 60000, Config{Workers: 1, JobTimeout: time.Millisecond}},
	} {
		_, ts := newTestServer(t, tc.cfg)
		id := uploadMesh(t, ts, mesh.Structured(16))
		raw, _ := json.Marshal(JobSpec{MeshID: id, Scheme: "operator", P: 2, TimeoutMS: tc.timeoutMS, Points: pts})
		resp, data := postQuery(t, ts, string(raw))
		if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(data), "deadline") {
			t.Errorf("%s: status %d body %s, want a 504 naming the deadline", tc.name, resp.StatusCode, bytes.TrimSpace(data))
		}
	}
}

// TestQueryOperatorPath routes the same batch through the operator: the
// first request assembles (no "operator" cache hit), the repeat hits the
// cached operator, and both agree with the direct EvalBatch path bitwise.
func TestQueryOperatorPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(6)
	id := uploadMesh(t, ts, m)

	pts := [][2]float64{{0.3, 0.4}, {0.51, 0.52}, {0.12, 0.87}, {0.66, 0.31}, {0.05, 0.93}}
	want := query(t, ts, map[string]any{"mesh_id": id, "scheme": "per-point", "p": 2, "points": pts}).Values[0]
	viaOp := map[string]any{"mesh_id": id, "scheme": "operator", "p": 2, "points": pts}

	out := query(t, ts, viaOp)
	if slices.Contains(out.CacheHits, "operator") {
		t.Error("first operator query reported a warm operator")
	}
	if len(out.Values) != 1 || len(out.Values[0]) != len(pts) {
		t.Fatalf("got %d value arrays for one field at %d points", len(out.Values), len(pts))
	}
	if out.Counters.Flops == 0 {
		t.Error("operator query counters not populated")
	}
	for i, v := range out.Values[0] {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Errorf("point %d: operator %v vs direct %v, want bitwise equal", i, v, want[i])
		}
	}

	repeat := query(t, ts, viaOp)
	if !slices.Contains(repeat.CacheHits, "operator") {
		t.Error("repeat query did not hit the cached operator")
	}
	for i, v := range repeat.Values[0] {
		if v != out.Values[0][i] {
			t.Errorf("point %d: repeat apply differs from first apply", i)
		}
	}
}

// TestQueryResultShape: a query answers one values array per field, in
// request order, on the direct and the operator path alike, with
// nothing but the QueryResult keys; each direct array equals its
// operator array bitwise, and cache_hits reads in the job vocabulary,
// through a restart onto the same store too.
func TestQueryResultShape(t *testing.T) {
	store := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, StoreDir: store})
	id := uploadMesh(t, ts, mesh.Structured(5))
	pts := [][2]float64{{0.21, 0.34}, {0.5, 0.5}, {0.73, 0.12}, {0.4, 0.81}}
	names := []string{"sincos", "gauss", "poly"}
	direct := func(ts *httptest.Server, field string) QueryResult {
		return query(t, ts, JobSpec{MeshID: id, Scheme: "per-point", P: 1, Field: field, Points: pts})
	}
	viaOp := JobSpec{MeshID: id, Scheme: "operator", P: 1, Points: pts}
	batched := JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: names, Points: pts}

	var got []QueryResult
	for _, tc := range []struct {
		name string
		run  func() QueryResult
		hits []string
	}{
		{"cold direct", func() QueryResult { return direct(ts, "sincos") }, nil},
		{"repeat direct", func() QueryResult { return direct(ts, "sincos") }, []string{"evaluator"}},
		{"first operator", func() QueryResult { return query(t, ts, viaOp) }, []string{"evaluator"}},
		{"repeat operator", func() QueryResult { return query(t, ts, viaOp) }, []string{"evaluator", "operator"}},
		{"three-field operator", func() QueryResult { return query(t, ts, batched) }, []string{"evaluator", "operator"}},
	} {
		out := tc.run()
		if !slices.Equal(out.CacheHits, tc.hits) {
			t.Errorf("%s: cache_hits %v, want %v", tc.name, out.CacheHits, tc.hits)
		}
		if out.Shard != "" || out.WallMS <= 0 {
			t.Errorf("%s: shard %q, wall_ms %v", tc.name, out.Shard, out.WallMS)
		}
		got = append(got, out)
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
	for _, out := range got[:4] {
		if len(out.Values) != 1 {
			t.Fatalf("one-field query answered %d value arrays", len(out.Values))
		}
	}
	same("direct vs operator", got[0].Values[0], got[2].Values[0])
	if len(got[4].Values) != len(names) {
		t.Fatalf("three-field query answered %d value arrays", len(got[4].Values))
	}
	for i, name := range names {
		same(name+": direct vs batched operator", direct(ts, name).Values[0], got[4].Values[i])
	}

	// A fresh server over the same store serves the batch's operator from
	// disk.
	_, restarted := newTestServer(t, Config{Workers: 1, StoreDir: store})
	out := query(t, restarted, viaOp)
	if !slices.Contains(out.CacheHits, "operator-disk") {
		t.Errorf("operator query after a restart: cache_hits %v, want operator-disk", out.CacheHits)
	}
	same("restarted operator", out.Values[0], got[2].Values[0])
}

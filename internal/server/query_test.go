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
	"strings"
	"testing"

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

// TestQueryMatchesEvalAt checks the endpoint end to end: the returned batch
// values must equal a direct sequential EvalAt sweep on an independently
// built evaluator, bit for bit.
func TestQueryMatchesEvalAt(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(6)
	id := uploadMesh(t, ts, m)

	pts := [][2]float64{{0.3, 0.4}, {0.51, 0.52}, {0.12, 0.87}, {0.66, 0.31}}
	body, _ := json.Marshal(map[string]any{
		"mesh_id": id, "p": 1, "points": pts,
	})
	resp, data := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		NumPoints int       `json:"num_points"`
		Values    []float64 `json:"values"`
		Counters  struct {
			IntersectionTests uint64 `json:"intersection_tests"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v (%s)", err, data)
	}
	if out.NumPoints != len(pts) || len(out.Values) != len(pts) {
		t.Fatalf("got %d values for %d points", len(out.Values), len(pts))
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
		if out.Values[i] != want {
			t.Errorf("point %d: query %v != EvalAt %v", i, out.Values[i], want)
		}
	}
}

// TestQueryWarmEvaluator checks that a repeated query reports the evaluator
// served from cache, and that query traffic lands in /debug/metrics totals.
func TestQueryWarmEvaluator(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(4))
	body := fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[[0.5,0.5]]}`, id)

	resp, data := postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second query: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Warm bool `json:"evaluator_warm"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Warm {
		t.Error("second query did not hit the warm evaluator")
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
	query := func(srv *Server) []float64 {
		t.Helper()
		req := &QueryRequest{MeshID: putMesh(t, srv, m), P: 1, Points: pts}
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.(map[string]any)["values"].([]float64)
	}
	want := query(mustNew(t, Config{Workers: 1, EvalWorkers: 1}))
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
	got := query(srv)
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

// TestQueryValidation exercises the rejection paths.
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
		{"missing mesh", `{"p":1,"points":[[0.5,0.5]]}`, http.StatusBadRequest, ""},
		{"unknown mesh", `{"mesh_id":"nope","p":1,"points":[[0.5,0.5]]}`, http.StatusNotFound, ""},
		{"bad p", fmt.Sprintf(`{"mesh_id":%q,"p":9,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, ""},
		{"no points", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[]}`, id), http.StatusBadRequest, ""},
		{"bad field", fmt.Sprintf(`{"mesh_id":%q,"p":1,"field":"nope","points":[[0.5,0.5]]}`, id), http.StatusBadRequest, ""},
		{"non-finite point", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[[1e999,0.5]]}`, id), http.StatusBadRequest, ""},
		{"one-sided point outside the domain", fmt.Sprintf(`{"mesh_id":%q,"p":1,"boundary":"one-sided","points":[[0.5,0.5],[5.3,0.4]]}`, id), http.StatusBadRequest, "points[1]"},
		{"one-sided point far outside the domain", fmt.Sprintf(`{"mesh_id":%q,"p":1,"boundary":"one-sided","points":[[1e9,0.4]]}`, id), http.StatusBadRequest, "points[0]"},
		{"one-sided point on the domain edge", fmt.Sprintf(`{"mesh_id":%q,"p":1,"boundary":"one-sided","points":[[1,0]]}`, id), http.StatusOK, ""},
		{"periodic point outside the domain", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[[5.3,0.4]]}`, id), http.StatusOK, ""},
		{"unknown key", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":[[0.5,0.5]],"nope":1}`, id), http.StatusBadRequest, ""},
		{"grid_degree", fmt.Sprintf(`{"mesh_id":%q,"p":1,"grid_degree":2,"points":[[0.5,0.5]]}`, id), http.StatusBadRequest, "grid_degree"},
		{"too many points", fmt.Sprintf(`{"mesh_id":%q,"p":1,"points":%s}`, id, tooManyJSON), http.StatusBadRequest, ""},
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

// TestQueryOperatorPath routes the same batch through use_operator: the
// first request assembles (operator_warm false), the repeat hits the cached
// operator, and both agree with the direct EvalBatch path bitwise.
func TestQueryOperatorPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(6)
	id := uploadMesh(t, ts, m)

	pts := [][2]float64{{0.3, 0.4}, {0.51, 0.52}, {0.12, 0.87}, {0.66, 0.31}, {0.05, 0.93}}
	direct, _ := json.Marshal(map[string]any{"mesh_id": id, "p": 2, "points": pts})
	viaOp, _ := json.Marshal(map[string]any{"mesh_id": id, "p": 2, "points": pts, "use_operator": true})

	resp, data := postQuery(t, ts, string(direct))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct query: status %d: %s", resp.StatusCode, data)
	}
	var want struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	var out struct {
		Values       []float64 `json:"values"`
		OperatorWarm bool      `json:"operator_warm"`
		Counters     struct {
			Flops uint64 `json:"flops"`
		} `json:"counters"`
	}
	resp, data = postQuery(t, ts, string(viaOp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("operator query: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.OperatorWarm {
		t.Error("first operator query reported a warm operator")
	}
	if len(out.Values) != len(pts) {
		t.Fatalf("got %d values for %d points", len(out.Values), len(pts))
	}
	if out.Counters.Flops == 0 {
		t.Error("operator query counters not populated")
	}
	for i := range out.Values {
		if math.Float64bits(out.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Errorf("point %d: operator %v vs direct %v, want bitwise equal", i, out.Values[i], want.Values[i])
		}
	}

	resp, data = postQuery(t, ts, string(viaOp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat operator query: status %d: %s", resp.StatusCode, data)
	}
	repeat := out
	repeat.OperatorWarm = false
	if err := json.Unmarshal(data, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.OperatorWarm {
		t.Error("repeat query did not hit the cached operator")
	}
	for i := range repeat.Values {
		if repeat.Values[i] != out.Values[i] {
			t.Errorf("point %d: repeat apply differs from first apply", i)
		}
	}
}

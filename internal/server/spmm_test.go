package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"unstencil/internal/mesh"
)

// postJSON posts v as JSON and decodes the response into out (when non-nil
// and the request succeeded), returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// jobSolution submits spec, waits for completion, and returns the result
// body.
func jobSolution(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, struct {
	Solution  []float64   `json:"solution"`
	Solutions [][]float64 `json:"solutions"`
	Fields    []string    `json:"fields"`
}) {
	t.Helper()
	st, code := submitJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit %+v: status %d", spec, code)
	}
	done := waitJob(t, ts, st.ID, 60*time.Second)
	if done.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, done.State, done.Error)
	}
	var out struct {
		Solution  []float64   `json:"solution"`
		Solutions [][]float64 `json:"solutions"`
		Fields    []string    `json:"fields"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &out); code != http.StatusOK {
		t.Fatalf("result %s: status %d", st.ID, code)
	}
	return done, out
}

// A multi-field operator job must return one solution per field, each
// bit-identical to the corresponding single-field operator job: the SpMM
// batching is a pure amortisation, never a numerical change. (Go's JSON
// encoding of float64 is shortest-round-trip, so bitwise comparison
// survives the wire.)
func TestMultiFieldOperatorJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	// Power-of-two resolution: h = 1/8 is dyadic, so element translations
	// are bitwise exact and the assembled rows are translation-congruent.
	id := uploadMesh(t, ts, mesh.Structured(8))
	names := []string{"sincos", "gauss", "poly"}

	single := make(map[string][]float64)
	for _, f := range names {
		_, out := jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Field: f})
		single[f] = out.Solution
	}

	done, out := jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: names})
	if done.NumFields != len(names) {
		t.Errorf("num_fields = %d, want %d", done.NumFields, len(names))
	}
	if len(out.Solutions) != len(names) || len(out.Fields) != len(names) {
		t.Fatalf("result has %d solutions / %d fields, want %d", len(out.Solutions), len(out.Fields), len(names))
	}
	for i, f := range names {
		want := single[f]
		got := out.Solutions[i]
		if len(got) != len(want) {
			t.Fatalf("field %s: %d points, want %d", f, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("field %s point %d: batched %v != single %v", f, j, got[j], want[j])
			}
		}
	}
	// "solution" stays the first field for single-field clients.
	for j := range out.Solution {
		if math.Float64bits(out.Solution[j]) != math.Float64bits(out.Solutions[0][j]) {
			t.Fatalf("solution[%d] does not alias solutions[0]", j)
		}
	}

	// The apply and assembly counters observed the traffic. The structured
	// mesh assembles translation-congruent stencil rows, so assembly must
	// have stamped them.
	ops := srv.Artifacts().Ops()
	if ops.BlockApplies.Load() == 0 || ops.SingleApplies.Load() < uint64(len(names)) {
		t.Errorf("apply counters missed the traffic: block %d single %d",
			ops.BlockApplies.Load(), ops.SingleApplies.Load())
	}
	if ops.RowsTotal.Load() == 0 || ops.RowsStamped.Load() == 0 {
		t.Errorf("structured-mesh operator stamped no rows: total %d stamped %d",
			ops.RowsTotal.Load(), ops.RowsStamped.Load())
	}
}

// Fields is operator-scheme only.
func TestMultiFieldValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(4))
	if _, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: "per-point", P: 1, Fields: []string{"sincos"}}); code != http.StatusBadRequest {
		t.Errorf("fields on per-point accepted with status %d", code)
	}
	if _, code := submitJob(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: []string{"nope"}}); code != http.StatusBadRequest {
		t.Errorf("unknown batched field accepted with status %d", code)
	}
}

// On a perturbed (jittered) mesh rows are not translation-congruent; the
// operator path must fall back to integrating every row transparently —
// same results, nothing stamped — rather than fail or compress lossily.
func TestOperatorTemplateFallbackJittered(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := uploadMesh(t, ts, mesh.JitteredStructured(6, 0.25, 7))

	_, direct := jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "per-point", P: 1, Field: "gauss"})
	_, viaOp := jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Field: "gauss"})
	if len(direct.Solution) != len(viaOp.Solution) {
		t.Fatalf("%d operator points vs %d direct", len(viaOp.Solution), len(direct.Solution))
	}
	for i := range direct.Solution {
		if math.Float64bits(direct.Solution[i]) != math.Float64bits(viaOp.Solution[i]) {
			t.Fatalf("point %d: operator %v vs per-point %v, want bitwise equal",
				i, viaOp.Solution[i], direct.Solution[i])
		}
	}
	if srv.Artifacts().Ops().RowsTotal.Load() == 0 {
		t.Error("operator admission not recorded")
	}
}

// Multi-field queries batch through one operator apply and answer each
// field bit-identically to the equivalent single-field query.
func TestMultiFieldQuery(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(6))
	pts := [][2]float64{{0.21, 0.34}, {0.5, 0.5}, {0.73, 0.12}, {0.4, 0.81}}
	names := []string{"sincos", "poly"}

	single := make(map[string][]float64)
	for _, f := range names {
		var resp struct {
			Values []float64 `json:"values"`
		}
		code := postJSON(t, ts.URL+"/v1/query", QueryRequest{
			MeshID: id, P: 2, Field: f, Points: pts, UseOperator: true,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("single-field query %s: status %d", f, code)
		}
		single[f] = resp.Values
	}

	var resp struct {
		Values    [][]float64 `json:"values"`
		Fields    []string    `json:"fields"`
		NumPoints int         `json:"num_points"`
	}
	code := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		MeshID: id, P: 2, Fields: names, Points: pts, UseOperator: true,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("multi-field query: status %d", code)
	}
	if len(resp.Values) != len(names) || resp.NumPoints != len(pts) {
		t.Fatalf("multi-field query shape: %d value arrays, %d points", len(resp.Values), resp.NumPoints)
	}
	for i, f := range names {
		for j := range pts {
			if math.Float64bits(resp.Values[i][j]) != math.Float64bits(single[f][j]) {
				t.Fatalf("field %s point %d: batched %v != single %v", f, j, resp.Values[i][j], single[f][j])
			}
		}
	}

	// fields without use_operator is a client error.
	if code := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		MeshID: id, P: 2, Fields: names, Points: pts,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("fields without use_operator accepted with status %d", code)
	}

	if srv.Artifacts().Ops().BlockApplies.Load() == 0 {
		t.Error("query batching not counted")
	}
}

// /debug/metrics carries the operator section.
func TestMetricsOperatorSection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(5))
	jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: []string{"sincos", "gauss"}})

	var body struct {
		Operator struct {
			BlockApplies  uint64 `json:"block_applies"`
			FieldsApplied uint64 `json:"fields_applied"`
			RowsTotal     uint64 `json:"rows_total"`
			RowsAssembled uint64 `json:"rows_assembled"`
		} `json:"operator"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	op := body.Operator
	if op.BlockApplies == 0 || op.FieldsApplied < 2 || op.RowsTotal == 0 {
		t.Errorf("operator metrics section %+v missed the traffic", op)
	}
	if op.RowsAssembled == 0 {
		t.Errorf("assembly outcome not recorded: %+v", op)
	}
}

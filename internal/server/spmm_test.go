package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
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

// jobSolutions submits spec, waits for completion, and returns its status
// and solutions.
func jobSolutions(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, [][]float64) {
	t.Helper()
	st, code := submitJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit %+v: status %d", spec, code)
	}
	done := waitJob(t, ts, st.ID, 60*time.Second)
	if done.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, done.State, done.Error)
	}
	return done, getSolutions(t, ts.URL, st.ID)
}

// A multi-field operator job must return one solution per field, each
// bit-identical to the corresponding single-field operator job: the SpMM
// batching is a pure amortisation, never a numerical change. (Go's JSON
// encoding of float64 is shortest-round-trip, so bitwise comparison
// survives the wire.) P1 with three fields is a narrow tile, three SpMVs;
// P2 with eight names, repeated as the request benchmark repeats them, is
// one full tile through the width-6 SpMM.
func TestMultiFieldOperatorJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	// Power-of-two resolution: h = 1/8 is dyadic, so element translations
	// are bitwise exact and the assembled rows are translation-congruent.
	id := uploadMesh(t, ts, mesh.Structured(8))
	three := []string{"sincos", "gauss", "poly"}
	for _, c := range []struct {
		p     int
		names []string
	}{
		{1, three},
		{2, []string{"sincos", "gauss", "poly", "sincos", "gauss", "poly", "sincos", "gauss"}},
	} {
		single := make(map[string][]float64)
		for _, f := range three {
			_, sols := jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: c.p, Field: f})
			single[f] = sols[0]
		}

		done, sols := jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: c.p, Fields: c.names})
		if done.NumFields != len(c.names) || !slices.Equal(done.Spec.Fields, c.names) {
			t.Errorf("P%d: num_fields = %d, fields %v, want %d: %v", c.p, done.NumFields, done.Spec.Fields, len(c.names), c.names)
		}
		if len(sols) != len(c.names) {
			t.Fatalf("P%d: result has %d solutions, want %d", c.p, len(sols), len(c.names))
		}
		for i, f := range c.names {
			want := single[f]
			got := sols[i]
			if len(got) != len(want) {
				t.Fatalf("P%d field %d (%s): %d points, want %d", c.p, i, f, len(got), len(want))
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("P%d field %d (%s) point %d: batched %v != single %v", c.p, i, f, j, got[j], want[j])
				}
			}
		}
	}
	// The apply and assembly counters observed the traffic. The structured
	// mesh assembles translation-congruent stencil rows, so assembly must
	// have stamped them.
	ops := srv.Artifacts().Ops()
	if ops.BlockApplies.Load() == 0 || ops.SingleApplies.Load() < 2*uint64(len(three)) {
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

	_, directSols := jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "per-point", P: 1, Field: "gauss"})
	_, viaOpSols := jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Field: "gauss"})
	direct, viaOp := directSols[0], viaOpSols[0]
	if len(direct) != len(viaOp) {
		t.Fatalf("%d operator points vs %d direct", len(viaOp), len(direct))
	}
	for i := range direct {
		if math.Float64bits(direct[i]) != math.Float64bits(viaOp[i]) {
			t.Fatalf("point %d: operator %v vs per-point %v, want bitwise equal",
				i, viaOp[i], direct[i])
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
		var resp QueryResult
		code := postJSON(t, ts.URL+"/v1/query", JobSpec{
			MeshID: id, Scheme: "operator", P: 2, Field: f, Points: pts,
		}, &resp)
		if code != http.StatusOK || len(resp.Values) != 1 {
			t.Fatalf("single-field query %s: status %d, %d value arrays", f, code, len(resp.Values))
		}
		single[f] = resp.Values[0]
	}

	var resp QueryResult
	code := postJSON(t, ts.URL+"/v1/query", JobSpec{
		MeshID: id, Scheme: "operator", P: 2, Fields: names, Points: pts,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("multi-field query: status %d", code)
	}
	if len(resp.Values) != len(names) {
		t.Fatalf("multi-field query answered %d value arrays for %d fields", len(resp.Values), len(names))
	}
	for i, f := range names {
		if len(resp.Values[i]) != len(pts) {
			t.Fatalf("field %s: %d values for %d points", f, len(resp.Values[i]), len(pts))
		}
		for j := range pts {
			if math.Float64bits(resp.Values[i][j]) != math.Float64bits(single[f][j]) {
				t.Fatalf("field %s point %d: batched %v != single %v", f, j, resp.Values[i][j], single[f][j])
			}
		}
	}

	// fields off the operator scheme is a client error.
	if code := postJSON(t, ts.URL+"/v1/query", JobSpec{
		MeshID: id, Scheme: "per-point", P: 2, Fields: names, Points: pts,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("fields on the per-point scheme accepted with status %d", code)
	}

	if srv.Artifacts().Ops().BlockApplies.Load() == 0 {
		t.Error("query batching not counted")
	}
}

// /debug/metrics carries the operator section.
func TestMetricsOperatorSection(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := uploadMesh(t, ts, mesh.Structured(5))
	jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: []string{"sincos", "gauss"}})

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

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/fault"
	"unstencil/internal/mesh"
)

func postShard(t *testing.T, ts *httptest.Server, path string, req, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestShardEvalBitIdentical drives the shard endpoints the way the
// coordinator does: two disjoint patch-range requests, merged by
// core.MergePartials, must reproduce a local per-element run bit for bit.
func TestShardEvalBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, EvalWorkers: 2})
	m := mesh.Structured(6)
	meshID := uploadMesh(t, ts, m)
	const k = 7

	f := dg.Project(m, 1, FieldFuncs["sincos"], 4)
	ev, err := core.NewEvaluator(f, core.Options{P: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ev.RunPerElement(ev.NewTiling(k))
	if err != nil {
		t.Fatal(err)
	}

	var partials []core.PatchPartial
	for _, patches := range [][]int{{0, 1, 2}, {3, 4, 5, 6}} {
		var resp ShardEvalResponse
		code := postShard(t, ts, "/v1/shard/eval", ShardEvalRequest{
			MeshID: meshID, P: 1, K: k, Patches: patches,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("shard eval %v: status %d", patches, code)
		}
		if resp.NumPoints != len(ref.Solution) {
			t.Fatalf("num_points %d, want %d", resp.NumPoints, len(ref.Solution))
		}
		if len(resp.Patches) != len(patches) || len(resp.Failed) != 0 {
			t.Fatalf("got %d partials, %d failed; want %d, 0",
				len(resp.Patches), len(resp.Failed), len(patches))
		}
		if resp.Counters.IntersectionTests == 0 {
			t.Error("missing counters")
		}
		partials = append(partials, resp.Patches...)
	}
	merged := make([]float64, len(ref.Solution))
	if err := core.MergePartials(merged, partials, nil); err != nil {
		t.Fatal(err)
	}
	for i := range merged {
		if merged[i] != ref.Solution[i] {
			t.Fatalf("point %d: merged %v != local %v (must be bit-identical)",
				i, merged[i], ref.Solution[i])
		}
	}
}

// TestShardEvalValidation: bad requests are 400s, an unknown mesh is the
// 404 the coordinator's re-seed protocol keys on.
func TestShardEvalValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := mesh.Structured(4)
	meshID := uploadMesh(t, ts, m)

	cases := []ShardEvalRequest{
		{P: 1, K: 4, Patches: []int{0}},                                    // no mesh id
		{MeshID: meshID, P: 9, K: 4, Patches: []int{0}},                    // bad p
		{MeshID: meshID, P: 1, K: 0, Patches: []int{0}},                    // bad k
		{MeshID: meshID, P: 1, K: 4},                                       // no patches
		{MeshID: meshID, P: 1, K: 4, Patches: []int{4}},                    // patch out of range
		{MeshID: meshID, P: 1, K: 4, Patches: []int{0}, Boundary: "bogus"}, // bad boundary
	}
	for i, req := range cases {
		if code := postShard(t, ts, "/v1/shard/eval", req, nil); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	code := postShard(t, ts, "/v1/shard/eval", ShardEvalRequest{
		MeshID: "absent", P: 1, K: 4, Patches: []int{0},
	}, nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown mesh: status %d, want 404", code)
	}
}

// TestShardEvalRejectsRepeatedPatch: a patch id listed twice is a 400 that
// names the patch, decided before any patch runs — not a 500 from the
// evaluator, which the coordinator would retry though every try fails the
// same way.
func TestShardEvalRejectsRepeatedPatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	meshID := uploadMesh(t, ts, mesh.Structured(4))
	// Probability 0 counts the tile calls without failing any.
	enableFaults(t, fault.Config{Seed: 1, Mode: fault.ModeError, Sites: map[string]float64{core.SiteTile: 0}})

	body, err := json.Marshal(ShardEvalRequest{MeshID: meshID, P: 1, K: 4, Patches: []int{2, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/shard/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "patch 2 repeats") {
		t.Fatalf("status %d body %s, want 400 naming patch 2", resp.StatusCode, msg)
	}
	if calls := fault.Stats()[core.SiteTile].Calls; calls != 0 {
		t.Errorf("%s called %d times, want 0", core.SiteTile, calls)
	}
}

package server

import (
	"net/http"
	"testing"

	"unstencil/internal/mesh"
	"unstencil/internal/metrics"
)

// Operator-scheme jobs assemble through the congruence-first path, and
// /debug/metrics surfaces the assembly outcome: rows integrated vs
// stamped, verification outcomes, and the assembly wall-time EWMA.
func TestAssemblyMetricsSection(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := uploadMesh(t, ts, mesh.Structured(8))
	jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: []string{"sincos"}})

	var body struct {
		Operator metrics.OperatorSnapshot `json:"operator"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	op := body.Operator
	if op.RowsAssembled == 0 {
		t.Errorf("assembly metrics not recorded: %+v", op)
	}
	if op.RowsStamped == 0 {
		t.Errorf("no rows stamped on a structured mesh: %+v", op)
	}
	if op.StampRate <= 0 || op.StampRate >= 1 {
		t.Errorf("stamp rate not derived: %+v", op)
	}
	if op.AssemblyWallEWMAMs <= 0 {
		t.Errorf("assembly wall EWMA not recorded: %+v", op)
	}

	// A second assembly (different degree → different operator key) folds
	// into the same counters; the EWMA stays positive and the row totals
	// accumulate.
	before := op.RowsAssembled + op.RowsStamped
	jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 2, Fields: []string{"sincos"}})
	snap := srv.Artifacts().Ops().Snapshot()
	if snap.RowsAssembled+snap.RowsStamped <= before {
		t.Errorf("second assembly not accumulated: %+v", snap)
	}
}

// Boundary variants of the same mesh share one signature cache: the second
// variant's assembly answers row hashes from entries the first one stored.
func TestSigCacheMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := uploadMesh(t, ts, mesh.Structured(8))
	jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 2, Field: "sincos"})

	snap := srv.Artifacts().Ops().Snapshot()
	if snap.SigCacheLookups == 0 {
		t.Errorf("assembly recorded no signature-cache lookups: %+v", snap)
	}

	// Same mesh and order, different boundary: a distinct operator key, but
	// the per-(mesh, P, h) signature cache carries over — the per-row keys
	// include the kernel class, so only genuinely reusable entries hit.
	jobSolution(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 2, Field: "sincos", Boundary: "one-sided"})
	warm := srv.Artifacts().Ops().Snapshot()
	if warm.RowsTotal <= snap.RowsTotal {
		t.Errorf("boundary variant did not admit a second operator: %+v", warm)
	}
	if warm.SigCacheHits == 0 {
		t.Errorf("boundary variant got no signature-cache hits: %+v", warm)
	}
	if warm.SigCacheHitRate <= 0 || warm.SigCacheHitRate > 1 {
		t.Errorf("hit rate not derived: %+v", warm)
	}

	var body struct {
		Operator metrics.OperatorSnapshot `json:"operator"`
	}
	if code := getJSON(t, ts.URL+"/debug/metrics", &body); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if body.Operator.RowsTotal != warm.RowsTotal || body.Operator.SigCacheHits != warm.SigCacheHits {
		t.Errorf("/debug/metrics does not mirror the counters: %+v vs %+v", body.Operator, warm)
	}
}

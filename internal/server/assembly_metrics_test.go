package server

import (
	"net/http"
	"testing"

	"unstencil/internal/mesh"
)

// Operator-scheme jobs assemble through the congruence-first path, and
// /debug/metrics surfaces the assembly outcome: rows integrated vs
// stamped, verification outcomes, and the assembly wall-time EWMA.
func TestAssemblyMetricsSection(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := uploadMesh(t, ts, mesh.Structured(8))
	jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 1, Fields: []string{"sincos"}})

	var body struct {
		Operator struct {
			RowsAssembled      uint64  `json:"rows_assembled"`
			RowsStamped        uint64  `json:"rows_stamped"`
			AssemblyWallEWMAMs float64 `json:"assembly_wall_ewma_ms"`
		} `json:"operator"`
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
	if op.AssemblyWallEWMAMs <= 0 {
		t.Errorf("assembly wall EWMA not recorded: %+v", op)
	}

	// A second assembly (different degree → different operator key) folds
	// into the same counters; the EWMA stays positive and the row totals
	// accumulate.
	before := op.RowsAssembled + op.RowsStamped
	jobSolutions(t, ts, JobSpec{MeshID: id, Scheme: "operator", P: 2, Fields: []string{"sincos"}})
	ops := srv.Artifacts().Ops()
	if after := ops.RowsAssembled.Load() + ops.RowsStamped.Load(); after <= before {
		t.Errorf("second assembly not accumulated: %d rows, %d before", after, before)
	}
}

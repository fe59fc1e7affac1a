package bench

import (
	"math"
	"testing"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
)

// TestOperatorSmoke is the CI smoke the bench job runs under -race: assemble
// on the benchmark's 1k-element mesh and assert the sparse apply agrees with
// direct per-point evaluation at 1e-12.
func TestOperatorSmoke(t *testing.T) {
	cfg := DefaultOperatorConfig()
	m, err := mesh.SizedLowVariance(cfg.Size, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	f := dg.Project(m, 1, testField, 2)
	ev, err := core.NewEvaluator(f, core.Options{P: 1, GridDegree: -1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.RunPerPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	op, err := ev.AssembleOperator(core.AssembleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := op.Apply(ev.Field)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range got {
		if d := math.Abs(got[i] - direct.Solution[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-12 {
		t.Errorf("apply vs direct max diff %.3e > 1e-12", worst)
	}
	if op.NNZ() == 0 {
		t.Error("assembly produced an empty operator")
	}
}

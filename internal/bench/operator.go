package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"unstencil/internal/core"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
)

// OperatorConfig parameterises the assembled-operator sweep cmd/unstencil-bench
// runs with -operator and CI records as BENCH_PR5.json. The sweep answers the
// question the assembled path exists for: after how many repeated fields does
// paying assembly once beat re-running geometry per field?
type OperatorConfig struct {
	// Size is the approximate triangle count of the fixed-seed mesh.
	Size int
	// Orders are the dG polynomial orders swept.
	Orders []int
	// Seed fixes the mesh generator so runs compare across commits.
	Seed int64
	// Workers bounds assembly and apply concurrency; 0 follows GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// DefaultOperatorConfig mirrors the hot-path suite's mesh so the two
// trajectory files describe the same workload.
func DefaultOperatorConfig() OperatorConfig {
	return OperatorConfig{Size: 1000, Orders: []int{1, 2}, Seed: 1}
}

// EffectiveWorkers resolves the configured worker count against GOMAXPROCS.
func (c OperatorConfig) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// OperatorResult is one order's measurements: what assembly costs, what an
// apply costs next to a direct evaluation of the same points, the operator's
// shape, and the break-even field count — the number of repeated fields after
// which total assembled cost undercuts total direct cost.
type OperatorResult struct {
	P int `json:"p"`

	// Assembly cost, wall-clock.
	AssemblePerPointMS float64 `json:"assemble_per_point_ms"`

	// Steady-state per-field cost: one sparse apply vs one direct
	// per-point run over the identical evaluation grid.
	ApplyNsPerOp  float64 `json:"apply_ns_per_op"`
	DirectNsPerOp float64 `json:"direct_ns_per_op"`
	// ApplySpeedup is DirectNsPerOp / ApplyNsPerOp.
	ApplySpeedup float64 `json:"apply_speedup"`

	// BreakEvenFields is assembly wall over per-field savings, rounded up:
	// post-processing at least this many fields on one mesh makes the
	// assembled path the cheaper total. 0 means the apply is not faster.
	BreakEvenFields int `json:"break_even_fields"`

	// Operator shape.
	Rows        int     `json:"rows"`
	NNZ         int     `json:"nnz"`
	NNZPerRow   float64 `json:"nnz_per_row"`
	BytesPerRow float64 `json:"bytes_per_row"`

	// MaxDiff is the worst |apply − direct| disagreement across the grid,
	// recorded so the trajectory file itself proves the speedup is of the
	// same numbers.
	MaxDiff float64 `json:"max_diff"`
}

// OperatorReport is the BENCH_PR5.json document.
type OperatorReport struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Config     OperatorConfig   `json:"config"`
	Results    []OperatorResult `json:"results"`
}

// RunOperator executes the sweep.
func RunOperator(cfg OperatorConfig) (*OperatorReport, error) {
	if cfg.Size <= 0 {
		cfg = DefaultOperatorConfig()
	}
	rep := &OperatorReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Config:     cfg,
	}
	m, err := mesh.SizedLowVariance(cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, p := range cfg.Orders {
		f := dg.Project(m, p, testField, 2)
		ev, err := core.NewEvaluator(f, core.Options{P: p, GridDegree: -1, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		res := OperatorResult{P: p}

		// Assembly cost, once (assembly is a one-off; median-of-N would just
		// re-measure a path the break-even analysis amortises away).
		start := time.Now()
		op, err := ev.AssembleOperator(core.AssembleOpts{})
		if err != nil {
			return nil, err
		}
		res.AssemblePerPointMS = float64(time.Since(start)) / float64(time.Millisecond)

		st := op.Stats()
		res.Rows, res.NNZ = st.Rows, st.NNZ
		res.NNZPerRow, res.BytesPerRow = st.NNZPerRow, st.BytesPerRow

		// Steady-state costs over the identical grid.
		direct, err := ev.RunPerPoint(0)
		if err != nil {
			return nil, err
		}
		applied, err := op.Apply(ev.Field)
		if err != nil {
			return nil, err
		}
		for i := range applied {
			if d := math.Abs(applied[i] - direct.Solution[i]); d > res.MaxDiff {
				res.MaxDiff = d
			}
		}

		out := make([]float64, op.Rows)
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op.ApplyVec(ev.Field.Coeffs, out, op.Workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		res.ApplyNsPerOp = float64(br.T.Nanoseconds()) / float64(br.N)
		br = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ev.RunPerPoint(0); err != nil {
					b.Fatal(err)
				}
			}
		})
		res.DirectNsPerOp = float64(br.T.Nanoseconds()) / float64(br.N)

		if res.ApplyNsPerOp > 0 {
			res.ApplySpeedup = res.DirectNsPerOp / res.ApplyNsPerOp
		}
		if saved := res.DirectNsPerOp - res.ApplyNsPerOp; saved > 0 {
			assemblyNs := res.AssemblePerPointMS * float64(time.Millisecond)
			res.BreakEvenFields = int(math.Ceil(assemblyNs / saved))
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// Fprint renders the sweep as a table.
func (rep *OperatorReport) Fprint(w *os.File) {
	fmt.Fprintf(w, "%-4s %14s %14s %10s %10s %8s %10s %8s %10s\n",
		"P", "assemble ms", "apply ns/op", "direct ns", "speedup", "nnz/row", "bytes/row", "break-ev", "max diff")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "P%-3d %14.1f %14.0f %10.0f %9.1fx %8.1f %10.1f %8d %10.2e\n",
			r.P, r.AssemblePerPointMS, r.ApplyNsPerOp, r.DirectNsPerOp,
			r.ApplySpeedup, r.NNZPerRow, r.BytesPerRow, r.BreakEvenFields, r.MaxDiff)
	}
}

// Save writes the report as stable, indented JSON.
func (rep *OperatorReport) Save(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"unstencil/internal/core"
	"unstencil/internal/device"
	"unstencil/internal/dg"
	"unstencil/internal/mesh"
	"unstencil/internal/tile"
)

// ScalingConfig parameterises the strong-scaling sweep: the fixed-seed
// benchmark suite executed at every worker count in Workers, for every
// scheme, with the serial run as the scaling baseline.
type ScalingConfig struct {
	// Size is the approximate triangle count of the benchmark mesh.
	Size int
	// Orders are the dG polynomial orders swept.
	Orders []int
	// Seed fixes the mesh generator.
	Seed int64
	// Patches is the per-element tiling patch count (also the per-point
	// block count), the unit granularity the dispatcher balances.
	Patches int
	// Workers is the worker-count sweep; 1 must be present (it is the
	// baseline and is prepended if missing).
	Workers []int
}

// DefaultScalingConfig mirrors the hot-path suite's fixed seed and sizes the
// sweep in powers of two up to at least 8 logical workers — the scheduler
// sweep is meaningful even when this host cannot run them simultaneously,
// because the modeled columns come from the deterministic cost model.
func DefaultScalingConfig() ScalingConfig {
	ws := []int{1, 2, 4, 8}
	for n := 16; n <= runtime.NumCPU(); n *= 2 {
		ws = append(ws, n)
	}
	return ScalingConfig{
		Size:    1000,
		Orders:  []int{1, 2},
		Seed:    1,
		Patches: 16,
		Workers: ws,
	}
}

// ScalingRow is one (scheme, order, workers) cell of the sweep.
type ScalingRow struct {
	Scheme  string `json:"scheme"`
	P       int    `json:"p"`
	Workers int    `json:"workers"`
	// GOMAXPROCS at run time: wall columns cannot exceed it no matter how
	// many workers are requested.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Wall columns are measured on this host.
	WallNsPerOp    float64 `json:"wall_ns_per_op"`
	WallSpeedup    float64 `json:"wall_speedup"`
	WallEfficiency float64 `json:"wall_efficiency"`
	// Model columns come from the deterministic per-block cost model
	// (internal/device): exact counters -> block costs -> LPT makespan of
	// the dynamic worker pool plus the two-stage reduction.
	ModelUnits      float64 `json:"model_units"`
	ModelSpeedup    float64 `json:"model_speedup"`
	ModelEfficiency float64 `json:"model_efficiency"`
	// MaxAbsDiffVsSerial compares this run's solution against the workers=1
	// solution; BitIdentical is the determinism acceptance gate.
	MaxAbsDiffVsSerial float64 `json:"max_abs_diff_vs_serial"`
	BitIdentical       bool    `json:"bit_identical_vs_serial"`
}

// ScalingReport is the JSON document the -scaling mode writes
// (BENCH_PR4.json at the repo root).
type ScalingReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// SpeedupBasis documents which columns carry the scaling claim on this
	// host; wall columns are honest but bounded by NumCPU.
	SpeedupBasis string        `json:"speedup_basis"`
	Config       ScalingConfig `json:"config"`
	Rows         []ScalingRow  `json:"rows"`
}

const speedupBasis = "model_speedup: deterministic per-block cost model " +
	"(internal/device, exact counters -> LPT makespan of the dynamic worker " +
	"pool + two-stage reduction); wall_speedup: measured on this host and " +
	"bounded by gomaxprocs"

// schemeRun abstracts one scheme so the sweep treats both uniformly.
type schemeRun struct {
	name string
	// run executes the scheme at the evaluator's current worker count.
	run func() (*core.Result, error)
	// model converts the serial run's per-block counters into the modeled
	// pool time at w workers.
	model func(res *core.Result, w int) float64
}

func schemeRuns(ev *core.Evaluator, tl *tile.Tiling, patches int) []schemeRun {
	perPatchCosts := func(res *core.Result) []float64 {
		costs := make([]float64, len(res.Blocks))
		for i := range res.Blocks {
			costs[i] = device.Cost(&res.Blocks[i])
		}
		return costs
	}
	return []schemeRun{
		{
			name: "per-point",
			run:  func() (*core.Result, error) { return ev.RunPerPoint(patches) },
			// Gather scheme: no partial solutions, no reduction stage.
			model: func(res *core.Result, w int) float64 {
				return device.Pool{Workers: w}.Run(perPatchCosts(res), 0).Total
			},
		},
		{
			name: "per-element",
			run:  func() (*core.Result, error) { return ev.RunPerElement(tl) },
			// Scatter scheme: patch compute plus the two-stage owned-point
			// reduction over every partial value (one coalesced word each).
			model: func(res *core.Result, w int) float64 {
				red := float64(tl.PartialValues()) * device.CoalescedWordCost
				return device.Pool{Workers: w}.Run(perPatchCosts(res), red).Total
			},
		},
	}
}

// RunScaling executes the sweep and returns the report. For each (scheme,
// order): one serial run provides the baseline solution, the exact per-block
// counters (deterministic, so valid at every worker count), and the modeled
// serial time; each worker count is then benchmarked for wall time and its
// solution compared bit-for-bit against the serial baseline.
func RunScaling(cfg ScalingConfig) (*ScalingReport, error) {
	if cfg.Size <= 0 {
		cfg = DefaultScalingConfig()
	}
	if len(cfg.Workers) == 0 || cfg.Workers[0] != 1 {
		cfg.Workers = append([]int{1}, cfg.Workers...)
	}
	rep := &ScalingReport{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		SpeedupBasis: speedupBasis,
		Config:       cfg,
	}
	m, err := mesh.SizedLowVariance(cfg.Size, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, p := range cfg.Orders {
		f := dg.Project(m, p, testField, 2)
		ev, err := core.NewEvaluator(f, core.Options{P: p, GridDegree: -1, Workers: 1})
		if err != nil {
			return nil, err
		}
		tl := ev.NewTiling(cfg.Patches)
		for _, sr := range schemeRuns(ev, tl, cfg.Patches) {
			ev.Opt.Workers = 1
			serial, err := sr.run()
			if err != nil {
				return nil, fmt.Errorf("%s/P%d serial: %w", sr.name, p, err)
			}
			model1 := sr.model(serial, 1)
			var wall1 float64
			for _, w := range cfg.Workers {
				ev.Opt.Workers = w
				var res *core.Result
				bres := testing.Benchmark(func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						r, err := sr.run()
						if err != nil {
							b.Fatal(err)
						}
						res = r
					}
				})
				wallNs := float64(bres.T.Nanoseconds()) / float64(bres.N)
				if w == 1 {
					wall1 = wallNs
				}
				maxDiff, identical := 0.0, true
				for i := range res.Solution {
					d := res.Solution[i] - serial.Solution[i]
					if d != 0 {
						identical = false
						if d < 0 {
							d = -d
						}
						if d > maxDiff {
							maxDiff = d
						}
					}
				}
				modelW := sr.model(serial, w)
				row := ScalingRow{
					Scheme:             sr.name,
					P:                  p,
					Workers:            w,
					GOMAXPROCS:         runtime.GOMAXPROCS(0),
					WallNsPerOp:        wallNs,
					ModelUnits:         modelW,
					MaxAbsDiffVsSerial: maxDiff,
					BitIdentical:       identical,
				}
				if wallNs > 0 {
					row.WallSpeedup = wall1 / wallNs
					row.WallEfficiency = row.WallSpeedup / float64(w)
				}
				if modelW > 0 {
					row.ModelSpeedup = model1 / modelW
					row.ModelEfficiency = row.ModelSpeedup / float64(w)
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep, nil
}

// Save writes the report as stable, indented JSON.
func (rep *ScalingReport) Save(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Fprint renders the sweep as a fixed-width table grouped by scheme/order.
func (rep *ScalingReport) Fprint(w *os.File) {
	fmt.Fprintf(w, "%-12s %2s %3s %14s %8s %8s %8s %8s %5s\n",
		"scheme", "P", "w", "wall ns/op", "wall-sp", "model-sp", "mod-eff", "maxdiff", "bit")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-12s %2d %3d %14.0f %7.2fx %7.2fx %8.2f %8.1e %5v\n",
			r.Scheme, r.P, r.Workers, r.WallNsPerOp,
			r.WallSpeedup, r.ModelSpeedup, r.ModelEfficiency,
			r.MaxAbsDiffVsSerial, r.BitIdentical)
	}
}

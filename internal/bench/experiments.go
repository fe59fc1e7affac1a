package bench

import (
	"fmt"

	"time"

	"unstencil/internal/core"
	"unstencil/internal/device"
	"unstencil/internal/geom"
	"unstencil/internal/grid"
	"unstencil/internal/metrics"
	"unstencil/internal/spatial"
	"unstencil/internal/tile"
)

// evaluator builds a core.Evaluator for the session's cached field.
func (s *Session) evaluator(kind Kind, size, p, gridDegree int) (*core.Evaluator, error) {
	f, err := s.Field(kind, size, p)
	if err != nil {
		return nil, err
	}
	return core.NewEvaluator(f, core.Options{
		P:          p,
		GridDegree: gridDegree,
		Workers:    s.Cfg.Workers,
	})
}

// Table1 counts intersection tests for both schemes on low-variance meshes
// with linear polynomials — the paper's Table 1. Counting is exact and runs
// at full scale.
func (s *Session) Table1() (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Number of intersection tests (linear polynomials, LV meshes)",
		Header: []string{"Mesh Size", "# Per-Point Tests", "# Per-Element Tests",
			"Ratio"},
		Notes: []string{
			"paper reports ~1.9x fewer per-element tests at every size",
		},
	}
	for _, size := range s.Cfg.Sizes {
		// Table 1 uses the paper's full evaluation grid regardless of the
		// sweep's grid density.
		ev, err := s.evaluator(LowVariance, size, 1, 0)
		if err != nil {
			return nil, err
		}
		pp, err := ev.CountIntersectionTests(core.PerPoint)
		if err != nil {
			return nil, err
		}
		pe, err := ev.CountIntersectionTests(core.PerElement)
		if err != nil {
			return nil, err
		}
		s.logf("table1 %s: per-point %d, per-element %d", sizeLabel(size), pp, pe)
		t.AddRow(sizeLabel(size), fmt.Sprintf("%d", pp), fmt.Sprintf("%d", pe),
			fmt.Sprintf("%.2f", float64(pp)/float64(pe)))
	}
	return t, nil
}

// Fig8 measures the tiling memory overhead of the per-element scheme with
// the paper's 16 patches and linear polynomials, relative to baseline
// solution storage; the per-point scheme is the 1.0 baseline.
func (s *Session) Fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Memory overhead of per-element tiling (16 patches, linear)",
		Header: []string{"Mesh Size", "Per-Point", "Per-Element", "Partial Values", "Grid Points"},
		Notes: []string{
			"overhead = stored partial solutions / grid points; decreases with mesh size",
		},
	}
	for _, size := range s.Cfg.Sizes {
		ev, err := s.evaluator(LowVariance, size, 1, 0)
		if err != nil {
			return nil, err
		}
		// The unweighted bisection, as the paper partitions for Fig. 8.
		tl := tile.New(ev.Mesh, ev.NumPoints(), s.Cfg.Patches, ev.CandidateMarker())
		s.logf("fig8 %s: overhead %.3f", sizeLabel(size), tl.Overhead())
		t.AddRow(sizeLabel(size), "1.000", fmt.Sprintf("%.3f", tl.Overhead()),
			fmt.Sprintf("%d", tl.PartialValues()), fmt.Sprintf("%d", ev.NumPoints()))
	}
	return t, nil
}

// sweepResult holds one (kind, order, size, scheme) measurement.
type sweepResult struct {
	gflops  float64
	seconds float64
	flops   uint64
	tests   uint64
}

// runScheme executes one scheme and converts the per-block counters to a
// modeled single-device time.
func (s *Session) runScheme(ev *core.Evaluator, scheme core.Scheme) (sweepResult, error) {
	sim := device.Sim{Devices: 1, SMs: s.Cfg.Patches}
	var res *core.Result
	var err error
	var reduction float64
	switch scheme {
	case core.PerPoint:
		res, err = ev.RunPerPoint(s.Cfg.Patches)
	case core.PerElement:
		tl := ev.NewTiling(s.Cfg.Patches)
		res, err = ev.RunPerElement(tl)
		if err == nil {
			reduction = float64(tl.PartialValues()) * 2
		}
	}
	if err != nil {
		return sweepResult{}, err
	}
	tm := sim.RunCounters(res.Blocks, reduction)
	secs := device.Seconds(tm.Total) / device.Occupancy(ev.Opt.P)
	return sweepResult{
		gflops:  device.GFlops(res.Total.Flops, secs),
		seconds: secs,
		flops:   res.Total.Flops,
		tests:   res.Total.IntersectionTests,
	}, nil
}

// measure runs (or returns the cached result of) one scheme at one sweep
// configuration, so Fig. 13 reuses the Fig. 11/12 runs.
func (s *Session) measure(kind Kind, size, p int, scheme core.Scheme) (sweepResult, error) {
	key := fmt.Sprintf("%v-%d-%d-%v-%d", kind, size, p, scheme, s.Cfg.GridDegree)
	if r, ok := s.sweeps[key]; ok {
		return r, nil
	}
	ev, err := s.evaluator(kind, size, p, s.Cfg.GridDegree)
	if err != nil {
		return sweepResult{}, err
	}
	r, err := s.runScheme(ev, scheme)
	if err != nil {
		return sweepResult{}, err
	}
	s.sweeps[key] = r
	return r, nil
}

// FlopSweep runs both schemes over all orders and sizes for one mesh kind
// and produces the GFLOP/s figure (Fig. 11 for LV, Fig. 12 for HV) and the
// relative-speedup figure rows for Fig. 13.
func (s *Session) FlopSweep(kind Kind) (gflops, speedup *Table, err error) {
	figID := "fig11"
	if kind == HighVariance {
		figID = "fig12"
	}
	gflops = &Table{
		ID:     figID,
		Title:  fmt.Sprintf("Modeled GFLOP/s, %v meshes", kind),
		Header: []string{"Mesh Size"},
		Notes: []string{
			"modeled single-device throughput; paper peaks at 345 GFLOP/s (linear, per-element)",
			"relative ordering and order-dependence are the reproduction target",
		},
	}
	speedup = &Table{
		ID:     "fig13-" + kind.String(),
		Title:  fmt.Sprintf("Per-element speedup over per-point, %v meshes", kind),
		Header: []string{"Mesh Size"},
		Notes: []string{
			"paper reports 2x-6x, larger on HV meshes, smaller at higher order",
		},
	}
	for _, p := range s.Cfg.Orders {
		gflops.Header = append(gflops.Header,
			fmt.Sprintf("P%d Per-Elem", p), fmt.Sprintf("P%d Per-Point", p))
		speedup.Header = append(speedup.Header, fmt.Sprintf("P%d", p))
	}
	for _, size := range s.Cfg.Sizes {
		grow := []string{sizeLabel(size)}
		srow := []string{sizeLabel(size)}
		for _, p := range s.Cfg.Orders {
			pe, err := s.measure(kind, size, p, core.PerElement)
			if err != nil {
				return nil, nil, err
			}
			pp, err := s.measure(kind, size, p, core.PerPoint)
			if err != nil {
				return nil, nil, err
			}
			s.logf("%s %v %s P%d: per-elem %.1f GF/s, per-point %.1f GF/s, speedup %.2f",
				figID, kind, sizeLabel(size), p, pe.gflops, pp.gflops, pp.seconds/pe.seconds)
			grow = append(grow, fmt.Sprintf("%.1f", pe.gflops), fmt.Sprintf("%.1f", pp.gflops))
			srow = append(srow, fmt.Sprintf("%.2f", pp.seconds/pe.seconds))
		}
		gflops.AddRow(grow...)
		speedup.AddRow(srow...)
	}
	return gflops, speedup, nil
}

// Fig13 combines the LV and HV speedup sweeps into the paper's Fig. 13
// layout (one row group per polynomial order).
func (s *Session) Fig13() (*Table, error) {
	_, lv, err := s.FlopSweep(LowVariance)
	if err != nil {
		return nil, err
	}
	_, hv, err := s.FlopSweep(HighVariance)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig13",
		Title:  "Relative speedup of per-element over per-point (normalized per-point = 1)",
		Header: []string{"Mesh Size"},
		Notes:  lv.Notes,
	}
	for _, p := range s.Cfg.Orders {
		t.Header = append(t.Header,
			fmt.Sprintf("P%d LV", p), fmt.Sprintf("P%d HV", p))
	}
	for i := range lv.Rows {
		row := []string{lv.Rows[i][0]}
		for j := 1; j < len(lv.Rows[i]); j++ {
			row = append(row, lv.Rows[i][j], hv.Rows[i][j])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig14 runs the per-element scheme with linear polynomials on 1, 2, 4 and
// 8 simulated devices (NGPU × NSM patches each) and reports modeled times —
// the paper's multi-GPU scaling study.
func (s *Session) Fig14() (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Per-element multi-device scaling (linear polynomials, LV meshes, modeled ms)",
		Header: []string{"Mesh Size"},
		Notes: []string{
			"paper shows near-perfect linear scaling in mesh size and device count",
		},
	}
	for _, d := range s.Cfg.Devices {
		t.Header = append(t.Header, fmt.Sprintf("%dx dev (ms)", d))
	}
	t.Header = append(t.Header, "speedup 1→max")
	for _, size := range s.Cfg.Sizes {
		ev, err := s.evaluator(LowVariance, size, 1, s.Cfg.GridDegree)
		if err != nil {
			return nil, err
		}
		row := []string{sizeLabel(size)}
		var first, last float64
		for i, d := range s.Cfg.Devices {
			k := d * s.Cfg.Patches
			tl := ev.NewTiling(k)
			res, err := ev.RunPerElement(tl)
			if err != nil {
				return nil, err
			}
			sim := device.Sim{Devices: d, SMs: s.Cfg.Patches}
			tm := sim.RunCounters(res.Blocks, float64(tl.PartialValues())*2)
			ms := device.Seconds(tm.Total) * 1e3
			if i == 0 {
				first = ms
			}
			last = ms
			s.logf("fig14 %s %dx: %.2f ms (overhead %.3f)",
				sizeLabel(size), d, ms, res.MemoryOverhead)
			row = append(row, fmt.Sprintf("%.3f", ms))
		}
		row = append(row, fmt.Sprintf("%.2f", first/last))
		t.AddRow(row...)
	}
	return t, nil
}

// CellSweep is ablation A1: how hash-grid cell-size factors change the
// candidate (intersection-test) counts, justifying the paper's cp = s and
// ce = s/2 choices.
func (s *Session) CellSweep() (*Table, error) {
	t := &Table{
		ID:     "cellsweep",
		Title:  "Ablation: hash-grid cell-size factors vs intersection tests",
		Header: []string{"Config", "Tests"},
		Notes: []string{
			"per-point cells below s are rejected (enclosure); larger cells add halo waste",
			"per-element cells around s/2 minimise false candidates",
		},
	}
	size := s.Cfg.Sizes[0]
	f, err := s.Field(LowVariance, size, 1)
	if err != nil {
		return nil, err
	}
	for _, cf := range []float64{1, 1.5, 2, 3} {
		ev, err := core.NewEvaluator(f, core.Options{
			P: 1, Workers: s.Cfg.Workers, CellFactorPoint: cf,
		})
		if err != nil {
			return nil, err
		}
		n, err := ev.CountIntersectionTests(core.PerPoint)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("per-point cp=%.1fs", cf), fmt.Sprintf("%d", n))
	}
	for _, cf := range []float64{0.25, 0.5, 1, 2} {
		ev, err := core.NewEvaluator(f, core.Options{
			P: 1, Workers: s.Cfg.Workers, CellFactorElem: cf,
		})
		if err != nil {
			return nil, err
		}
		n, err := ev.CountIntersectionTests(core.PerElement)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("per-element ce=%.2fs", cf), fmt.Sprintf("%d", n))
	}
	return t, nil
}

// TilingComparison is ablation A2: overlapped tiling (scratch-pad partials
// + reduction) vs pipelined tiling (colour waves writing in place). The
// paper reports that pipelining adds no memory overhead but loses overall
// performance to the extra synchronisation.
func (s *Session) TilingComparison() (*Table, error) {
	t := &Table{
		ID:     "tiling",
		Title:  "Ablation: overlapped vs pipelined tiling (per-element, linear)",
		Header: []string{"Mesh Size", "Overlapped (ms)", "Pipelined (ms)", "Colors", "Overlap Overhead"},
	}
	sim := device.Sim{Devices: 1, SMs: s.Cfg.Patches}
	for _, size := range s.Cfg.Sizes {
		ev, err := s.evaluator(LowVariance, size, 1, s.Cfg.GridDegree)
		if err != nil {
			return nil, err
		}
		tl := ev.NewTiling(s.Cfg.Patches)
		res, err := ev.RunPerElement(tl)
		if err != nil {
			return nil, err
		}
		// Overlapped: all patches concurrent + reduction.
		over := sim.RunCounters(res.Blocks, float64(tl.PartialValues())*2)
		// Pipelined: colour waves run back to back; no reduction stage, but
		// each wave waits for the slowest member.
		colors := tl.Colors()
		nc := 0
		for _, c := range colors {
			if c+1 > nc {
				nc = c + 1
			}
		}
		pipe := 0.0
		for c := 0; c < nc; c++ {
			var wave []metrics.Counters
			for p, pc := range colors {
				if pc == c {
					wave = append(wave, res.Blocks[p])
				}
			}
			pipe += sim.RunCounters(wave, 0).Compute
		}
		t.AddRow(sizeLabel(size),
			fmt.Sprintf("%.3f", device.Seconds(over.Total)*1e3),
			fmt.Sprintf("%.3f", device.Seconds(pipe)*1e3),
			fmt.Sprintf("%d", nc),
			fmt.Sprintf("%.3f", tl.Overhead()))
	}
	return t, nil
}

// PatchSweep is ablation A3: the memory-overhead vs parallelism trade as
// the patch count grows (paper §4 discussion).
func (s *Session) PatchSweep() (*Table, error) {
	t := &Table{
		ID:     "patches",
		Title:  "Ablation: patch count vs overhead and modeled time (per-element, linear)",
		Header: []string{"Patches", "Overhead", "Modeled ms (16-SM device)"},
	}
	size := s.Cfg.Sizes[len(s.Cfg.Sizes)-1]
	ev, err := s.evaluator(LowVariance, size, 1, s.Cfg.GridDegree)
	if err != nil {
		return nil, err
	}
	sim := device.Sim{Devices: 1, SMs: s.Cfg.Patches}
	for _, k := range []int{4, 8, 16, 32, 64} {
		tl := ev.NewTiling(k)
		res, err := ev.RunPerElement(tl)
		if err != nil {
			return nil, err
		}
		tm := sim.RunCounters(res.Blocks, float64(tl.PartialValues())*2)
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", tl.Overhead()),
			fmt.Sprintf("%.3f", device.Seconds(tm.Total)*1e3))
	}
	return t, nil
}

// All runs every experiment and returns the tables in paper order.
func (s *Session) All() ([]*Table, error) {
	var out []*Table
	t1, err := s.Table1()
	if err != nil {
		return nil, err
	}
	out = append(out, t1)
	f8, err := s.Fig8()
	if err != nil {
		return nil, err
	}
	out = append(out, f8)
	g11, _, err := s.FlopSweep(LowVariance)
	if err != nil {
		return nil, err
	}
	out = append(out, g11)
	g12, _, err := s.FlopSweep(HighVariance)
	if err != nil {
		return nil, err
	}
	out = append(out, g12)
	f13, err := s.Fig13()
	if err != nil {
		return nil, err
	}
	out = append(out, f13)
	f14, err := s.Fig14()
	if err != nil {
		return nil, err
	}
	out = append(out, f14)
	for _, fn := range []func() (*Table, error){s.CellSweep, s.TilingComparison, s.PatchSweep, s.SpatialSweep} {
		tb, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// SpatialSweep is ablation A4: compare the uniform hash grid against the
// alternative spatial indices the paper lists (§3: k-d trees, quad trees,
// bounding volume hierarchies) on the post-processor's actual query
// workload — square stencil windows over the evaluation grid points. The
// hash grid returns a slight superset of candidates (cell granularity) but
// answers queries in O(cells); the exact tree structures pay traversal
// overhead per query. This quantifies the paper's "a uniform hash grid was
// the most applicable choice".
func (s *Session) SpatialSweep() (*Table, error) {
	t := &Table{
		ID:     "spatial",
		Title:  "Ablation: spatial index choice on the stencil-query workload",
		Header: []string{"Index", "Build (ms)", "10k queries (ms)", "Candidates"},
	}
	size := s.Cfg.Sizes[0]
	ev, err := s.evaluator(LowVariance, size, 1, 0)
	if err != nil {
		return nil, err
	}
	// The workload: the per-point stencil boxes of the first 10k points.
	locs := make([]geom.Point, len(ev.Points))
	for i, gp := range ev.Points {
		locs[i] = gp.Pos
	}
	nq := 10000
	if nq > len(ev.Points) {
		nq = len(ev.Points)
	}
	boxes := make([]geom.AABB, nq)
	half := ev.W / 2
	for i := 0; i < nq; i++ {
		p := ev.Points[i].Pos
		boxes[i] = geom.Box(p.X-half, p.Y-half, p.X+half, p.Y+half)
	}

	type impl struct {
		name  string
		build func() func(geom.AABB) int
	}
	cellSize := ev.Mesh.LongestEdge() / 2
	impls := []impl{
		{"hash grid (paper)", func() func(geom.AABB) int {
			g := grid.New(locs, cellSize)
			return func(b geom.AABB) int { return g.CountInBox(b, 0) }
		}},
		{"k-d tree", func() func(geom.AABB) int {
			k := spatial.NewKDTree(locs)
			return func(b geom.AABB) int { return k.CountInBox(b) }
		}},
		{"quadtree", func() func(geom.AABB) int {
			q := spatial.NewQuadtree(locs)
			return func(b geom.AABB) int { return q.CountInBox(b) }
		}},
		{"bvh", func() func(geom.AABB) int {
			v := spatial.NewBVH(locs)
			return func(b geom.AABB) int { return v.CountInBox(b) }
		}},
	}
	for _, im := range impls {
		start := time.Now()
		query := im.build()
		buildMS := float64(time.Since(start).Microseconds()) / 1e3
		start = time.Now()
		cands := 0
		for _, b := range boxes {
			cands += query(b)
		}
		queryMS := float64(time.Since(start).Microseconds()) / 1e3
		t.AddRow(im.name,
			fmt.Sprintf("%.2f", buildMS),
			fmt.Sprintf("%.2f", queryMS),
			fmt.Sprintf("%d", cands))
	}
	return t, nil
}

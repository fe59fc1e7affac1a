package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps unit tests fast: one small size, low orders, sparse grid.
func tinyConfig() Config {
	return Config{
		Sizes:      []int{300},
		Orders:     []int{1},
		Patches:    4,
		Devices:    []int{1, 2},
		Seed:       1,
		Grading:    8,
		GridDegree: -1,
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	s, err := NewSession(Config{Sizes: []int{100}, Orders: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Patches != 16 || len(s.Cfg.Devices) != 4 || s.Cfg.Grading != 16 {
		t.Errorf("defaults not applied: %+v", s.Cfg)
	}
}

func TestMeshCaching(t *testing.T) {
	s, err := NewSession(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := s.Mesh(LowVariance, 300)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Mesh(LowVariance, 300)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("mesh should be cached")
	}
	hv, err := s.Mesh(HighVariance, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hv == m1 {
		t.Error("kinds must be cached separately")
	}
	if hv.Stats().CV <= m1.Stats().CV {
		t.Error("HV mesh should have higher edge-length variance")
	}
}

func TestSizeLabel(t *testing.T) {
	if sizeLabel(4000) != "4k" || sizeLabel(1024000) != "1024k" || sizeLabel(512) != "512" {
		t.Error("sizeLabel wrong")
	}
}

func TestTableFprint(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"A", "BB"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "A", "BB", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// goldenSession runs the experiments at EXPERIMENTS.md's sizes (1k, 4k,
// 16k triangles); the counting experiments take well under a second.
func goldenSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// expectRows compares a table's rows cell for cell with the committed
// numbers: the mesh generators are deterministic, so these are exact.
func expectRows(t *testing.T, tb *Table, want [][]string) {
	t.Helper()
	if len(tb.Rows) != len(want) {
		t.Fatalf("%s: %d rows, want %d", tb.ID, len(tb.Rows), len(want))
	}
	for i, row := range want {
		for j, cell := range row {
			if tb.Rows[i][j] != cell {
				t.Errorf("%s row %s, %s: %s, want %s", tb.ID, row[0], tb.Header[j], tb.Rows[i][j], cell)
			}
		}
	}
}

// Table 1 as EXPERIMENTS.md reports it, and the paper's claim: per-point
// runs ≈ 1.9× the per-element intersection tests at every size.
func TestTable1Shape(t *testing.T) {
	tb, err := goldenSession(t).Table1()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, [][]string{
		{"1k", "1479381", "819889", "1.80"},
		{"4k", "5941547", "3175627", "1.87"},
		{"16k", "24197059", "12712849", "1.90"},
	})
	for _, row := range tb.Rows {
		if ratio := parseCell(t, row[1]) / parseCell(t, row[2]); ratio < 1.7 || ratio > 2.1 {
			t.Errorf("%s: test ratio %.2f is not the paper's ≈ 1.9", row[0], ratio)
		}
	}
}

// Fig 8 as EXPERIMENTS.md reports it, and the paper's claim: the
// per-element overhead falls as the mesh grows.
func TestFig8Shape(t *testing.T) {
	tb, err := goldenSession(t).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, tb, [][]string{
		{"1k", "1.000", "7.928", "30698", "3872"},
		{"4k", "1.000", "3.495", "56616", "16200"},
		{"16k", "1.000", "2.102", "133209", "63368"},
	})
	for i := 1; i < len(tb.Rows); i++ {
		if parseCell(t, tb.Rows[i][2]) >= parseCell(t, tb.Rows[i-1][2]) {
			t.Errorf("overhead should decrease with size: %s -> %s", tb.Rows[i-1][2], tb.Rows[i][2])
		}
	}
}

func TestFlopSweepAndFig13(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	g, sp, err := s.FlopSweep(LowVariance)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 1 || len(sp.Rows) != 1 {
		t.Fatalf("unexpected row counts %d, %d", len(g.Rows), len(sp.Rows))
	}
	pe := parseCell(t, g.Rows[0][1])
	pp := parseCell(t, g.Rows[0][2])
	if pe <= pp {
		t.Errorf("per-element GFLOP/s (%v) should exceed per-point (%v)", pe, pp)
	}
	speedup := parseCell(t, sp.Rows[0][1])
	if speedup <= 1 {
		t.Errorf("per-element speedup %v should exceed 1", speedup)
	}
	f13, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if parseCell(t, f13.Rows[0][1]) != speedup {
		t.Error("fig13 LV column should reuse the sweep result")
	}
	// HV speedup should be at least comparable to LV (paper: larger).
	hv := parseCell(t, f13.Rows[0][2])
	if hv <= 0.8 {
		t.Errorf("HV speedup %v implausibly low", hv)
	}
}

func TestFig14Scaling(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	tb, err := s.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	t1 := parseCell(t, tb.Rows[0][1])
	t2 := parseCell(t, tb.Rows[0][2])
	if t2 >= t1 {
		t.Errorf("2 devices (%v ms) should beat 1 device (%v ms)", t2, t1)
	}
	sp := parseCell(t, tb.Rows[0][len(tb.Rows[0])-1])
	if sp < 1.5 {
		t.Errorf("scaling speedup %v too low", sp)
	}
}

func TestCellSweep(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	tb, err := s.CellSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Larger per-point cells examine more candidates.
	cp1 := parseCell(t, tb.Rows[0][1])
	cp3 := parseCell(t, tb.Rows[3][1])
	if cp3 <= cp1 {
		t.Errorf("cp=3s tests (%v) should exceed cp=s (%v)", cp3, cp1)
	}
}

func TestTilingComparison(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	tb, err := s.TilingComparison()
	if err != nil {
		t.Fatal(err)
	}
	over := parseCell(t, tb.Rows[0][1])
	pipe := parseCell(t, tb.Rows[0][2])
	if pipe < over {
		t.Errorf("pipelined (%v ms) should not beat overlapped (%v ms)", pipe, over)
	}
}

func TestPatchSweep(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	tb, err := s.PatchSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	o4 := parseCell(t, tb.Rows[0][1])
	o64 := parseCell(t, tb.Rows[4][1])
	if o64 <= o4 {
		t.Errorf("overhead should grow with patches: %v -> %v", o4, o64)
	}
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, _ := NewSession(tinyConfig())
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"table1", "fig8", "fig11", "fig12", "fig13", "fig14",
		"cellsweep", "tiling", "patches", "spatial"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("got %d tables", len(tables))
	}
	for i, tb := range tables {
		if tb.ID != wantIDs[i] {
			t.Errorf("table %d id %q, want %q", i, tb.ID, wantIDs[i])
		}
		if len(tb.Rows) == 0 {
			t.Errorf("table %s empty", tb.ID)
		}
	}
}

func TestSpatialSweep(t *testing.T) {
	s, _ := NewSession(tinyConfig())
	tb, err := s.SpatialSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Exact structures (rows 1-3) must agree with each other on candidate
	// counts, and the hash grid (row 0) must return at least as many.
	kd := parseCell(t, tb.Rows[1][3])
	qt := parseCell(t, tb.Rows[2][3])
	bv := parseCell(t, tb.Rows[3][3])
	if kd != qt || qt != bv {
		t.Errorf("exact index counts disagree: %v %v %v", kd, qt, bv)
	}
	hg := parseCell(t, tb.Rows[0][3])
	if hg < kd {
		t.Errorf("hash grid candidates %v below exact count %v", hg, kd)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("4k, 16000,1024k")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4000, 16000, 1024000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSizes = %v", got)
		}
	}
	for _, bad := range []string{"", "x", "-4", "0", "4k,"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) should fail", bad)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("ParseInts = %v", got)
	}
	if _, err := ParseInts("1,x"); err == nil {
		t.Error("bad int should fail")
	}
}

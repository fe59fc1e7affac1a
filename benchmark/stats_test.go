package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	cases := []struct {
		v    []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{3, 1, 2}, 0.5, 2},             // odd: the middle value
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},        // even: mean of the middle two
		{[]float64{10, 20, 30, 40, 50}, 0, 10},   // lowest
		{[]float64{10, 20, 30, 40, 50}, 1, 50},   // highest
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46}, // 0.9*4 = 3.6 → 40 + 0.6*10
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
	}
	for _, c := range cases {
		if got := percentile(c.v, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.v, c.q, got, c.want)
		}
	}
	v := []float64{3, 1, 2}
	percentile(v, 0.5)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("percentile reordered its input: %v", v)
	}
}

// TestMedianOfThree is the set-up estimator: one slow cold start out of
// three must not move the reported value.
func TestMedianOfThree(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{0.91, 1.46, 0.95}, 0.95},
		{[]float64{1.46, 0.91, 0.95}, 0.95},
		{[]float64{1.0, 1.0, 5.0}, 1.0},
	} {
		if got := median(c.v); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles against values computed with
// Python's statistics.quantiles(v, n=4), the spread the pipeline takes.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([19.8, 20.1, 20.4, 21.0, 22.3], n=4) == [19.95, 20.4, 21.65]
	q1, q2, q3 = quartiles([]float64{20.4, 19.8, 22.3, 20.1, 21.0})
	if !near(q1, 19.95) || !near(q2, 20.4) || !near(q3, 21.65) {
		t.Errorf("quartiles = %v %v %v, want 19.95 20.4 21.65", q1, q2, q3)
	}
	if got, want := spread([]float64{20.4, 19.8, 22.3, 20.1, 21.0}), (21.65-19.95)/20.4; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestRatioAndWorseBy(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0 (an idle layer is not NaN)", got)
	}
	// Lower is better: 20 ms → 22 ms is 10 % worse, → 18 ms is 10 % better.
	if got := worseBy(20, 22, true); !near(got, 0.10) {
		t.Errorf("worseBy(20, 22, lower) = %v, want 0.10", got)
	}
	if got := worseBy(20, 18, true); !near(got, -0.10) {
		t.Errorf("worseBy(20, 18, lower) = %v, want -0.10", got)
	}
	// Higher is better: 50/s → 45/s is 10 % worse.
	if got := worseBy(50, 45, false); !near(got, 0.10) {
		t.Errorf("worseBy(50, 45, higher) = %v, want 0.10", got)
	}
}

func TestDriftRatioReadsSlowerAsAboveOne(t *testing.T) {
	before := calibration{TriadGBs: 10, SpinMS: 50}
	if got := driftRatio(before, calibration{TriadGBs: 10, SpinMS: 60}); !near(got, 1.2) {
		t.Errorf("slower spin: drift = %v, want 1.2", got)
	}
	if got := driftRatio(before, calibration{TriadGBs: 8, SpinMS: 50}); !near(got, 1.25) {
		t.Errorf("lower bandwidth: drift = %v, want 1.25", got)
	}
	if got := driftRatio(calibration{SpinMS: 50}, calibration{SpinMS: 45}); !near(got, 0.9) {
		t.Errorf("no triad, faster spin: drift = %v, want 0.9", got)
	}
}

// TestContractMatchesMetricTable holds BENCHMARK.json and the tables in
// metrics.go and workload.go together: names, units, directions, bounds.
func TestContractMatchesMetricTable(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, c.Name, c.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", contract.EndToEnd, endToEnd)
	compare("per_layer", contract.PerLayer, perLayer)
}

package metrics

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestTotalsRecordAndSnapshot(t *testing.T) {
	tot := NewTotals()
	tot.Record("per-point", &Counters{IntersectionTests: 3, Flops: 10})
	tot.Record("per-point", &Counters{IntersectionTests: 2, Flops: 5})
	tot.Record("per-element", &Counters{Regions: 7})

	snap := tot.Snapshot()
	pp := snap["per-point"]
	if pp.Runs != 2 || pp.Counters.IntersectionTests != 5 || pp.Counters.Flops != 15 {
		t.Errorf("per-point aggregate wrong: %+v", pp)
	}
	if pe := snap["per-element"]; pe.Runs != 1 || pe.Counters.Regions != 7 {
		t.Errorf("per-element aggregate wrong: %+v", pe)
	}

	// Snapshots are copies: mutating the snapshot must not leak back.
	pp.Counters.Flops = 999
	if tot.Snapshot()["per-point"].Counters.Flops != 15 {
		t.Error("snapshot aliases internal state")
	}
}

func TestTotalsConcurrent(t *testing.T) {
	tot := NewTotals()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tot.Record("k", &Counters{QuadEvals: 1})
				_ = tot.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := tot.Snapshot()["k"]; got.Runs != workers*per || got.Counters.QuadEvals != workers*per {
		t.Errorf("lost updates: %+v", got)
	}
}

func TestCountersJSONTags(t *testing.T) {
	b, err := json.Marshal(Counters{IntersectionTests: 1, ScatteredLoads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"intersection_tests", "true_positives", "regions", "quad_evals",
		"flops", "bytes_read", "bytes_uncoalesced", "scattered_loads",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("marshalled Counters missing %q: %s", key, b)
		}
	}
}

// TestFaultCountersSnapshot: a pointer to the live counters marshals as
// their values under the /debug/metrics keys.
func TestFaultCountersSnapshot(t *testing.T) {
	var f FaultCounters
	f.PanicsRecovered.Add(2)
	f.TileRetries.Add(3)
	f.JobRetries.Add(1)
	f.TilesFailed.Add(4)
	f.DegradedJobs.Add(5)
	f.JobsReplayed.Add(6)
	b, err := json.Marshal(&f)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"panics_recovered":2,"tile_retries":3,"job_retries":1,` +
		`"tiles_failed":4,"degraded_jobs":5,"jobs_replayed":6}`
	if string(b) != want {
		t.Fatalf("marshalled %s, want %s", b, want)
	}
}

// TestEWMA: the first sample is taken as-is, later ones fold in at
// alpha = 0.2, and the average marshals as its value.
func TestEWMA(t *testing.T) {
	var e EWMA
	if e.Value() != 0 {
		t.Fatal("EWMA non-zero before any observation")
	}
	e.Observe(1)
	if got := e.Value(); got != 1 {
		t.Fatalf("first sample: %v, want 1", got)
	}
	e.Observe(2)
	if got := e.Value(); math.Abs(got-1.2) > 1e-15 {
		t.Fatalf("second sample: %v, want 1.2", got)
	}
	b, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.FormatFloat(e.Value(), 'g', -1, 64); string(b) != want {
		t.Fatalf("marshalled %s, want %s", b, want)
	}
}

package metrics

import "sync"

// TotalSnapshot is one keyed aggregate in a Totals snapshot.
type TotalSnapshot struct {
	// Runs is how many times Record was called for the key.
	Runs uint64 `json:"runs"`
	// Counters is the element-wise sum of every recorded Counters value.
	Counters Counters `json:"counters"`
}

// Totals aggregates Counters by an arbitrary string key (scheme name, mesh
// id, endpoint, ...) from concurrently executing recorders, and produces
// consistent point-in-time snapshots. It is the bridge between the
// per-run Counters this package has always provided and a long-running
// process that must report cumulative per-scheme totals over its lifetime
// (e.g. the unstencild /debug/metrics endpoint). The zero value is NOT
// ready; use NewTotals.
type Totals struct {
	mu    sync.Mutex
	byKey map[string]*TotalSnapshot
}

// NewTotals returns an empty collector.
func NewTotals() *Totals {
	return &Totals{byKey: make(map[string]*TotalSnapshot)}
}

// Record merges c into the aggregate for key. Safe for concurrent use; c is
// not retained.
func (t *Totals) Record(key string, c *Counters) {
	t.mu.Lock()
	agg := t.byKey[key]
	if agg == nil {
		agg = &TotalSnapshot{}
		t.byKey[key] = agg
	}
	agg.Runs++
	agg.Counters.Add(c)
	t.mu.Unlock()
}

// Snapshot returns a copy of every keyed aggregate, consistent with respect
// to concurrent Record calls (each recorded Counters value is either fully
// present or fully absent).
func (t *Totals) Snapshot() map[string]TotalSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TotalSnapshot, len(t.byKey))
	for k, v := range t.byKey {
		out[k] = *v
	}
	return out
}

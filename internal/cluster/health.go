package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"unstencil/internal/par"
)

// ShardState is the health checker's verdict on one shard.
type ShardState int32

const (
	// StateUnknown means no probe has completed yet.
	StateUnknown ShardState = iota
	// StateReady means the shard answered /readyz with 200: startup work is
	// done and its job queue has room. Route traffic here.
	StateReady
	// StateNotReady means the shard answered /readyz with a non-200 status:
	// the process is alive (liveness holds) but asked not to receive new
	// work — still replaying its journal, or its queue is saturated. Honest
	// back-pressure, not a failure: do not route, do not count as down.
	StateNotReady
	// StateDown means probes have failed at the transport level (connection
	// refused, timeout) for at least the failure threshold in a row.
	StateDown
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case StateReady:
		return "ready"
	case StateNotReady:
		return "not-ready"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// MarshalText implements encoding.TextMarshaler: the state's String.
func (s ShardState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ShardHealth is one shard's health record.
type ShardHealth struct {
	Shard            string     `json:"shard"`
	State            ShardState `json:"state"`
	ConsecutiveFails int        `json:"consecutive_fails"`
	Probes           uint64     `json:"probes"`
	LastError        string     `json:"last_error,omitempty"`
}

// HealthChecker polls every shard's GET /readyz on a fixed interval and
// classifies each as Ready, NotReady or Down. A single transport failure
// does not mark a shard down — only Threshold consecutive failures do, so
// one dropped packet cannot trigger a failover stampede. Distinguishing
// NotReady from Down matters for routing: a saturated shard recovers by
// itself and keeps its keyspace; a down shard's keys fail over.
type HealthChecker struct {
	shards    []string
	hc        *http.Client
	interval  time.Duration
	threshold int
	log       *slog.Logger

	mu sync.Mutex
	st map[string]*ShardHealth

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	polling   sync.WaitGroup
}

// NewHealthChecker builds a checker over the shard set. interval <= 0
// defaults to 1s, threshold <= 0 to 3.
func NewHealthChecker(shards []string, hc *http.Client, interval time.Duration, threshold int, log *slog.Logger) *HealthChecker {
	if interval <= 0 {
		interval = time.Second
	}
	if threshold <= 0 {
		threshold = 3
	}
	h := &HealthChecker{
		shards:    append([]string(nil), shards...),
		hc:        hc,
		interval:  interval,
		threshold: threshold,
		log:       log,
		st:        make(map[string]*ShardHealth, len(shards)),
		stop:      make(chan struct{}),
	}
	for _, s := range h.shards {
		h.st[s] = &ShardHealth{Shard: s}
	}
	return h
}

// Start launches the polling loop. Safe to call once; Stop ends it.
func (h *HealthChecker) Start() {
	h.startOnce.Do(func() {
		h.polling.Add(1)
		go func() {
			defer h.polling.Done()
			t := time.NewTicker(h.interval)
			defer t.Stop()
			for {
				select {
				case <-h.stop:
					return
				case <-t.C:
					h.CheckNow()
				}
			}
		}()
	})
}

// Stop ends the polling loop and waits for it to exit. Safe to call
// without Start and safe to call twice.
func (h *HealthChecker) Stop() {
	h.startOnce.Do(func() {}) // a later Start must not begin polling
	h.stopOnce.Do(func() { close(h.stop) })
	h.polling.Wait()
}

// CheckNow runs one synchronous probe pass over all shards. The polling
// loop calls it on its ticker; tests call it directly for deterministic
// state transitions without sleeping.
func (h *HealthChecker) CheckNow() {
	if err := par.For(len(h.shards), len(h.shards), func(_, i int) error {
		h.probe(h.shards[i])
		return nil
	}); err != nil {
		// A probe panicked: this pass may miss the shards after it; the
		// polling loop lives on.
		if h.log != nil {
			h.log.Error("shard health probe panicked", "err", err)
		}
	}
}

func (h *HealthChecker) probe(shard string) {
	ctx, cancel := context.WithTimeout(context.Background(), h.interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard+"/readyz", nil)
	var resp *http.Response
	if err == nil {
		resp, err = h.hc.Do(req)
	}
	if err != nil {
		h.record(shard, StateDown, err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		h.record(shard, StateReady, nil)
	} else {
		h.record(shard, StateNotReady, fmt.Errorf("readyz: %s", resp.Status))
	}
}

// record folds one probe outcome into the shard's record. verdict is the
// immediate classification; Down is applied only after threshold
// consecutive transport failures (the shard keeps its previous state in
// the interim, so a momentary blip does not reroute traffic).
func (h *HealthChecker) record(shard string, verdict ShardState, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.st[shard]
	if st == nil {
		return
	}
	st.Probes++
	prev := st.State
	switch verdict {
	case StateDown:
		st.ConsecutiveFails++
		st.LastError = err.Error()
		if st.ConsecutiveFails >= h.threshold || prev == StateUnknown {
			st.State = StateDown
		}
	case StateNotReady:
		st.ConsecutiveFails = 0
		st.LastError = err.Error()
		st.State = StateNotReady
	default:
		st.ConsecutiveFails = 0
		st.LastError = ""
		st.State = StateReady
	}
	if st.State != prev && h.log != nil {
		h.log.Info("shard health transition",
			"shard", shard, "from", prev.String(), "to", st.State.String(),
			"consecutive_fails", st.ConsecutiveFails, "err", st.LastError)
	}
}

// State returns the shard's current classification (StateUnknown for a
// shard the checker does not track).
func (h *HealthChecker) State(shard string) ShardState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if st, ok := h.st[shard]; ok {
		return st.State
	}
	return StateUnknown
}

// MarkDown forces a shard's record to Down immediately, bypassing the
// threshold. The router calls it when a request to the shard fails at the
// transport level after exhausting retries — stronger evidence than a
// missed probe, and it keeps the routing table honest between probe ticks.
func (h *HealthChecker) MarkDown(shard string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.st[shard]
	if st == nil {
		return
	}
	prev := st.State
	st.State = StateDown
	st.ConsecutiveFails = max(st.ConsecutiveFails, h.threshold)
	if err != nil {
		st.LastError = err.Error()
	}
	if prev != StateDown && h.log != nil {
		h.log.Info("shard marked down by router", "shard", shard, "err", st.LastError)
	}
}

// Counts returns how many shards are currently Ready and how many Down.
func (h *HealthChecker) Counts() (ready, down int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, st := range h.st {
		switch st.State {
		case StateReady:
			ready++
		case StateDown:
			down++
		}
	}
	return ready, down
}

// Snapshot returns every shard's health record, in shard order.
func (h *HealthChecker) Snapshot() []ShardHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ShardHealth, 0, len(h.shards))
	for _, shard := range h.shards {
		out = append(out, *h.st[shard])
	}
	return out
}

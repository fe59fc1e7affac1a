package metrics

import (
	"encoding/json"
	"math"
	"strconv"
	"sync/atomic"
)

// Counter is a monotone event count shared between goroutines. It
// marshals as its current value, so a struct of Counters is its own JSON
// view: encode a pointer to it, never a copy.
type Counter struct{ atomic.Uint64 }

// MarshalJSON implements json.Marshaler.
func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendUint(nil, c.Load(), 10), nil
}

// ewmaAlpha weights the newest sample at 1/5: responsive to a workload
// shift, stable against one outlier.
const ewmaAlpha = 0.2

// EWMA is an exponentially weighted moving average updated lock-free
// (samples can arrive concurrently from job workers). The first sample is
// taken as-is; 0 means no sample yet. It marshals as its value.
type EWMA struct{ bits atomic.Uint64 }

// Observe folds one sample into the average.
func (e *EWMA) Observe(x float64) {
	for {
		old := e.bits.Load()
		next := x
		if old != 0 {
			next = ewmaAlpha*x + (1-ewmaAlpha)*math.Float64frombits(old)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current average (0 before the first sample).
func (e *EWMA) Value() float64 { return math.Float64frombits(e.bits.Load()) }

// MarshalJSON implements json.Marshaler.
func (e *EWMA) MarshalJSON() ([]byte, error) { return json.Marshal(e.Value()) }

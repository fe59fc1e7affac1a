// Package par is the program's one parallel-for. Every per-unit fan-out —
// core's scheme blocks and patches, assembly rows, batch query points and
// grid-building chunks, the operator's row blocks, and the cluster
// coordinator's per-shard requests — runs on For.
//
// A unit is an independent piece of work whose write set the caller has
// made disjoint from every other unit's: a per-point block (a strided slice
// of the solution), a per-element patch (its own scratch-pad, paper §4), an
// operator row block, a shard's slot in a result slice. For hands each unit
// to exactly one worker and never looks inside it, and a unit's output does
// not depend on which worker ran it or when — so the schedule cannot reach
// the floating-point results and a parallel run is bit-identical to the
// serial one.
//
// Being the one place such goroutines start, For is also the one place a
// panicking unit is caught: every unit, inline or on a goroutine, runs
// under Call, and its panic comes back to the caller as a *PanicError
// instead of killing the process.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a unit of work. A unit's write
// set is disjoint from every other unit's, which is what makes recovery
// sound: a panicked unit cannot have corrupted any other unit's output.
type PanicError struct {
	Unit  int // the unit index (or the id the caller handed Call)
	Value any // the recovered panic value
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("unit %d panicked: %v", e.Unit, e.Value)
}

// Call runs fn as unit u, converting a panic into a *PanicError so a
// failing unit is isolated from its siblings and from the process.
func Call(u int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Unit: u, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// For executes units 0..n-1 on up to `workers` goroutines, each claiming
// the next unit from a shared atomic counter, and returns the first unit
// error. unit receives the worker index (for per-worker scratch) and the
// unit. A panicking unit is recovered into a *PanicError carrying its
// index. After the first failure no new unit is claimed; units already in
// flight finish. workers <= 1 (or n <= 1) runs inline in unit order.
func For(workers, n int, unit func(w, u int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		first  error
	)
	work := func(w int) {
		for !failed.Load() {
			u := int(next.Add(1)) - 1
			if u >= n {
				return
			}
			if err := Call(u, func() error { return unit(w, u) }); err != nil {
				if failed.CompareAndSwap(false, true) {
					first = err
				}
				return
			}
		}
	}
	if workers = min(workers, n); workers <= 1 {
		work(0)
		return first
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return first
}

// Chunks runs fn over [0, n) in contiguous index ranges of size indices
// (the last one possibly shorter), each a For unit, so a panicking range
// comes back as a *PanicError. fn's ranges must write disjoint outputs.
func Chunks(workers, n, size int, fn func(lo, hi int)) error {
	return For(workers, (n+size-1)/size, func(_, u int) error {
		fn(u*size, min((u+1)*size, n))
		return nil
	})
}

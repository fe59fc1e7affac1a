package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryUnitOnce dispatches n units over varying worker
// counts and checks each unit executes exactly once, including the inline
// workers<=1 path and workers > n clamping.
func TestForRunsEveryUnitOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 17}, {2, 17}, {4, 17}, {8, 3}, {3, 0}, {4, 1},
	} {
		ran := make([]atomic.Int64, max(tc.n, 1))
		if err := For(tc.workers, tc.n, func(w, u int) error {
			ran[u].Add(1)
			return nil
		}); err != nil {
			t.Errorf("workers=%d n=%d: %v", tc.workers, tc.n, err)
		}
		for u := 0; u < tc.n; u++ {
			if got := ran[u].Load(); got != 1 {
				t.Errorf("workers=%d n=%d: unit %d ran %d times, want 1",
					tc.workers, tc.n, u, got)
			}
		}
	}
}

// TestForAbort checks that a unit error stops the dispatch and comes
// back to the caller: with a single inline worker, units after the failing
// one must not run.
func TestForAbort(t *testing.T) {
	errUnit := errors.New("unit failed")
	var ran int
	err := For(1, 10, func(w, u int) error {
		ran++
		if u == 3 {
			return errUnit
		}
		return nil
	})
	if ran != 4 || err != errUnit {
		t.Errorf("inline abort at unit 3: ran %d units (want 4), err %v", ran, err)
	}
	// Parallel: the failure stops workers from claiming more units. We can
	// only assert no unit runs twice, the call terminates and the error is
	// one a unit returned.
	seen := make([]atomic.Int64, 100)
	err = For(4, 100, func(w, u int) error {
		seen[u].Add(1)
		if u >= 10 {
			return errUnit
		}
		return nil
	})
	if err != errUnit {
		t.Errorf("parallel abort: err = %v, want the unit error", err)
	}
	for u := range seen {
		if got := seen[u].Load(); got > 1 {
			t.Errorf("unit %d ran %d times after abort, want <= 1", u, got)
		}
	}
}

// TestForPanicIsolated: a panicking unit must not take the process
// down from the inline path or from a dispatcher goroutine. It comes back as
// a *PanicError naming the unit, and every other unit that was claimed ran
// at most once.
func TestForPanicIsolated(t *testing.T) {
	const n, bad = 64, 5
	for _, workers := range []int{1, 4} {
		ran := make([]atomic.Int64, n)
		err := For(workers, n, func(w, u int) error {
			ran[u].Add(1)
			if u == bad {
				panic("unit blew up")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Unit != bad || pe.Value != "unit blew up" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error %+v, want unit %d with value and stack", workers, pe, bad)
		}
		for u := range ran {
			if got := ran[u].Load(); got > 1 || (u == bad && got != 1) {
				t.Errorf("workers=%d: unit %d ran %d times", workers, u, got)
			}
		}
		if workers == 1 {
			for u := bad + 1; u < n; u++ {
				if ran[u].Load() != 0 {
					t.Fatalf("inline: unit %d ran after the panic", u)
				}
			}
		}
	}
}

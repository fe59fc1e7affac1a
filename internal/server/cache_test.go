package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errMiss is lookup's build error: a failed build caches nothing.
var errMiss = errors.New("miss")

// lookup reads key through GetOrBuild with a builder that only records
// the miss and fails, so a lookup never inserts or evicts.
func lookup(t *testing.T, c *Cache, key string) (any, bool) {
	t.Helper()
	missed := false
	v, hit, err := c.GetOrBuild(key, func() (any, int64, error) {
		missed = true
		return nil, 0, errMiss
	})
	if hit == missed || (err != nil) != missed {
		t.Fatalf("lookup %s: hit=%v err=%v, builder ran=%v", key, hit, err, missed)
	}
	return v, hit
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(100)
	if _, ok := lookup(t, c, "a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	if v, ok := lookup(t, c, "a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	lookup(t, c, "a") // a is now more recently used than b
	c.Put("c", 3, 40)
	if _, ok := lookup(t, c, "b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := lookup(t, c, "a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := lookup(t, c, "c"); !ok {
		t.Error("c should have survived (just inserted)")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestCacheAdmitsOversizedEntryAlone(t *testing.T) {
	c := NewCache(100)
	c.Put("small", 1, 10)
	c.Put("huge", 2, 500)
	if _, ok := lookup(t, c, "huge"); !ok {
		t.Error("oversized entry must still be admitted")
	}
	if _, ok := lookup(t, c, "small"); ok {
		t.Error("small entry should have been evicted to make room")
	}
}

// A built value larger than the whole budget is served to the builder and
// to a waiter parked on the same build, but never cached: the entries
// already resident survive and the cache stays within budget.
func TestGetOrBuildRejectsOversize(t *testing.T) {
	c := NewCache(100)
	c.Put("mesh:a", 1, 40)
	if _, _, err := c.GetOrBuild("eval:b", func() (any, int64, error) { return 2, 40, nil }); err != nil {
		t.Fatal(err)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	led := make(chan any)
	go func() {
		v, hit, err := c.GetOrBuild("op:huge", func() (any, int64, error) {
			close(entered)
			<-release
			return "huge", 500, nil
		})
		if err != nil || hit {
			t.Errorf("oversize build: hit=%v err=%v", hit, err)
		}
		led <- v
	}()
	<-entered // the leader is inside the builder; the waiter must park
	waited := make(chan any)
	go func() {
		v, _, err := c.GetOrBuild("op:huge", func() (any, int64, error) {
			t.Error("waiter ran the builder during an in-flight build")
			return nil, 0, nil
		})
		if err != nil {
			t.Error(err)
		}
		waited <- v
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if v := <-led; v != "huge" {
		t.Fatalf("builder got %v, want the oversize value", v)
	}
	if v := <-waited; v != "huge" {
		t.Fatalf("waiter got %v, want the oversize value", v)
	}
	for _, key := range []string{"mesh:a", "eval:b"} {
		if _, ok := lookup(t, c, key); !ok {
			t.Errorf("%s was evicted by an oversize build", key)
		}
	}
	if _, ok := lookup(t, c, "op:huge"); ok {
		t.Error("oversize value was cached")
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes || st.RejectedOversize != 1 {
		t.Errorf("stats after oversize build: %+v", st)
	}
}

func TestCacheReplaceUpdatesSize(t *testing.T) {
	c := NewCache(100)
	c.Put("a", 1, 90)
	c.Put("a", 2, 10)
	if st := c.Stats(); st.Bytes != 10 || st.Entries != 1 {
		t.Fatalf("stats after replace %+v", st)
	}
	if v, _ := lookup(t, c, "a"); v.(int) != 2 {
		t.Fatal("replace did not update value")
	}
}

func TestGetOrBuildSingleflight(t *testing.T) {
	c := NewCache(1000)
	var builds atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrBuild("k", func() (any, int64, error) {
				builds.Add(1)
				<-gate // hold the build open so every waiter piles up
				return "built", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("builder ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "built" {
			t.Errorf("waiter %d got %v", i, v)
		}
	}
	if _, hit, _ := c.GetOrBuild("k", nil); !hit {
		t.Error("subsequent lookup should hit")
	}
}

func TestGetOrBuildErrorNotCached(t *testing.T) {
	c := NewCache(100)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("k", func() (any, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	calls := 0
	v, hit, err := c.GetOrBuild("k", func() (any, int64, error) {
		calls++
		return 42, 8, nil
	})
	if err != nil || hit || v.(int) != 42 || calls != 1 {
		t.Fatalf("retry after error: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
}

func TestCacheConcurrentChurn(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%16)
				if i%3 == 0 {
					c.Put(key, i, 8)
				} else {
					_, _, _ = c.GetOrBuild(key, func() (any, int64, error) { return i, 8, nil })
				}
				_ = c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 64 && st.Entries > 1 {
		t.Errorf("cache over budget after churn: %+v", st)
	}
}

// TestGetOrBuildErrorConcurrentWaiters: when a build fails while other
// goroutines wait on the same key, every waiter receives the build error,
// nothing is cached, and the next call re-runs the builder (which may then
// succeed). Run under -race.
func TestGetOrBuildErrorConcurrentWaiters(t *testing.T) {
	c := NewCache(100)
	boom := errors.New("boom")
	const waiters = 16

	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	build := func() (any, int64, error) {
		calls.Add(1)
		close(entered)
		<-release
		return nil, 0, boom
	}

	errs := make(chan error, waiters)
	go func() {
		_, _, err := c.GetOrBuild("k", build)
		errs <- err
	}()
	<-entered // the leader is inside the builder; everyone else must wait

	var wg sync.WaitGroup
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.GetOrBuild("k", func() (any, int64, error) {
				t.Error("waiter ran the builder during an in-flight build")
				return nil, 0, nil
			})
			errs <- err
		}()
	}
	// Give the waiters a moment to park on the in-flight call, then fail it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("builder ran %d times during the failed round, want 1", got)
	}
	if _, ok := lookup(t, c, "k"); ok {
		t.Fatal("failed build left a cached value")
	}

	// The failure must not poison the key: a later call rebuilds.
	v, hit, err := c.GetOrBuild("k", func() (any, int64, error) { return 7, 8, nil })
	if err != nil || hit || v.(int) != 7 {
		t.Fatalf("rebuild after failure: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestCacheCountsEveryLookup: each GetOrBuild call is one hit or one
// miss, including callers that wait on another caller's in-flight build,
// so hits + misses is the number of lookups both in Stats and summed over
// the key classes.
func TestCacheCountsEveryLookup(t *testing.T) {
	const concurrent, later = 8, 5
	c := NewCache(1000)
	entered, release := make(chan struct{}), make(chan struct{})
	build := func() (any, int64, error) {
		close(entered)
		<-release
		return "built", 8, nil
	}
	var wg sync.WaitGroup
	wg.Add(concurrent)
	go func() {
		defer wg.Done()
		if _, _, err := c.GetOrBuild("op:k", build); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the leader holds the build open; the rest must wait on it
	for i := 1; i < concurrent; i++ {
		go func() {
			defer wg.Done()
			if _, _, err := c.GetOrBuild("op:k", build); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i := 0; i < later; i++ {
		if _, hit, err := c.GetOrBuild("op:k", build); err != nil || !hit {
			t.Fatalf("later lookup %d: hit=%v err=%v", i, hit, err)
		}
	}

	if st := c.Stats(); st.Hits+st.Misses != concurrent+later {
		t.Errorf("Stats: hits %d + misses %d, want %d lookups", st.Hits, st.Misses, concurrent+later)
	}
	var hits, misses uint64
	for _, cs := range c.StatsByClass() {
		hits += cs.Hits
		misses += cs.Misses
	}
	if hits+misses != concurrent+later {
		t.Errorf("StatsByClass: hits %d + misses %d, want %d lookups", hits, misses, concurrent+later)
	}
}

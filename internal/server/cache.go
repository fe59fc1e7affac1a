package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"unstencil/internal/artifact"
)

// Cache is a size-bounded LRU keyed by string, with hit/miss/eviction
// counters and duplicate-suppressed builds: concurrent GetOrBuild calls for
// the same missing key run the builder once and share the result. It holds
// the service's warm artifacts — decoded meshes, projected dG fields,
// evaluators (SIAC kernel tables + hash grids), and tilings — so repeated
// jobs against the same inputs skip their dominant setup cost, the data
// reuse the paper's argument is built on.
//
// Sizes are caller-supplied byte estimates; the cache evicts
// least-recently-used entries until the running total fits MaxBytes. A
// value GetOrBuild builds larger than MaxBytes is handed to its callers
// but not cached: admitting it would evict everything else and still leave
// the cache over budget. Put admits such an entry alone, because a mesh
// held nowhere else (no store attached) must stay resident for the jobs
// that name it.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*buildCall

	rejectedOversize uint64
	// classes keeps the hit, miss and eviction counters by key class (the
	// prefix before ':': "mesh", "eval", "op", "qop", ...), so
	// /debug/metrics can answer "how many bytes do assembled operators hold
	// resident, and how often are they evicted"; Stats sums them.
	classes map[string]*ClassStats
}

// ClassStats is the per-key-class slice of the cache counters. Bytes and
// Entries are current residency; Hits/Misses/Evictions are cumulative.
type ClassStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// class returns (creating if needed) the stats bucket for key. Requires
// c.mu.
func (c *Cache) class(key string) *ClassStats {
	name := artifact.KeyClass(key)
	cs, ok := c.classes[name]
	if !ok {
		cs = &ClassStats{}
		c.classes[name] = cs
	}
	return cs
}

type cacheEntry struct {
	key   string
	value any
	size  int64
}

type buildCall struct {
	done  chan struct{}
	value any
	size  int64
	err   error
}

// NewCache returns a cache bounded to maxBytes of estimated artifact size.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("server: cache size must be positive, got %d", maxBytes))
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*buildCall),
		classes:  make(map[string]*ClassStats),
	}
}

// Put inserts or replaces key, then evicts LRU entries over budget.
func (c *Cache) Put(key string, value any, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, value, size)
}

// put inserts with c.mu held.
func (c *Cache) put(key string, value any, size int64) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.curBytes += size - ent.size
		c.class(key).Bytes += size - ent.size
		ent.value, ent.size = value, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, value: value, size: size})
		c.curBytes += size
		cs := c.class(key)
		cs.Entries++
		cs.Bytes += size
	}
	// Evict from the back, but never the entry just touched.
	for c.curBytes > c.maxBytes && c.ll.Len() > 1 {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.curBytes -= ent.size
		cs := c.class(ent.key)
		cs.Entries--
		cs.Bytes -= ent.size
		cs.Evictions++
	}
}

// GetOrBuild returns the cached value for key, or runs build to create it.
// The second return reports whether the value came from cache (a hit);
// every call counts as one hit or one miss in its key class.
// Concurrent calls for the same missing key block on a single build; build
// errors are returned to every waiter and nothing is cached. A built value
// larger than MaxBytes is returned to the builder and every waiter without
// being cached, and counted in RejectedOversize.
func (c *Cache) GetOrBuild(key string, build func() (value any, size int64, err error)) (any, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.class(key).Hits++
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).value
		c.mu.Unlock()
		return v, true, nil
	}
	c.class(key).Misses++
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, call.err
		}
		// The build succeeded but may already have been evicted; a waiter
		// counts as a shared miss and returns the built value directly.
		return call.value, false, nil
	}
	// err stands until build returns: a panicking build releases its
	// waiters with it and caches nothing, so the next call rebuilds, while
	// the panic goes on to the builder's own boundary.
	call := &buildCall{done: make(chan struct{}), err: errBuildPanicked}
	c.inflight[key] = call
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if call.err == nil {
			if call.size > c.maxBytes {
				c.rejectedOversize++
			} else {
				c.put(key, call.value, call.size)
			}
		}
		c.mu.Unlock()
		close(call.done)
	}()
	call.value, call.size, call.err = build()
	return call.value, false, call.err
}

// errBuildPanicked is what waiters on a build that panicked receive.
var errBuildPanicked = errors.New("cache: build panicked")

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	// RejectedOversize counts built values larger than MaxBytes that
	// GetOrBuild returned without caching.
	RejectedOversize uint64 `json:"rejected_oversize"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// StatsByClass returns the counters broken down by key class. The "op"
// and "qop" rows are the assembled-operator LRU accounting: resident
// bytes (encoded/Stats sizes, not entry counts) and cumulative evictions.
func (c *Cache) StatsByClass() map[string]ClassStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]ClassStats, len(c.classes))
	for name, cs := range c.classes {
		out[name] = *cs
	}
	return out
}

// Stats returns current counters, the hits, misses and evictions summed
// over the key classes.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Entries:          c.ll.Len(),
		Bytes:            c.curBytes,
		MaxBytes:         c.maxBytes,
		RejectedOversize: c.rejectedOversize,
	}
	for _, cs := range c.classes {
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.Evictions += cs.Evictions
	}
	return st
}

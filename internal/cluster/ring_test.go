package cluster

import (
	"fmt"
	"slices"
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate shard accepted")
	}
	r, err := NewRing([]string{"a"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.VNodes() != DefaultVNodes {
		t.Errorf("vnodes = %d, want default %d", r.VNodes(), DefaultVNodes)
	}
}

// TestRingDeterministic: two rings built from the same shard set (in any
// order) route every key identically — the property that lets coordinator
// and tests agree on placement with no coordination.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"s0", "s1", "s2"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"s2", "s0", "s1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("mesh-%d", i)
		if a.Pick(key) != b.Pick(key) {
			t.Fatalf("key %q: %q vs %q (shard order changed placement)", key, a.Pick(key), b.Pick(key))
		}
		ao, bo := a.Order(key), b.Order(key)
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("key %q: succession %v vs %v", key, ao, bo)
			}
		}
	}
}

// TestRingOrder: the succession for any key lists every shard exactly once,
// starting with Pick's choice.
func TestRingOrder(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3", "s4"}
	r, err := NewRing(shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]int{}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		order := r.Order(key)
		if len(order) != len(shards) {
			t.Fatalf("key %q: succession %v misses shards", key, order)
		}
		if order[0] != r.Pick(key) {
			t.Fatalf("key %q: Order[0] %q != Pick %q", key, order[0], r.Pick(key))
		}
		seen := map[string]bool{}
		for _, s := range order {
			if seen[s] {
				t.Fatalf("key %q: %q appears twice in %v", key, s, order)
			}
			seen[s] = true
		}
		hits[order[0]]++
	}
	// Sanity: with 100 keys over 5 shards and 16 vnodes, no shard should be
	// starved completely.
	for _, s := range shards {
		if hits[s] == 0 {
			t.Errorf("shard %s owns no keys of 100 (ring badly unbalanced)", s)
		}
	}
}

// TestRingStability: removing one shard only moves keys that were on it —
// the consistent-hashing contract that keeps failover churn proportional
// to the failure, not the cluster.
func TestRingStability(t *testing.T) {
	full, err := NewRing([]string{"s0", "s1", "s2", "s3"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"s0", "s1", "s3"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := full.Pick(key), reduced.Pick(key)
		if was != "s2" && was != is {
			t.Fatalf("key %q moved %q -> %q though its shard survived", key, was, is)
		}
		if was == "s2" {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no key was owned by the removed shard; test has no teeth")
	}
}

// TestSplitPatches: contiguous near-equal ranges that exactly cover [0, k),
// one per shard (capped at k), each with the full succession as its
// failover chain.
func TestSplitPatches(t *testing.T) {
	order := []string{"s0", "s1", "s2"}
	for _, k := range []int{1, 2, 3, 7, 16} {
		as := splitPatches(order, k)
		wantN := min(len(order), k)
		if len(as) != wantN {
			t.Fatalf("k=%d: %d assignments, want %d", k, len(as), wantN)
		}
		next := 0
		for i, a := range as {
			if a.succession[0] != order[i] {
				t.Errorf("k=%d assignment %d: assignee %q, want %q", k, i, a.succession[0], order[i])
			}
			if len(a.succession) != len(order) {
				t.Errorf("k=%d assignment %d: succession %v not the full shard set", k, i, a.succession)
			}
			if len(a.patches) == 0 {
				t.Errorf("k=%d assignment %d: empty patch range", k, i)
			}
			for _, p := range a.patches {
				if p != next {
					t.Fatalf("k=%d: patch %d out of order (want %d) — ranges not contiguous", k, p, next)
				}
				next++
			}
		}
		if next != k {
			t.Fatalf("k=%d: ranges cover %d patches", k, next)
		}
		// Near-equal: range sizes differ by at most one.
		lo, hi := k, 0
		for _, a := range as {
			if len(a.patches) < lo {
				lo = len(a.patches)
			}
			if len(a.patches) > hi {
				hi = len(a.patches)
			}
		}
		if hi-lo > 1 {
			t.Errorf("k=%d: range sizes span [%d, %d]", k, lo, hi)
		}
	}
}

// TestRingPlacementPinned pins where keys land, as recorded before hash64
// moved onto fault.HashString. Any change to placement re-homes every mesh,
// and coordinators of two versions over one shard list would disagree
// about where a mesh lives.
func TestRingPlacementPinned(t *testing.T) {
	shards := []string{"http://10.0.0.1:9090", "http://10.0.0.2:9090", "http://10.0.0.3:9090"}
	r, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key   string
		order [3]int // indices into shards
	}{
		{"", [3]int{2, 1, 0}},
		{"a", [3]int{0, 1, 2}},
		{"mesh-0", [3]int{2, 1, 0}},
		{"mesh-1", [3]int{1, 2, 0}},
		{"mesh-2", [3]int{1, 0, 2}},
		{"3f9a0c1e", [3]int{0, 1, 2}},
		{"b7e1c2d40f5a6b8c", [3]int{1, 2, 0}},
		{"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", [3]int{0, 1, 2}},
	} {
		want := []string{shards[tc.order[0]], shards[tc.order[1]], shards[tc.order[2]]}
		if got := r.Order(tc.key); !slices.Equal(got, want) {
			t.Errorf("key %q: order %v, pinned %v", tc.key, got, want)
		}
	}
}

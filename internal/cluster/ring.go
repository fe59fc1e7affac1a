// Package cluster implements the unstencil coordinator: a front-end that
// partitions work across a set of unstencild shard processes and merges
// their partial results bit-deterministically.
//
// The paper's scaling argument (§4) divides the mesh into patches and
// distributes them across devices; internal/device models that machine,
// and this package is the real deployment of the same decomposition across
// processes. Three properties make the distribution exact rather than
// approximate:
//
//  1. The k-patch tiling is deterministic given (mesh, parameters, k), so
//     every shard derives the identical decomposition independently — the
//     coordinator ships patch *ids*, never patch *data*.
//  2. A patch's scratch-pad buffer is accumulated element-by-element in
//     PatchElems order regardless of which process runs it.
//  3. The coordinator merges patch buffers with core.MergePartials, the
//     merge a single process runs, so the result is a single-process
//     per-element run bit for bit.
//
// Robustness: per-shard health checking (liveness + readiness), capped
// exponential retry with deterministic jitter, hedged reads, failover to
// ring successors, and — when a shard stays down past its budget — graceful
// degradation to allow_partial results with honest coverage accounting
// (the coordinator builds the tiling itself from the retained mesh bytes,
// so it knows a dead shard's uncovered points by property 1).
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"unstencil/internal/fault"
)

// DefaultVNodes is the virtual-node count per shard. More vnodes smooth
// the load split and shrink the keyspace slice that moves when a shard
// joins or leaves.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is a consistent-hash ring over the configured shard set. It is
// immutable after construction; liveness is layered on top by the router,
// which walks Order and skips unhealthy shards. Keeping the ring static
// means a shard bouncing in and out of readiness never reshuffles the
// assignment of healthy keys — traffic returns to its home shard the
// moment the shard does.
type Ring struct {
	shards []string
	vnodes int
	points []ringPoint // sorted by hash
}

// NewRing builds the ring. Shards must be non-empty and distinct; vnodes
// <= 0 takes DefaultVNodes.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: at least one shard is required")
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, errors.New("cluster: empty shard address")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		shards: append([]string(nil), shards...),
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(shards)*vnodes),
	}
	for i, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", s, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the ring is
		// identical however the sort ran.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// hash64 is FNV-1a pushed through the SplitMix64 finalizer. Raw FNV-1a has
// weak avalanche on short, similar keys (shard addresses differing in one
// digit, vnode labels differing only in their suffix), which clusters the
// ring badly enough to starve shards; the mixer restores a uniform spread.
func hash64(key string) uint64 { return fault.Mix64(fault.HashString(key)) }

// Shards returns the configured shard set in construction order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// VNodes returns the virtual-node count per shard.
func (r *Ring) VNodes() int { return r.vnodes }

// successor returns the index in r.points of the first virtual node at or
// after the key's hash, wrapping at the top of the circle.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Pick returns the shard owning key: the one whose virtual node is the
// key's successor on the circle.
func (r *Ring) Pick(key string) string {
	return r.shards[r.points[r.successor(key)].shard]
}

// Order returns every shard exactly once, in ring-succession order from
// the key's position: Order(key)[0] is Pick(key), Order(key)[1] is the
// first distinct shard after it, and so on. This is the failover
// succession — when the owner is down, work moves to the next entry — and
// the replica map for hedged reads.
func (r *Ring) Order(key string) []string {
	out := make([]string, 0, len(r.shards))
	taken := make([]bool, len(r.shards))
	start := r.successor(key)
	for i := 0; i < len(r.points) && len(out) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.shard] {
			taken[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// Package tile implements the paper's overlapped tiling scheme (§4): the
// mesh is partitioned into k patches by recursive bisection; each
// concurrently executing patch accumulates partial solutions into its own
// scratch-pad buffer, sized to hold exactly the grid points that can receive
// contributions from the patch's elements; a final reduction sums the
// overlapping regions into the global solution.
//
// Because every patch writes only to its own buffer, patches never contend,
// which is what lets all tiles start concurrently without pipelining. The
// price is the memory overhead measured by Overhead: points near patch
// boundaries hold one partial solution per touching patch. The overhead
// shrinks as meshes grow (patch area grows quadratically, boundary length
// linearly) — Fig. 8 of the paper, reproduced by the fig8 experiment.
package tile

import (
	"fmt"
	"sync"

	"unstencil/internal/mesh"
)

// Tiling is the patch decomposition plus the partial-solution slot
// bookkeeping for one (mesh, computation grid) pair.
type Tiling struct {
	K          int
	ElemPatch  []int     // patch id per mesh element
	PatchElems [][]int32 // elements of each patch
	// Slots lists, per patch, the global point ids that can receive partial
	// solutions from that patch (ascending).
	Slots [][]int32
	// slotIdx maps, per patch, global point id -> local slot (-1 when the
	// point is outside the patch's influence region).
	slotIdx [][]int32
	// owned lists, per patch, the grid points whose owning element lies in
	// the patch (ascending). The owned sets partition the grid, which is
	// what makes the two-stage reduction contention-free: each patch's
	// reducer writes exactly its owned points and nothing else. Precomputed
	// at build time so ReduceOwned walks its list instead of scanning and
	// filtering all NumPoints per call.
	owned [][]int32
	// colors memoises the conflict-graph colouring (Colors): the greedy
	// colouring is O(K²·slots) and the tiling is immutable after build, so
	// repeated callers share one computation.
	colorsOnce sync.Once
	colors     []int

	NumPoints int
}

// New builds a tiling with k patches. pointElem gives the owning element of
// each grid point. mark must invoke markPt for (a superset of) every grid
// point that element e can contribute a partial solution to — the caller
// supplies the same candidate enumeration the evaluator uses, so coverage
// is identical by construction.
func New(m *mesh.Mesh, pointElem []int32, k int, mark func(e int, markPt func(pt int32))) *Tiling {
	return NewWithPartition(m, pointElem, mesh.Partition(m, k), k, mark)
}

// NewWithPartition is New with a caller-supplied element-to-patch
// assignment (e.g. a workload-weighted bisection); elemPatch must map every
// element to a patch id in [0, k).
func NewWithPartition(m *mesh.Mesh, pointElem []int32, elemPatch []int, k int, mark func(e int, markPt func(pt int32))) *Tiling {
	if k < 1 {
		panic(fmt.Sprintf("tile: k must be >= 1, got %d", k))
	}
	if len(elemPatch) != m.NumTris() {
		panic(fmt.Sprintf("tile: partition covers %d of %d elements", len(elemPatch), m.NumTris()))
	}
	t := &Tiling{
		K:         k,
		ElemPatch: elemPatch,
		NumPoints: len(pointElem),
	}
	t.PatchElems = make([][]int32, k)
	for e, p := range t.ElemPatch {
		t.PatchElems[p] = append(t.PatchElems[p], int32(e))
	}

	// Owned-point lists: one pass over the grid, exact-size allocations.
	// Appending in ascending pt order keeps each list sorted, so the
	// owned-point reduction visits points in the same order the sequential
	// Reduce does.
	ownedCount := make([]int, k)
	for _, e := range pointElem {
		ownedCount[t.ElemPatch[e]]++
	}
	t.owned = make([][]int32, k)
	for p := range t.owned {
		t.owned[p] = make([]int32, 0, ownedCount[p])
	}
	for pt, e := range pointElem {
		p := t.ElemPatch[e]
		t.owned[p] = append(t.owned[p], int32(pt))
	}

	// Mark the influence region of each patch with a bitset, then freeze
	// into slot arrays.
	words := (t.NumPoints + 63) / 64
	bits := make([]uint64, words)
	t.Slots = make([][]int32, k)
	t.slotIdx = make([][]int32, k)
	for p := 0; p < k; p++ {
		for i := range bits {
			bits[i] = 0
		}
		for _, e := range t.PatchElems[p] {
			mark(int(e), func(pt int32) {
				bits[pt>>6] |= 1 << (uint(pt) & 63)
			})
		}
		idx := make([]int32, t.NumPoints)
		for i := range idx {
			idx[i] = -1
		}
		var slots []int32
		for w, word := range bits {
			for word != 0 {
				b := word & (-word)
				bit := trailingZeros(word)
				pt := int32(w*64 + bit)
				idx[pt] = int32(len(slots))
				slots = append(slots, pt)
				word ^= b
			}
		}
		t.Slots[p] = slots
		t.slotIdx[p] = idx
	}
	return t
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// Slot returns the local partial-solution slot of global point pt in patch
// p, or -1 when the point is outside the patch's influence region.
func (t *Tiling) Slot(p int, pt int32) int32 { return t.slotIdx[p][pt] }

// NewBuffers allocates one scratch-pad partial-solution buffer per patch.
func (t *Tiling) NewBuffers() [][]float64 {
	bufs := make([][]float64, t.K)
	for p := range bufs {
		bufs[p] = make([]float64, len(t.Slots[p]))
	}
	return bufs
}

// PartialValues returns the total number of stored partial solutions, the
// numerator of the memory-overhead ratio.
func (t *Tiling) PartialValues() int {
	n := 0
	for _, s := range t.Slots {
		n += len(s)
	}
	return n
}

// Overhead returns the tiling memory overhead relative to the baseline
// solution storage: total partial solutions / total grid points. 1.0 means
// no overhead (paper Fig. 8).
func (t *Tiling) Overhead() float64 {
	if t.NumPoints == 0 {
		return 0
	}
	return float64(t.PartialValues()) / float64(t.NumPoints)
}

// Reduce sums the per-patch partial solutions into out (length NumPoints),
// patch by patch in ascending order. It is the sequential definition of the
// reduction: the evaluator dispatches ReduceOwned per patch instead, and the
// tests hold that against this bit for bit.
func (t *Tiling) Reduce(bufs [][]float64, out []float64) {
	if len(out) != t.NumPoints {
		panic(fmt.Sprintf("tile: Reduce output length %d, want %d", len(out), t.NumPoints))
	}
	for i := range out {
		out[i] = 0
	}
	for p := 0; p < t.K; p++ {
		buf := bufs[p]
		for local, pt := range t.Slots[p] {
			out[pt] += buf[local]
		}
	}
}

// ReduceOwned computes the owned-point reduction for a single patch — one
// unit of the paper's two-stage reduction (§4): for every grid point whose
// owning element lies in patch p, it gathers the partial solutions from all
// patches into out, in ascending patch order exactly as Reduce sums them.
// Calling it for each patch (concurrently if desired — owned point sets are
// disjoint and partition the grid) is therefore bit-identical to Reduce. It
// walks the owned-point list frozen at build time, so one call costs
// O(|owned(p)|·K).
func (t *Tiling) ReduceOwned(p int, bufs [][]float64, out []float64) {
	for _, pt := range t.owned[p] {
		s := 0.0
		for q := 0; q < t.K; q++ {
			if sl := t.slotIdx[q][pt]; sl >= 0 {
				s += bufs[q][sl]
			}
		}
		out[pt] = s
	}
}

// OwnedPoints returns the grid points owned by patch p (ascending). The
// returned slice is shared; callers must not modify it.
func (t *Tiling) OwnedPoints(p int) []int32 { return t.owned[p] }

// uncoveredBits marks the union of the failed patches' influence regions in
// a fresh bitset of NumPoints bits.
func (t *Tiling) uncoveredBits(failed []int) []uint64 {
	words := (t.NumPoints + 63) / 64
	bits := make([]uint64, words)
	for _, p := range failed {
		if p < 0 || p >= t.K {
			panic(fmt.Sprintf("tile: uncovered patch %d outside [0, %d)", p, t.K))
		}
		for _, pt := range t.Slots[p] {
			bits[pt>>6] |= 1 << (uint(pt) & 63)
		}
	}
	return bits
}

// UncoveredPoints returns the number of grid points that lose at least one
// partial contribution when the given patches drop out (the union of their
// influence regions). The fault-tolerant per-element runner uses it to
// report coverage after tiles exhaust their retry budget: because each
// patch writes only its own scratch-pad, dropping a patch affects exactly
// these points and no others.
func (t *Tiling) UncoveredPoints(failed []int) int {
	if len(failed) == 0 {
		return 0
	}
	n := 0
	for _, w := range t.uncoveredBits(failed) {
		n += popcount(w)
	}
	return n
}

// UncoveredIDs returns the ids of the grid points that lose at least one
// partial contribution when the given patches drop out, ascending — the
// exact point set UncoveredPoints counts. The cluster coordinator reports
// these ids in degraded results so a client knows precisely which points
// carry an incomplete sum rather than just how many.
func (t *Tiling) UncoveredIDs(failed []int) []int32 {
	if len(failed) == 0 {
		return nil
	}
	var ids []int32
	for w, word := range t.uncoveredBits(failed) {
		for word != 0 {
			b := word & (-word)
			ids = append(ids, int32(w*64+trailingZeros(word)))
			word ^= b
		}
	}
	return ids
}

// Colors greedily colours the patch-overlap graph: two patches conflict
// when their influence regions share at least one grid point. Patches of
// one colour could execute concurrently writing directly into the global
// solution — the pipelined tiling alternative the paper compares against
// (no memory overhead, extra synchronisation between colour waves), which
// the tiling ablation models from this colouring. The result maps patch id
// to colour id; colours are 0..max. Computed once per tiling and cached
// (the tiling is immutable); callers must not mutate the returned slice.
func (t *Tiling) Colors() []int {
	t.colorsOnce.Do(func() { t.colors = t.computeColors() })
	return t.colors
}

func (t *Tiling) computeColors() []int {
	conflict := make([][]bool, t.K)
	for p := range conflict {
		conflict[p] = make([]bool, t.K)
	}
	// Influence regions are the slot sets; two patches conflict if the
	// sets intersect. Merge-scan over the sorted slot arrays.
	for a := 0; a < t.K; a++ {
		for b := a + 1; b < t.K; b++ {
			if slicesIntersect(t.Slots[a], t.Slots[b]) {
				conflict[a][b] = true
				conflict[b][a] = true
			}
		}
	}
	colors := make([]int, t.K)
	for p := range colors {
		colors[p] = -1
	}
	for p := 0; p < t.K; p++ {
		used := map[int]bool{}
		for q := 0; q < t.K; q++ {
			if conflict[p][q] && colors[q] >= 0 {
				used[colors[q]] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[p] = c
	}
	return colors
}

func slicesIntersect(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// MeasureOverhead computes the tiling memory-overhead ratio without
// building any slot indices or buffers, so it runs at full paper scale
// (Fig. 8's 1024k-triangle meshes) using one bitset of numPoints bits. It
// returns the total partial-solution count and the overhead ratio.
func MeasureOverhead(m *mesh.Mesh, numPoints, k int, mark func(e int, markPt func(pt int32))) (partials int, overhead float64) {
	if k < 1 {
		panic(fmt.Sprintf("tile: k must be >= 1, got %d", k))
	}
	elemPatch := mesh.Partition(m, k)
	patchElems := make([][]int32, k)
	for e, p := range elemPatch {
		patchElems[p] = append(patchElems[p], int32(e))
	}
	words := (numPoints + 63) / 64
	bits := make([]uint64, words)
	for p := 0; p < k; p++ {
		for i := range bits {
			bits[i] = 0
		}
		for _, e := range patchElems[p] {
			mark(int(e), func(pt int32) {
				bits[pt>>6] |= 1 << (uint(pt) & 63)
			})
		}
		for _, w := range bits {
			partials += popcount(w)
		}
	}
	if numPoints == 0 {
		return partials, 0
	}
	return partials, float64(partials) / float64(numPoints)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

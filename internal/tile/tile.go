// Package tile implements the paper's overlapped tiling scheme (§4): the
// mesh is partitioned into k patches by recursive bisection; each
// concurrently executing patch accumulates partial solutions into its own
// scratch-pad buffer, sized to hold exactly the grid points that can receive
// contributions from the patch's elements; a final reduction
// (core.MergePartials) sums the overlapping regions into the global solution.
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
	"math/bits"

	"unstencil/internal/mesh"
)

// Tiling is the patch decomposition plus each patch's slot list for one
// (mesh, computation grid) pair. A patch's scratch-pad holds one partial
// solution per entry of its slot list, so the lists are the whole of the
// tiling's partial-solution bookkeeping.
type Tiling struct {
	K          int
	ElemPatch  []int     // patch id per mesh element
	PatchElems [][]int32 // elements of each patch
	// Slots lists, per patch, the global point ids that can receive partial
	// solutions from that patch (ascending); a point's local slot is its
	// index in the list.
	Slots [][]int32

	NumPoints int
}

// New builds a tiling with k patches over a grid of numPoints points. mark
// must invoke markPt for (a superset of) every grid point that element e
// can contribute a partial solution to — the caller supplies the same
// candidate enumeration the evaluator uses, so coverage is identical by
// construction.
func New(m *mesh.Mesh, numPoints, k int, mark func(e int, markPt func(pt int32))) *Tiling {
	return NewWithPartition(m, numPoints, mesh.Partition(m, k), k, mark)
}

// NewWithPartition is New with a caller-supplied element-to-patch
// assignment (e.g. a workload-weighted bisection); elemPatch must map every
// element to a patch id in [0, k).
func NewWithPartition(m *mesh.Mesh, numPoints int, elemPatch []int, k int, mark func(e int, markPt func(pt int32))) *Tiling {
	if k < 1 {
		panic(fmt.Sprintf("tile: k must be >= 1, got %d", k))
	}
	if len(elemPatch) != m.NumTris() {
		panic(fmt.Sprintf("tile: partition covers %d of %d elements", len(elemPatch), m.NumTris()))
	}
	t := &Tiling{
		K:         k,
		ElemPatch: elemPatch,
		NumPoints: numPoints,
	}
	t.PatchElems = make([][]int32, k)
	for e, p := range t.ElemPatch {
		t.PatchElems[p] = append(t.PatchElems[p], int32(e))
	}

	// Mark the influence region of each patch with a bitset, then freeze
	// it into the patch's slot list.
	set := make([]uint64, (t.NumPoints+63)/64)
	t.Slots = make([][]int32, k)
	for p := 0; p < k; p++ {
		clear(set)
		for _, e := range t.PatchElems[p] {
			mark(int(e), func(pt int32) {
				set[pt>>6] |= 1 << (uint(pt) & 63)
			})
		}
		t.Slots[p] = setIDs(set)
	}
	return t
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

// UncoveredIDs returns the ids of the grid points that lose at least one
// partial contribution when the given patches drop out — the union of
// their influence regions, ascending. Because each patch writes only its
// own scratch-pad, dropping a patch affects exactly these points and no
// others: a degraded per-element run zeroes them (core.MergePartials),
// derives its coverage from their count, and reports them so a client
// knows precisely which points to distrust.
func (t *Tiling) UncoveredIDs(failed []int) []int32 {
	if len(failed) == 0 {
		return nil
	}
	set := make([]uint64, (t.NumPoints+63)/64)
	for _, p := range failed {
		if p < 0 || p >= t.K {
			panic(fmt.Sprintf("tile: uncovered patch %d outside [0, %d)", p, t.K))
		}
		for _, pt := range t.Slots[p] {
			set[pt>>6] |= 1 << (uint(pt) & 63)
		}
	}
	return setIDs(set)
}

// setIDs returns the ids of the bits set in set, ascending.
func setIDs(set []uint64) []int32 {
	n := 0
	for _, word := range set {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return nil
	}
	ids := make([]int32, 0, n)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, int32(w*64+bits.TrailingZeros64(word)))
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
// to colour id; colours are 0..max. Each call recomputes the colouring.
func (t *Tiling) Colors() []int {
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

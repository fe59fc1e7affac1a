package tile

import (
	"slices"
	"testing"
)

// TestUncoveredIDs: the id list must be exactly the ascending union of the
// failed patches' slot lists, and empty for an empty failed set.
func TestUncoveredIDs(t *testing.T) {
	m, pointElem, mark := testSetup(t, 8, 0.1)
	tl := New(m, len(pointElem), 6, mark)

	if got := tl.UncoveredIDs(nil); got != nil {
		t.Fatalf("UncoveredIDs(nil) = %v, want nil", got)
	}

	for _, failed := range [][]int{{2, 4}, {5, 1, 3}, {0, 1, 2, 3, 4, 5}} {
		ids := tl.UncoveredIDs(failed)
		if !slices.IsSorted(ids) {
			t.Fatalf("failed %v: ids not ascending: %v", failed, ids)
		}
		// Reference: union of the failed patches' slot lists.
		want := map[int32]bool{}
		for _, p := range failed {
			for _, pt := range tl.Slots[p] {
				want[pt] = true
			}
		}
		if len(ids) != len(want) {
			t.Fatalf("failed %v: %d ids, want %d", failed, len(ids), len(want))
		}
		for _, pt := range ids {
			if !want[pt] {
				t.Fatalf("failed %v: id %d not in any failed patch's slots", failed, pt)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range patch did not panic")
		}
	}()
	tl.UncoveredIDs([]int{99})
}

// TestUncoveredPoints: the number of points a failed set uncovers is one
// patch's slot count when it fails alone, the whole grid when every patch
// fails, and between the larger and the sum of two overlapping patches'
// counts when both fail.
func TestUncoveredPoints(t *testing.T) {
	m, pointElem, mark := testSetup(t, 8, 0.1)
	tl := New(m, len(pointElem), 4, mark)

	if n := len(tl.UncoveredIDs(nil)); n != 0 {
		t.Fatalf("nil failed set uncovered %d, want 0", n)
	}
	// A single failed patch uncovers exactly its slot set.
	for p := 0; p < tl.K; p++ {
		if ids := tl.UncoveredIDs([]int{p}); !slices.Equal(ids, tl.Slots[p]) {
			t.Fatalf("patch %d: uncovered %d, its slot list holds %d", p, len(ids), len(tl.Slots[p]))
		}
	}
	// All patches failed -> every point uncovered (influence regions cover
	// the grid, since every point is marked by its owning patch).
	all := make([]int, tl.K)
	for p := range all {
		all[p] = p
	}
	if n := len(tl.UncoveredIDs(all)); n != tl.NumPoints {
		t.Fatalf("all patches failed: uncovered %d, want %d", n, tl.NumPoints)
	}
	// The union of two overlapping patches is at most the sum, at least the
	// max, of the individual counts.
	a, b := len(tl.Slots[0]), len(tl.Slots[1])
	u := len(tl.UncoveredIDs([]int{0, 1}))
	if u > a+b || u < max(a, b) {
		t.Fatalf("union %d outside [%d, %d]", u, max(a, b), a+b)
	}
}

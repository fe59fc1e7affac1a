package tile

import (
	"slices"
	"testing"

	"unstencil/internal/geom"
	"unstencil/internal/grid"
	"unstencil/internal/mesh"
)

// testSetup builds a mesh, a one-point-per-element grid (centroids) and a
// marking function that marks every point within pad of an element's
// bounding box — a miniature of what the evaluator supplies.
func testSetup(t *testing.T, n int, pad float64) (*mesh.Mesh, []int32, func(e int, markPt func(int32))) {
	t.Helper()
	m := mesh.Structured(n)
	pts := make([]geom.Point, m.NumTris())
	pointElem := make([]int32, m.NumTris())
	for i := range pts {
		pts[i] = m.Centroid(i)
		pointElem[i] = int32(i)
	}
	g := grid.New(pts, m.LongestEdge()/2)
	mark := func(e int, markPt func(int32)) {
		box := m.Triangle(e).Bounds().Pad(pad)
		g.ForEachInBox(box, 0, func(id int32) { markPt(id) })
	}
	return m, pointElem, mark
}

func TestNewTilingBasics(t *testing.T) {
	m, pointElem, mark := testSetup(t, 8, 0.1)
	tl := New(m, len(pointElem), 4, mark)
	if tl.K != 4 {
		t.Fatalf("K = %d", tl.K)
	}
	total := 0
	for p := 0; p < 4; p++ {
		total += len(tl.PatchElems[p])
	}
	if total != m.NumTris() {
		t.Fatalf("patch elements sum to %d, want %d", total, m.NumTris())
	}
	if tl.Overhead() < 1 {
		t.Errorf("overhead %v < 1: every point must be stored at least once", tl.Overhead())
	}
}

// Each patch's slot list is ascending, unique, and exactly the set of
// points the marker reaches from the patch's elements.
func TestSlotsConsistent(t *testing.T) {
	m, pointElem, mark := testSetup(t, 6, 0.15)
	tl := New(m, len(pointElem), 3, mark)
	for p := 0; p < tl.K; p++ {
		want := map[int32]bool{}
		for _, e := range tl.PatchElems[p] {
			mark(int(e), func(pt int32) { want[pt] = true })
		}
		slots := tl.Slots[p]
		for i, pt := range slots {
			if i > 0 && slots[i-1] >= pt {
				t.Fatalf("patch %d: slots not ascending and unique at %d: %d then %d", p, i, slots[i-1], pt)
			}
			if !want[pt] {
				t.Fatalf("patch %d: slot point %d was not marked", p, pt)
			}
		}
		if len(slots) != len(want) {
			t.Fatalf("patch %d: %d slots for %d marked points", p, len(slots), len(want))
		}
	}
}

func TestMarkedCoversOwnElements(t *testing.T) {
	// Every grid point must be in the slot list of at least the patch
	// owning its element (the element's own influence region contains its
	// points).
	m, pointElem, mark := testSetup(t, 8, 0.05)
	tl := New(m, len(pointElem), 5, mark)
	for pt := int32(0); pt < int32(tl.NumPoints); pt++ {
		owner := tl.ElemPatch[pointElem[pt]]
		if _, ok := slices.BinarySearch(tl.Slots[owner], pt); !ok {
			t.Fatalf("point %d not marked by its owning patch %d", pt, owner)
		}
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	m, pointElem, mark := testSetup(t, 4, 0.1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(m, len(pointElem), 0, mark)
}

// The paper's Fig. 8 property: for a fixed patch count, the relative memory
// overhead decreases as the mesh grows (boundary-to-area ratio shrinks).
func TestOverheadDecreasesWithMeshSize(t *testing.T) {
	overheadAt := func(n int) float64 {
		m, pointElem, mark := testSetup(t, n, 3.0/float64(n))
		return New(m, len(pointElem), 16, mark).Overhead()
	}
	small := overheadAt(12)
	large := overheadAt(36)
	t.Logf("overhead: n=12 %.3f, n=36 %.3f", small, large)
	if large >= small {
		t.Errorf("overhead should shrink with mesh size: %v -> %v", small, large)
	}
	if large < 1 {
		t.Errorf("overhead below 1 is impossible: %v", large)
	}
}

// More patches → more boundary → more overhead, but more parallelism.
func TestOverheadGrowsWithPatchCount(t *testing.T) {
	m, pointElem, mark := testSetup(t, 16, 0.12)
	o2 := New(m, len(pointElem), 2, mark).Overhead()
	o16 := New(m, len(pointElem), 16, mark).Overhead()
	t.Logf("overhead: k=2 %.3f, k=16 %.3f", o2, o16)
	if o16 <= o2 {
		t.Errorf("overhead should grow with patch count: k=2 %v, k=16 %v", o2, o16)
	}
}

func TestColorsAreProperColoring(t *testing.T) {
	m, pointElem, mark := testSetup(t, 10, 0.15)
	tl := New(m, len(pointElem), 6, mark)
	colors := tl.Colors()
	if len(colors) != tl.K {
		t.Fatalf("got %d colors", len(colors))
	}
	for a := 0; a < tl.K; a++ {
		for b := a + 1; b < tl.K; b++ {
			if colors[a] != colors[b] {
				continue
			}
			// Same color: influence regions must be disjoint.
			if slicesIntersect(tl.Slots[a], tl.Slots[b]) {
				t.Fatalf("patches %d and %d share color %d but overlap", a, b, colors[a])
			}
		}
	}
}

func TestColorsSinglePatch(t *testing.T) {
	m, pointElem, mark := testSetup(t, 4, 0.1)
	tl := New(m, len(pointElem), 1, mark)
	if c := tl.Colors(); len(c) != 1 || c[0] != 0 {
		t.Errorf("single patch colors = %v", c)
	}
}

func TestSlicesIntersect(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{[]int32{1, 3, 5}, []int32{2, 4, 6}, false},
		{[]int32{1, 3, 5}, []int32{5, 7}, true},
		{nil, []int32{1}, false},
		{[]int32{2}, []int32{2}, true},
	}
	for _, c := range cases {
		if got := slicesIntersect(c.a, c.b); got != c.want {
			t.Errorf("slicesIntersect(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestPartialValues(t *testing.T) {
	m, pointElem, mark := testSetup(t, 6, 0.1)
	tl := New(m, len(pointElem), 3, mark)
	n := 0
	for _, s := range tl.Slots {
		n += len(s)
	}
	if tl.PartialValues() != n {
		t.Errorf("PartialValues = %d, want %d", tl.PartialValues(), n)
	}
}

// k == 1 is the degenerate tiling: one patch covers the whole mesh, every
// grid point is stored exactly once, so the memory overhead must be exactly
// 1.0 — not approximately.
func TestSinglePatchOverheadExactlyOne(t *testing.T) {
	m, pointElem, mark := testSetup(t, 8, 0.2)
	tl := New(m, len(pointElem), 1, mark)
	if got := tl.Overhead(); got != 1.0 {
		t.Fatalf("k=1 overhead = %v, want exactly 1.0", got)
	}
	if tl.PartialValues() != tl.NumPoints {
		t.Fatalf("k=1 partials = %d, want %d", tl.PartialValues(), tl.NumPoints)
	}
	if len(tl.PatchElems[0]) != m.NumTris() {
		t.Fatalf("k=1 patch holds %d of %d elements", len(tl.PatchElems[0]), m.NumTris())
	}
}

// k greater than the element count: recursive bisection runs out of
// elements, leaving some patches empty. The tiling must still cover every
// element exactly once and tolerate empty patches in its slots and
// colouring.
func TestMorePatchesThanElements(t *testing.T) {
	m, pointElem, mark := testSetup(t, 2, 0.3) // 8 triangles
	k := m.NumTris() + 5
	tl := New(m, len(pointElem), k, mark)
	if tl.K != k {
		t.Fatalf("K = %d, want %d", tl.K, k)
	}
	total := 0
	nonEmpty := 0
	for p := 0; p < k; p++ {
		total += len(tl.PatchElems[p])
		if len(tl.PatchElems[p]) > 0 {
			nonEmpty++
		}
	}
	if total != m.NumTris() {
		t.Fatalf("patches cover %d of %d elements", total, m.NumTris())
	}
	if nonEmpty > m.NumTris() {
		t.Fatalf("%d non-empty patches for %d elements", nonEmpty, m.NumTris())
	}

	if colors := tl.Colors(); len(colors) != k {
		t.Fatalf("Colors length %d, want %d", len(colors), k)
	}
}

package core

import (
	"math"
	"slices"
	"testing"

	"unstencil/internal/geom"
	"unstencil/internal/mesh"
	"unstencil/internal/tile"
)

// mergeTiling is a tiling of a structured n-mesh with k patches, built
// by the evaluator so its slots are the real influence regions.
func mergeTiling(t *testing.T, n, k int) *tile.Tiling {
	t.Helper()
	ev := buildEvaluator(t, mesh.Structured(n), 1, func(p geom.Point) float64 { return p.X }, Options{Workers: 1})
	return ev.NewTiling(k)
}

// partialsOf gives every patch of tl a partial with value(p, i) at its
// i-th slot, in ascending patch order.
func partialsOf(tl *tile.Tiling, value func(p, i int) float64) []PatchPartial {
	parts := make([]PatchPartial, tl.K)
	for p := range parts {
		vals := make([]float64, len(tl.Slots[p]))
		for i := range vals {
			vals[i] = value(p, i)
		}
		parts[p] = PatchPartial{Patch: p, Points: tl.Slots[p], Values: vals}
	}
	return parts
}

func merge(t *testing.T, n int, parts []PatchPartial, uncovered []int32) []float64 {
	t.Helper()
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN() // MergePartials must overwrite every point
	}
	if err := MergePartials(out, parts, uncovered); err != nil {
		t.Fatal(err)
	}
	return out
}

// firstBitDiff is the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestMergePartialsMatchesHandSum: with values that sum exactly
// (1000·patch + point), the merge is the per-point sum of every patch's
// partial, and the uncovered points are 0 whatever their partials held.
func TestMergePartialsMatchesHandSum(t *testing.T) {
	tl := mergeTiling(t, 6, 4)
	parts := partialsOf(tl, func(p, i int) float64 { return float64(1000*p + int(tl.Slots[p][i])) })
	want := make([]float64, tl.NumPoints)
	for p := 0; p < tl.K; p++ {
		for _, pt := range tl.Slots[p] {
			want[pt] += float64(1000*p + int(pt))
		}
	}
	if got := merge(t, tl.NumPoints, parts, nil); !slices.Equal(got, want) {
		t.Fatalf("merge differs from the hand sum at point %d", firstBitDiff(got, want))
	}

	uncovered := tl.UncoveredIDs([]int{2})
	got := merge(t, tl.NumPoints, parts, uncovered)
	for _, pt := range uncovered {
		want[pt] = 0
	}
	if !slices.Equal(got, want) {
		t.Fatalf("degraded merge differs at point %d", firstBitDiff(got, want))
	}
}

// TestMergePartialsSplitInvariant is the property both deployments rest
// on: however the partials are split between two shards and in whichever
// order the halves arrive, the merge gives the same bits, and those bits
// are the ascending-patch sum from 0. Values alternate in sign, carry full
// 53-bit mantissas and span four decades by patch, so their sums round and
// any reordering of the additions shows as a bit difference (scaled
// fractional parts such as v − ⌊v⌋ of a large v keep too few bits: their
// sums are exact in every order).
func TestMergePartialsSplitInvariant(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 3}, {7, 6}, {9, 11}} {
		tl := mergeTiling(t, tc.n, tc.k)
		parts := partialsOf(tl, func(p, i int) float64 {
			return math.Sin(float64(1+p)*12.9898+float64(i)*78.233) * math.Pow(10, float64(p%4))
		})
		ref := make([]float64, tl.NumPoints)
		for p := 0; p < tl.K; p++ {
			for i, pt := range tl.Slots[p] {
				ref[pt] += parts[p].Values[i]
			}
		}
		want := merge(t, tl.NumPoints, slices.Clone(parts), nil)
		if i := firstBitDiff(want, ref); i >= 0 {
			t.Fatalf("n=%d k=%d: merge[%d] = %v, ascending hand sum %v", tc.n, tc.k, i, want[i], ref[i])
		}
		for mask := 0; mask < 1<<tc.k; mask++ {
			var a, b []PatchPartial
			for p := tc.k - 1; p >= 0; p-- { // each half descending
				if mask&(1<<p) != 0 {
					a = append(a, parts[p])
				} else {
					b = append(b, parts[p])
				}
			}
			for _, order := range [][]PatchPartial{slices.Concat(a, b), slices.Concat(b, a)} {
				if i := firstBitDiff(merge(t, tl.NumPoints, order, nil), want); i >= 0 {
					t.Fatalf("n=%d k=%d split %b: point %d differs from the whole merge", tc.n, tc.k, mask, i)
				}
			}
		}
	}
}

// TestMergePartialsRejectsMalformed: partials arrive over the network, so
// a point outside the output, a Points/Values length mismatch, a patch
// merged twice and an uncovered point outside the output are errors.
func TestMergePartialsRejectsMalformed(t *testing.T) {
	ok := func() []PatchPartial {
		return []PatchPartial{
			{Patch: 1, Points: []int32{0, 2}, Values: []float64{1, 2}},
			{Patch: 0, Points: []int32{1, 2}, Values: []float64{3, 4}},
			{Patch: 2}, // an empty patch is legal
		}
	}
	if got := merge(t, 3, ok(), []int32{1}); !slices.Equal(got, []float64{1, 0, 6}) {
		t.Fatalf("well-formed merge = %v, want [1 0 6]", got)
	}
	for name, c := range map[string]struct {
		mutate    func([]PatchPartial)
		uncovered []int32
	}{
		"point past the end": {mutate: func(p []PatchPartial) { p[0].Points[1] = 3 }},
		"negative point":     {mutate: func(p []PatchPartial) { p[1].Points[0] = -1 }},
		"length mismatch":    {mutate: func(p []PatchPartial) { p[0].Values = p[0].Values[:1] }},
		"repeated patch":     {mutate: func(p []PatchPartial) { p[2] = p[0] }},
		"uncovered past end": {mutate: func([]PatchPartial) {}, uncovered: []int32{3}},
	} {
		parts := ok()
		c.mutate(parts)
		if err := MergePartials(make([]float64, 3), parts, c.uncovered); err == nil {
			t.Errorf("%s: merged without error", name)
		}
	}
}

package geom

import (
	"math"
	"testing"
)

// TestClipTriangleBoxDegenerate drives the specialised box clipper with
// degenerate triangles and boxes: every case must produce an empty region
// and never a NaN area.
func TestClipTriangleBoxDegenerate(t *testing.T) {
	nan := math.NaN()
	unit := Box(0, 0, 1, 1)
	cases := []struct {
		name string
		tri  Triangle
		box  AABB
	}{
		{"collinear horizontal", Tri(Pt(0, 0.5), Pt(0.5, 0.5), Pt(1, 0.5)), unit},
		{"collinear diagonal", Tri(Pt(0, 0), Pt(0.5, 0.5), Pt(1, 1)), unit},
		{"repeated vertex", Tri(Pt(0.2, 0.2), Pt(0.2, 0.2), Pt(0.8, 0.4)), unit},
		{"all same vertex", Tri(Pt(0.3, 0.3), Pt(0.3, 0.3), Pt(0.3, 0.3)), unit},
		{"nan vertex", Tri(Pt(nan, 0), Pt(1, 0), Pt(0, 1)), unit},
		{"all nan", Tri(Pt(nan, nan), Pt(nan, nan), Pt(nan, nan)), unit},
		{"zero-width box", Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1)), Box(0.5, 0, 0.5, 1)},
		{"zero-height box", Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1)), Box(0, 0.5, 1, 0.5)},
		{"inverted box", Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1)), Box(1, 1, 0, 0)},
		{"nan box", Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1)), Box(nan, 0, 1, 1)},
		{"degenerate tri and box", Tri(Pt(0, 0), Pt(1, 1), Pt(2, 2)), Box(3, 3, 3, 3)},
	}
	var c Clipper
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			poly := c.ClipTriangleBox(tc.tri, tc.box)
			if len(poly) != 0 {
				t.Fatalf("degenerate clip returned %d vertices: %v", len(poly), poly)
			}
			if a := Polygon(poly).Area(); a != 0 || math.IsNaN(a) {
				t.Fatalf("degenerate clip area = %v, want 0", a)
			}
		})
	}
}

// TestClipConvexDegenerateClipRegion: zero-area and undersized clip
// polygons must clip everything away instead of producing NaN geometry.
func TestClipConvexDegenerateClipRegion(t *testing.T) {
	nan := math.NaN()
	subject := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	cases := []struct {
		name string
		clip Polygon
	}{
		{"empty clip", Polygon{}},
		{"point clip", Polygon{Pt(0.5, 0.5)}},
		{"segment clip", Polygon{Pt(0, 0), Pt(1, 1)}},
		{"collinear clip", Polygon{Pt(0, 0), Pt(0.5, 0.5), Pt(1, 1)}},
		{"repeated-vertex clip", Polygon{Pt(0.2, 0.2), Pt(0.2, 0.2), Pt(0.2, 0.2)}},
		{"nan clip", Polygon{Pt(nan, 0), Pt(1, 0), Pt(0.5, 1)}},
	}
	var c Clipper
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := c.ClipConvex(subject, tc.clip)
			if len(out) != 0 {
				t.Fatalf("degenerate clip region returned %v", out)
			}
		})
	}

	// Sanity: a genuine clip region still works after the degenerate calls
	// (the Clipper's buffers must not be poisoned).
	out := c.ClipConvex(subject, Polygon{Pt(0.25, 0.25), Pt(0.75, 0.25), Pt(0.75, 0.75), Pt(0.25, 0.75)})
	if a := Polygon(out).Area(); math.Abs(a-0.25) > 1e-12 {
		t.Fatalf("post-degenerate clip area = %v, want 0.25", a)
	}
}

// TestSplitFanDegenerate: collinear fans and NaN-cornered polygons produce
// no triangles, and no emitted triangle ever has a non-finite area.
func TestSplitFanDegenerate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		poly    Polygon
		minArea float64
		want    int
	}{
		{"collinear fan", Polygon{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}, 0, 0},
		{"repeated points", Polygon{Pt(0, 0), Pt(0, 0), Pt(0, 0), Pt(0, 0)}, 0, 0},
		{"nan corner", Polygon{Pt(0, 0), Pt(1, 0), Pt(nan, 1)}, 0, 0},
		{"nan filter", Polygon{Pt(0, 0), Pt(1, 0), Pt(0, 1)}, nan, 1},
		{"valid square", Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}, 0, 2},
		{"mixed: sliver dropped", Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1e-16), Pt(0, 1)}, 1e-12, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tris := SplitFan(tc.poly, nil, tc.minArea)
			if len(tris) != tc.want {
				t.Fatalf("got %d triangles, want %d: %v", len(tris), tc.want, tris)
			}
			for _, ft := range tris {
				if a := ft.Tri.Area(); !(a > 0) || math.IsInf(a, 0) {
					t.Fatalf("emitted triangle with area %v", a)
				}
				if math.Float64bits(ft.Area) != math.Float64bits(ft.Tri.Area()) {
					t.Fatalf("fan area %v, Triangle.Area() %v", ft.Area, ft.Tri.Area())
				}
			}
		})
	}
}

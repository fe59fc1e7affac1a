package geom

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointOps(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -1)
	if got := p.Add(q); got != Pt(4, 1) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestOrient(t *testing.T) {
	if Orient(Pt(0, 0), Pt(1, 0), Pt(0, 1)) <= 0 {
		t.Error("CCW triple should have positive orientation")
	}
	if Orient(Pt(0, 0), Pt(0, 1), Pt(1, 0)) >= 0 {
		t.Error("CW triple should have negative orientation")
	}
	if Orient(Pt(0, 0), Pt(1, 1), Pt(2, 2)) != 0 {
		t.Error("collinear triple should be zero")
	}
}

func TestAABBBasics(t *testing.T) {
	b := Box(0, 0, 2, 1)
	if b.Width() != 2 || b.Height() != 1 || b.Area() != 2 {
		t.Errorf("box dims wrong: %v", b)
	}
	if b.Center() != Pt(1, 0.5) {
		t.Errorf("center = %v", b.Center())
	}
	if !b.Contains(Pt(1, 0.5)) || !b.Contains(Pt(0, 0)) || b.Contains(Pt(3, 0)) {
		t.Error("Contains wrong")
	}
	if !b.Intersects(Box(1, 0.5, 3, 3)) {
		t.Error("should intersect")
	}
	if b.Intersects(Box(2.1, 0, 3, 1)) {
		t.Error("should not intersect")
	}
	if got := b.Intersect(Box(1, -1, 3, 0.5)); got != Box(1, 0, 2, 0.5) {
		t.Errorf("Intersect = %v", got)
	}
	if got := b.Pad(1); got != Box(-1, -1, 3, 2) {
		t.Errorf("Pad = %v", got)
	}
	if got := b.Translate(Pt(1, 1)); got != Box(1, 1, 3, 2) {
		t.Errorf("Translate = %v", got)
	}
}

func TestEmptyAABB(t *testing.T) {
	e := EmptyAABB()
	if !e.Empty() {
		t.Fatal("EmptyAABB not empty")
	}
	if e.Area() != 0 {
		t.Error("empty area should be 0")
	}
	got := e.Extend(Pt(1, 2))
	if got.Min != Pt(1, 2) || got.Max != Pt(1, 2) {
		t.Errorf("Extend of empty = %v", got)
	}
	u := e.Union(Box(0, 0, 1, 1))
	if u != Box(0, 0, 1, 1) {
		t.Errorf("Union with empty = %v", u)
	}
}

func TestAABBCorners(t *testing.T) {
	c := Box(0, 0, 1, 2).Corners()
	want := [4]Point{{0, 0}, {1, 0}, {1, 2}, {0, 2}}
	if c != want {
		t.Errorf("Corners = %v", c)
	}
	// Corners must form a CCW polygon.
	if Polygon(c[:]).Area() <= 0 {
		t.Error("corners not CCW")
	}
}

func TestTriangleArea(t *testing.T) {
	tri := Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1))
	if !almostEq(tri.Area(), 0.5, 1e-15) {
		t.Errorf("Area = %v", tri.Area())
	}
	if tri.SignedArea() <= 0 {
		t.Error("CCW triangle should have positive signed area")
	}
	cw := Tri(Pt(0, 0), Pt(0, 1), Pt(1, 0))
	if cw.SignedArea() >= 0 {
		t.Error("CW triangle should have negative signed area")
	}
	if cw.CCW().SignedArea() <= 0 {
		t.Error("CCW() should flip orientation")
	}
}

func TestTriangleContains(t *testing.T) {
	tri := Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1))
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0.25, 0.25), true},
		{Pt(0, 0), true},       // vertex
		{Pt(0.5, 0), true},     // edge
		{Pt(0.5, 0.5), true},   // hypotenuse
		{Pt(0.6, 0.6), false},  // outside hypotenuse
		{Pt(-0.1, 0.1), false}, // outside left
	}
	for _, c := range cases {
		if got := tri.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTriangleEdges(t *testing.T) {
	tri := Tri(Pt(0, 0), Pt(3, 0), Pt(0, 4))
	if tri.LongestEdge() != 5 {
		t.Errorf("LongestEdge = %v", tri.LongestEdge())
	}
	if tri.ShortestEdge() != 3 {
		t.Errorf("ShortestEdge = %v", tri.ShortestEdge())
	}
}

func TestBarycentricRoundTrip(t *testing.T) {
	tri := Tri(Pt(0.2, 0.1), Pt(1.5, 0.3), Pt(0.7, 2.1))
	p := Pt(0.8, 0.9)
	wa, wb, wc := tri.Barycentric(p)
	if !almostEq(wa+wb+wc, 1, 1e-12) {
		t.Errorf("barycentric sum = %v", wa+wb+wc)
	}
	q := tri.FromBarycentric(wa, wb, wc)
	if p.Dist(q) > 1e-12 {
		t.Errorf("round trip %v -> %v", p, q)
	}
}

func TestCircumcircle(t *testing.T) {
	tri := Tri(Pt(0, 0), Pt(2, 0), Pt(1, 1))
	c, r2, ok := tri.Circumcircle()
	if !ok {
		t.Fatal("circumcircle failed")
	}
	for _, v := range []Point{tri.A, tri.B, tri.C} {
		d2 := v.Sub(c).Dot(v.Sub(c))
		if !almostEq(d2, r2, 1e-12) {
			t.Errorf("vertex %v at distance2 %v, want %v", v, d2, r2)
		}
	}
	_, _, ok = Tri(Pt(0, 0), Pt(1, 1), Pt(2, 2)).Circumcircle()
	if ok {
		t.Error("degenerate triangle should fail")
	}
}

func TestInCircumcircle(t *testing.T) {
	tri := Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1)) // CCW
	if !tri.InCircumcircle(Pt(0.5, 0.5)) {
		// (0.5,0.5) is on the circle boundary... use interior point.
		t.Log("boundary point excluded as expected")
	}
	if !tri.InCircumcircle(Pt(0.4, 0.4)) {
		t.Error("interior point should be in circumcircle")
	}
	if tri.InCircumcircle(Pt(2, 2)) {
		t.Error("far point should not be in circumcircle")
	}
}

func TestAffineMaps(t *testing.T) {
	tri := Tri(Pt(0.3, 0.2), Pt(1.1, 0.5), Pt(0.6, 1.4))
	// Reference corners map to the triangle vertices.
	if tri.MapReference(0, 0).Dist(tri.A) > 1e-15 ||
		tri.MapReference(1, 0).Dist(tri.B) > 1e-15 ||
		tri.MapReference(0, 1).Dist(tri.C) > 1e-15 {
		t.Error("MapReference corners wrong")
	}
	// Inverse map round trip.
	p := tri.MapReference(0.3, 0.4)
	r, s := tri.InverseMap(p)
	if !almostEq(r, 0.3, 1e-12) || !almostEq(s, 0.4, 1e-12) {
		t.Errorf("InverseMap = (%v, %v)", r, s)
	}
	x0, jac := tri.AffineFromReference()
	q := Point{
		x0.X + jac[0]*0.3 + jac[1]*0.4,
		x0.Y + jac[2]*0.3 + jac[3]*0.4,
	}
	if p.Dist(q) > 1e-15 {
		t.Errorf("AffineFromReference inconsistent: %v vs %v", p, q)
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	square := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if !almostEq(square.Area(), 4, 1e-15) {
		t.Errorf("square area = %v", square.Area())
	}
	if square.Centroid().Dist(Pt(1, 1)) > 1e-14 {
		t.Errorf("square centroid = %v", square.Centroid())
	}
	if (Polygon{Pt(0, 0), Pt(1, 1)}).Area() != 0 {
		t.Error("degenerate polygon area should be 0")
	}
	// Degenerate centroid falls back to vertex average.
	c := Polygon{Pt(0, 0), Pt(2, 0)}.Centroid()
	if c.Dist(Pt(1, 0)) > 1e-14 {
		t.Errorf("degenerate centroid = %v", c)
	}
}

func TestClipTriangleBoxFullyInside(t *testing.T) {
	var c Clipper
	tri := Tri(Pt(0.2, 0.2), Pt(0.8, 0.2), Pt(0.5, 0.8))
	got := c.ClipTriangleBox(tri, Box(0, 0, 1, 1))
	if !almostEq(Polygon(got).Area(), tri.Area(), 1e-14) {
		t.Errorf("fully inside: area %v want %v", Polygon(got).Area(), tri.Area())
	}
}

func TestClipTriangleBoxFullyOutside(t *testing.T) {
	var c Clipper
	tri := Tri(Pt(2, 2), Pt(3, 2), Pt(2, 3))
	got := c.ClipTriangleBox(tri, Box(0, 0, 1, 1))
	if Polygon(got).Area() != 0 {
		t.Errorf("fully outside: area %v", Polygon(got).Area())
	}
}

func TestClipTriangleBoxHalf(t *testing.T) {
	var c Clipper
	// Right triangle straddling x = 0.5.
	tri := Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1))
	got := c.ClipTriangleBox(tri, Box(0, 0, 0.5, 1))
	// Area left of x=0.5 within the triangle = 0.5 - area of right part.
	// Right part is a triangle with legs 0.5: area 0.125. Left = 0.375.
	if !almostEq(Polygon(got).Area(), 0.375, 1e-14) {
		t.Errorf("half clip area = %v, want 0.375", Polygon(got).Area())
	}
}

func TestClipTriangleBoxContainsBox(t *testing.T) {
	var c Clipper
	// Large triangle containing the whole box: result is the box itself.
	tri := Tri(Pt(-10, -10), Pt(10, -10), Pt(0, 10))
	got := c.ClipTriangleBox(tri, Box(0, 0, 1, 1))
	if !almostEq(Polygon(got).Area(), 1, 1e-12) {
		t.Errorf("clip area = %v, want 1", Polygon(got).Area())
	}
}

func TestClipCWInputHandled(t *testing.T) {
	var c Clipper
	cw := Tri(Pt(0, 0), Pt(0, 1), Pt(1, 0)) // clockwise
	got := c.ClipTriangleBox(cw, Box(0, 0, 1, 1))
	if !almostEq(Polygon(got).Area(), 0.5, 1e-14) {
		t.Errorf("CW triangle clip area = %v, want 0.5", Polygon(got).Area())
	}
}

func TestClipConvexGeneral(t *testing.T) {
	var c Clipper
	sq1 := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	sq2 := Polygon{Pt(0.5, 0.5), Pt(1.5, 0.5), Pt(1.5, 1.5), Pt(0.5, 1.5)}
	got := append(Polygon(nil), c.ClipConvex(sq1, sq2)...)
	if !almostEq(got.Area(), 0.25, 1e-14) {
		t.Errorf("overlap area = %v, want 0.25", got.Area())
	}
	// Clip against itself returns the same area.
	self := c.ClipConvex(sq1, sq1)
	if !almostEq(Polygon(self).Area(), 1, 1e-14) {
		t.Errorf("self clip area = %v, want 1", Polygon(self).Area())
	}
}

func TestSplitFan(t *testing.T) {
	square := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	tris := SplitFan(square, nil, 0)
	if len(tris) != 2 {
		t.Fatalf("got %d triangles, want 2", len(tris))
	}
	total := 0.0
	for _, ft := range tris {
		if ft.Tri.SignedArea() <= 0 {
			t.Error("fan triangle not CCW")
		}
		if math.Float64bits(ft.Area) != math.Float64bits(ft.Tri.Area()) {
			t.Errorf("fan area %v, Triangle.Area() %v", ft.Area, ft.Tri.Area())
		}
		total += ft.Area
	}
	if !almostEq(total, 1, 1e-14) {
		t.Errorf("fan area = %v", total)
	}
	// Degenerate and tiny polygons produce nothing.
	if got := SplitFan(Polygon{Pt(0, 0), Pt(1, 0)}, nil, 0); len(got) != 0 {
		t.Error("2-gon should produce no triangles")
	}
	sliver := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1e-18)}
	if got := SplitFan(sliver, nil, 1e-16); len(got) != 0 {
		t.Error("sliver below minArea should be dropped")
	}
}

func TestClipperReuseNoCorruption(t *testing.T) {
	var c Clipper
	tri := Tri(Pt(0, 0), Pt(1, 0), Pt(0, 1))
	a1 := Polygon(c.ClipTriangleBox(tri, Box(0, 0, 1, 1))).Area()
	for i := 0; i < 100; i++ {
		c.ClipTriangleBox(tri, Box(0.1, 0.1, 0.9, 0.9))
	}
	a2 := Polygon(c.ClipTriangleBox(tri, Box(0, 0, 1, 1))).Area()
	if a1 != a2 {
		t.Errorf("reuse changed result: %v vs %v", a1, a2)
	}
}

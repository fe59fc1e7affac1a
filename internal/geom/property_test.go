package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randTri builds a non-degenerate triangle from three random points in
// [-2, 2]^2, retrying until its area is meaningful.
func randTri(r *rand.Rand) Triangle {
	for {
		tri := Tri(
			Pt(r.Float64()*4-2, r.Float64()*4-2),
			Pt(r.Float64()*4-2, r.Float64()*4-2),
			Pt(r.Float64()*4-2, r.Float64()*4-2),
		)
		if tri.Area() > 1e-3 {
			return tri.CCW()
		}
	}
}

func randBox(r *rand.Rand) AABB {
	x0 := r.Float64()*4 - 2
	y0 := r.Float64()*4 - 2
	return Box(x0, y0, x0+r.Float64()*2, y0+r.Float64()*2)
}

// Property: the clipped polygon's area never exceeds either input's area,
// and is non-negative.
func TestPropClipAreaBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var c Clipper
	for i := 0; i < 500; i++ {
		tri := randTri(r)
		box := randBox(r)
		p := Polygon(c.ClipTriangleBox(tri, box))
		a := p.Area()
		if a < -1e-12 {
			t.Fatalf("negative clip area %v for %v x %v", a, tri, box)
		}
		if a > tri.Area()+1e-9 {
			t.Fatalf("clip area %v exceeds triangle area %v", a, tri.Area())
		}
		if a > box.Area()+1e-9 {
			t.Fatalf("clip area %v exceeds box area %v", a, box.Area())
		}
	}
}

// Property: all vertices of the clipped polygon lie in (a slightly padded
// copy of) both the triangle and the box.
func TestPropClipVerticesInside(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var c Clipper
	for i := 0; i < 500; i++ {
		tri := randTri(r)
		box := randBox(r)
		p := c.ClipTriangleBox(tri, box)
		pad := box.Pad(1e-9)
		for _, v := range p {
			if !pad.Contains(v) {
				t.Fatalf("clip vertex %v outside box %v", v, box)
			}
			// Inside triangle up to tolerance: use barycentric coords.
			wa, wb, wc := tri.Barycentric(v)
			if wa < -1e-7 || wb < -1e-7 || wc < -1e-7 {
				t.Fatalf("clip vertex %v outside triangle %v (bary %v %v %v)",
					v, tri, wa, wb, wc)
			}
		}
	}
}

// Property: splitting the whole box into a grid of cells and clipping the
// triangle against every cell partitions the triangle∩box area exactly.
func TestPropClipPartitionsArea(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var c Clipper
	for i := 0; i < 100; i++ {
		tri := randTri(r)
		// Grid over the triangle's bounding box.
		b := tri.Bounds()
		n := 1 + r.Intn(4)
		dx := b.Width() / float64(n)
		dy := b.Height() / float64(n)
		sum := 0.0
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < n; iy++ {
				cell := Box(
					b.Min.X+float64(ix)*dx, b.Min.Y+float64(iy)*dy,
					b.Min.X+float64(ix+1)*dx, b.Min.Y+float64(iy+1)*dy,
				)
				sum += Polygon(c.ClipTriangleBox(tri, cell)).Area()
			}
		}
		if math.Abs(sum-tri.Area()) > 1e-9*math.Max(1, tri.Area()) {
			t.Fatalf("partition sum %v != triangle area %v", sum, tri.Area())
		}
	}
}

// Property: fan triangulation preserves the polygon area, emits CCW
// triangles, and reports each triangle's area bitwise as Triangle.Area().
func TestPropFanPreservesArea(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var c Clipper
	for i := 0; i < 300; i++ {
		tri := randTri(r)
		box := randBox(r)
		p := Polygon(c.ClipTriangleBox(tri, box))
		tris := SplitFan(p, nil, 0)
		sum := 0.0
		for _, ft := range tris {
			if ft.Tri.SignedArea() <= 0 {
				t.Fatalf("fan triangle %v not CCW", ft.Tri)
			}
			if math.Float64bits(ft.Area) != math.Float64bits(ft.Tri.Area()) {
				t.Fatalf("fan area %v, Triangle.Area() %v", ft.Area, ft.Tri.Area())
			}
			sum += ft.Area
		}
		if math.Abs(sum-p.Area()) > 1e-10 {
			t.Fatalf("fan area %v != polygon area %v", sum, p.Area())
		}
	}
}

// Property: Contains agrees with barycentric coordinates for random points.
func TestPropContainsMatchesBarycentric(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		tri := randTri(r)
		p := Pt(r.Float64()*4-2, r.Float64()*4-2)
		wa, wb, wc := tri.Barycentric(p)
		inside := wa >= 0 && wb >= 0 && wc >= 0
		// Skip points too close to the boundary where tolerance differs.
		m := math.Min(wa, math.Min(wb, wc))
		if math.Abs(m) < 1e-9 {
			continue
		}
		if got := tri.Contains(p); got != inside {
			t.Fatalf("Contains(%v) = %v, barycentric says %v (%v %v %v)",
				p, got, inside, wa, wb, wc)
		}
	}
}

// Property (testing/quick): AABB union contains both inputs' corners.
func TestQuickAABBUnion(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		if anyNaN(ax, ay, bx, by, cx, cy, dx, dy) {
			return true
		}
		b1 := EmptyAABB().Extend(Pt(ax, ay)).Extend(Pt(bx, by))
		b2 := EmptyAABB().Extend(Pt(cx, cy)).Extend(Pt(dx, dy))
		u := b1.Union(b2)
		return u.Contains(b1.Min) && u.Contains(b1.Max) &&
			u.Contains(b2.Min) && u.Contains(b2.Max)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): Orient is antisymmetric under swapping two
// arguments.
func TestQuickOrientAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaN(ax, ay, bx, by, cx, cy) {
			return true
		}
		// Confine magnitudes: at ~1e308 the determinant overflows and the
		// identity cannot hold in float64.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Pt(clamp(ax), clamp(ay))
		b := Pt(clamp(bx), clamp(by))
		c := Pt(clamp(cx), clamp(cy))
		o1 := Orient(a, b, c)
		o2 := Orient(b, a, c)
		// The two evaluations use different expression trees, so allow
		// rounding at the scale of the intermediate products.
		scale := math.Max(1, math.Abs(o1))
		return math.Abs(o1+o2) <= 1e-9*scale*1e3
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func BenchmarkClipTriangleBox(b *testing.B) {
	var c Clipper
	tri := Tri(Pt(0.1, 0.1), Pt(0.9, 0.2), Pt(0.4, 0.8))
	box := Box(0.2, 0.2, 0.7, 0.7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ClipTriangleBox(tri, box)
	}
}

func BenchmarkClipConvex(b *testing.B) {
	var c Clipper
	tri := Polygon{Pt(0.1, 0.1), Pt(0.9, 0.2), Pt(0.4, 0.8)}
	box := Polygon{Pt(0.2, 0.2), Pt(0.7, 0.2), Pt(0.7, 0.7), Pt(0.2, 0.7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ClipConvex(tri, box)
	}
}

package geom

import "math"

// Polygon is a simple polygon stored as a CCW vertex loop. The clipping
// routines in this package only produce convex polygons, but Area and
// Centroid are valid for any simple CCW polygon.
type Polygon []Point

// Area returns the (positive) area of a CCW polygon via the shoelace
// formula. For polygons with fewer than 3 vertices it returns 0.
func (p Polygon) Area() float64 {
	if len(p) < 3 {
		return 0
	}
	sum := 0.0
	for i, a := range p {
		b := p[(i+1)%len(p)]
		sum += a.Cross(b)
	}
	return sum / 2
}

// Centroid returns the area centroid of a CCW polygon. Degenerate polygons
// (area ~ 0) fall back to the vertex average.
func (p Polygon) Centroid() Point {
	a := p.Area()
	if a < 1e-300 {
		var c Point
		for _, v := range p {
			c = c.Add(v)
		}
		if len(p) > 0 {
			c = c.Scale(1 / float64(len(p)))
		}
		return c
	}
	var cx, cy float64
	for i, v := range p {
		w := p[(i+1)%len(p)]
		cr := v.Cross(w)
		cx += (v.X + w.X) * cr
		cy += (v.Y + w.Y) * cr
	}
	f := 1 / (6 * a)
	return Point{cx * f, cy * f}
}

// Bounds returns the bounding box of the polygon.
func (p Polygon) Bounds() AABB {
	b := EmptyAABB()
	for _, v := range p {
		b = b.Extend(v)
	}
	return b
}

// Translate returns a copy of p shifted by d.
func (p Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(p))
	for i, v := range p {
		out[i] = v.Add(d)
	}
	return out
}

// Clipper clips subject polygons against a fixed convex clip region using
// the Sutherland–Hodgman reentrant clipping algorithm (Sutherland & Hodgman,
// CACM 1974; Algorithm 1 in the paper). A Clipper is reusable: it owns the
// scratch buffers, so repeated Clip calls perform no allocations once the
// buffers have grown to a steady size. A Clipper is not safe for concurrent
// use; create one per worker.
type Clipper struct {
	in, out Polygon
}

// clipEdge holds one directed edge (a -> b) of the CCW clip polygon.
// Points strictly left of the edge are inside.
type clipEdge struct {
	a, b Point
}

func (e clipEdge) inside(p Point) bool {
	// >= keeps points exactly on the boundary, matching the paper's
	// treatment of stencil-node breaks: zero-area slivers are later
	// discarded by the area filter in SplitFan.
	return Orient(e.a, e.b, p) >= 0
}

// intersect returns the intersection of segment (s, p) with the infinite
// line through the clip edge. The caller guarantees s and p are on opposite
// sides, so the denominator is nonzero up to roundoff.
func (e clipEdge) intersect(s, p Point) Point {
	d := p.Sub(s)
	n := e.b.Sub(e.a)
	den := n.Cross(d)
	if den == 0 {
		return s // parallel within roundoff: either endpoint is on the line
	}
	t := n.Cross(s.Sub(e.a)) / -den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return Point{s.X + t*d.X, s.Y + t*d.Y}
}

// ClipConvex intersects the subject polygon with the convex CCW clip
// polygon and returns the resulting convex polygon (empty when they do not
// overlap). Degenerate clip regions — fewer than 3 vertices, zero or NaN
// area — yield an empty result rather than propagating NaN through the
// half-plane tests. The returned slice aliases the Clipper's internal
// buffer and is only valid until the next call.
func (c *Clipper) ClipConvex(subject, clip Polygon) Polygon {
	if len(clip) < 3 || !(clip.Area() > 0) {
		return c.out[:0]
	}
	c.out = append(c.out[:0], subject...)
	n := len(clip)
	for i := 0; i < n && len(c.out) > 0; i++ {
		e := clipEdge{clip[i], clip[(i+1)%n]}
		c.in = append(c.in[:0], c.out...)
		c.out = c.out[:0]
		s := c.in[len(c.in)-1]
		sIn := e.inside(s)
		for _, p := range c.in {
			pIn := e.inside(p)
			if pIn {
				if !sIn {
					c.out = append(c.out, e.intersect(s, p))
				}
				c.out = append(c.out, p)
			} else if sIn {
				c.out = append(c.out, e.intersect(s, p))
			}
			s, sIn = p, pIn
		}
	}
	return c.out
}

// ClipTriangleBox intersects triangle t with axis-aligned box b. This is the
// hot path of the post-processor (stencil square × mesh element), so the box
// clip is specialised: each of the four half-plane tests is a single
// coordinate comparison. Degenerate inputs — a zero-area (collinear or
// NaN-cornered) triangle, or an empty/inverted/NaN box — return an empty
// polygon: a region that cannot contain area must never surface as NaN
// downstream. The returned polygon aliases internal buffers.
func (c *Clipper) ClipTriangleBox(t Triangle, b AABB) Polygon {
	if !(t.Area() > 0) || !(b.Min.X < b.Max.X) || !(b.Min.Y < b.Max.Y) {
		return c.out[:0]
	}
	t = t.CCW()
	c.out = append(c.out[:0], t.A, t.B, t.C)
	c.clipX(b.Min.X, true)  // keep x >= min
	c.clipX(b.Max.X, false) // keep x <= max
	c.clipY(b.Min.Y, true)  // keep y >= min
	c.clipY(b.Max.Y, false) // keep y <= max
	return c.out
}

// clipX and clipY are the specialised half-plane passes of ClipTriangleBox:
// the coordinate access is direct (no accessor indirection) and the pass
// ping-pongs the two scratch buffers instead of copying between them.

func (c *Clipper) clipX(limit float64, keepGE bool) {
	if len(c.out) == 0 {
		return
	}
	c.in, c.out = c.out, c.in[:0]
	s := c.in[len(c.in)-1]
	sv := s.X
	sIn := (sv >= limit) == keepGE || sv == limit
	for _, p := range c.in {
		pv := p.X
		pIn := (pv >= limit) == keepGE || pv == limit
		if pIn != sIn {
			// Interpolate the crossing on this axis.
			tt := (limit - sv) / (pv - sv)
			c.out = append(c.out, Point{
				s.X + tt*(p.X-s.X),
				s.Y + tt*(p.Y-s.Y),
			})
		}
		if pIn {
			c.out = append(c.out, p)
		}
		s, sv, sIn = p, pv, pIn
	}
}

func (c *Clipper) clipY(limit float64, keepGE bool) {
	if len(c.out) == 0 {
		return
	}
	c.in, c.out = c.out, c.in[:0]
	s := c.in[len(c.in)-1]
	sv := s.Y
	sIn := (sv >= limit) == keepGE || sv == limit
	for _, p := range c.in {
		pv := p.Y
		pIn := (pv >= limit) == keepGE || pv == limit
		if pIn != sIn {
			tt := (limit - sv) / (pv - sv)
			c.out = append(c.out, Point{
				s.X + tt*(p.X-s.X),
				s.Y + tt*(p.Y-s.Y),
			})
		}
		if pIn {
			c.out = append(c.out, p)
		}
		s, sv, sIn = p, pv, pIn
	}
}

// FanTri is one triangle of a fan triangulation, counter-clockwise, with
// its area.
type FanTri struct {
	Tri  Triangle
	Area float64 // bitwise Tri.Area()
}

// SplitFan triangulates the convex polygon p into len(p)-2 triangles fanned
// from vertex 0, appending them to dst and returning the extended slice.
// Each triangle's signed area is computed once: its magnitude is the area
// filter's operand and the returned Area, its sign the CCW flip (which
// swaps B and C, negating the signed area exactly, so Area is bitwise the
// flipped triangle's Area()). Triangles with area below minArea (slivers
// produced by clipping exactly on a boundary) are dropped; pass 0 to keep
// everything with positive area. Collinear fans and NaN-cornered triangles
// fail the positive-area test and are dropped, so degenerate clips
// contribute an empty region rather than NaN integrals.
func SplitFan(p Polygon, dst []FanTri, minArea float64) []FanTri {
	if !(minArea >= 0) {
		minArea = 0 // a NaN/negative filter must not admit slivers
	}
	for i := 1; i+1 < len(p); i++ {
		t := Triangle{p[0], p[i], p[i+1]}
		sa := t.SignedArea()
		if a := math.Abs(sa); a > minArea {
			if sa < 0 {
				t.B, t.C = t.C, t.B
			}
			dst = append(dst, FanTri{t, a})
		}
	}
	return dst
}

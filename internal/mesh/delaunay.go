package mesh

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"unstencil/internal/geom"
)

// Delaunay computes the Delaunay triangulation of the given point set using
// the Bowyer–Watson incremental algorithm with walking point location.
// Points are inserted boundary-first in sorted order along each hull line
// and interior points in Morton (Z-curve) order, which keeps walks short and
// avoids the exactly-on-edge degeneracies that collinear boundary points
// would otherwise trigger. Exact duplicate points are skipped.
//
// The result references the input slice's indexing: output triangles index
// into a copy of pts.
func Delaunay(pts []geom.Point) (*Mesh, error) {
	if len(pts) < 3 {
		return nil, errors.New("mesh: Delaunay needs at least 3 points")
	}
	d, err := newTriangulator(pts)
	if err != nil {
		return nil, err
	}
	for _, idx := range d.order {
		if err := d.insert(idx); err != nil {
			return nil, fmt.Errorf("mesh: inserting point %d %v: %w", idx, pts[idx], err)
		}
	}
	return d.extract(), nil
}

// bwTri is a triangle in the working triangulation. Edge e is the directed
// edge (v[e], v[(e+1)%3]); n[e] is the index of the neighbouring triangle
// across that edge, or -1 on the hull.
type bwTri struct {
	v     [3]int32
	n     [3]int32
	alive bool
}

type triangulator struct {
	verts []geom.Point // input points followed by 3 super-triangle vertices
	nIn   int          // number of input points
	tris  []bwTri
	free  []int32
	last  int32 // walk start hint
	order []int32
}

func newTriangulator(pts []geom.Point) (*triangulator, error) {
	b := geom.EmptyAABB()
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, errors.New("mesh: non-finite input point")
		}
		b = b.Extend(p)
	}
	span := math.Max(b.Width(), b.Height())
	if span == 0 {
		return nil, errors.New("mesh: all points coincide")
	}
	c := b.Center()
	m := 20 * span
	d := &triangulator{
		verts: append(append([]geom.Point{}, pts...),
			geom.Pt(c.X-m, c.Y-m),
			geom.Pt(c.X+m, c.Y-m),
			geom.Pt(c.X, c.Y+m),
		),
		nIn: len(pts),
	}
	s0, s1, s2 := int32(len(pts)), int32(len(pts)+1), int32(len(pts)+2)
	d.tris = append(d.tris, bwTri{v: [3]int32{s0, s1, s2}, n: [3]int32{-1, -1, -1}, alive: true})
	d.order = insertionOrder(pts, b)
	return d, nil
}

// insertionOrder sorts hull-line points first (each boundary line in
// coordinate order) and the remaining points along a Morton curve.
func insertionOrder(pts []geom.Point, b geom.AABB) []int32 {
	var boundary, interior []int32
	onLine := func(v, limit float64) bool { return v == limit }
	for i, p := range pts {
		if onLine(p.X, b.Min.X) || onLine(p.X, b.Max.X) ||
			onLine(p.Y, b.Min.Y) || onLine(p.Y, b.Max.Y) {
			boundary = append(boundary, int32(i))
		} else {
			interior = append(interior, int32(i))
		}
	}
	sort.Slice(boundary, func(a, c int) bool {
		pa, pc := pts[boundary[a]], pts[boundary[c]]
		if pa.X != pc.X {
			return pa.X < pc.X
		}
		return pa.Y < pc.Y
	})
	sx := b.Width()
	sy := b.Height()
	if sx == 0 {
		sx = 1
	}
	if sy == 0 {
		sy = 1
	}
	key := func(i int32) uint64 {
		p := pts[i]
		x := uint32((p.X - b.Min.X) / sx * 65535)
		y := uint32((p.Y - b.Min.Y) / sy * 65535)
		return morton(x, y)
	}
	sort.Slice(interior, func(a, c int) bool { return key(interior[a]) < key(interior[c]) })
	return append(boundary, interior...)
}

func morton(x, y uint32) uint64 {
	spread := func(v uint32) uint64 {
		z := uint64(v)
		z = (z | z<<16) & 0x0000ffff0000ffff
		z = (z | z<<8) & 0x00ff00ff00ff00ff
		z = (z | z<<4) & 0x0f0f0f0f0f0f0f0f
		z = (z | z<<2) & 0x3333333333333333
		z = (z | z<<1) & 0x5555555555555555
		return z
	}
	return spread(x) | spread(y)<<1
}

// locate walks from the hint triangle to a triangle containing p.
func (d *triangulator) locate(p geom.Point) (int32, error) {
	t := d.last
	if t < 0 || int(t) >= len(d.tris) || !d.tris[t].alive {
		t = d.anyAlive()
	}
	maxSteps := 4*len(d.tris) + 64
	for step := 0; step < maxSteps; step++ {
		tr := &d.tris[t]
		moved := false
		for e := 0; e < 3; e++ {
			a := d.verts[tr.v[e]]
			b := d.verts[tr.v[(e+1)%3]]
			if geom.Orient(a, b, p) < 0 {
				nb := tr.n[e]
				if nb < 0 {
					return -1, errors.New("walked off the triangulation hull")
				}
				t = nb
				moved = true
				break
			}
		}
		if !moved {
			return t, nil
		}
	}
	// Fallback: exhaustive scan (degenerate walk cycles are possible with
	// floating-point orientation ties).
	for i := range d.tris {
		if !d.tris[i].alive {
			continue
		}
		tr := d.tris[i]
		tri := geom.Triangle{A: d.verts[tr.v[0]], B: d.verts[tr.v[1]], C: d.verts[tr.v[2]]}
		if tri.Contains(p) {
			return int32(i), nil
		}
	}
	return -1, errors.New("point not located in any triangle")
}

func (d *triangulator) anyAlive() int32 {
	for i := range d.tris {
		if d.tris[i].alive {
			return int32(i)
		}
	}
	return -1
}

func (d *triangulator) insert(pi int32) error {
	p := d.verts[pi]
	t0, err := d.locate(p)
	if err != nil {
		return err
	}
	// Skip exact duplicates of the containing triangle's vertices.
	for _, v := range d.tris[t0].v {
		if d.verts[v] == p {
			return nil
		}
	}

	// Grow the cavity: all triangles whose circumcircle strictly contains p,
	// found by BFS from the containing triangle. Neighbours across edges the
	// point lies (numerically) on are seeded too, which handles on-edge
	// insertions. members lists the cavity in discovery order: everything
	// below ranges over it, not over the map, so the mesh is the same in
	// every process.
	cavity := map[int32]bool{t0: true}
	members := []int32{t0}
	queue := []int32{t0}
	tr0 := d.tris[t0]
	for e := 0; e < 3; e++ {
		a := d.verts[tr0.v[e]]
		b := d.verts[tr0.v[(e+1)%3]]
		if nb := tr0.n[e]; nb >= 0 && math.Abs(geom.Orient(a, b, p)) < 1e-14 {
			if !cavity[nb] {
				cavity[nb] = true
				members = append(members, nb)
				queue = append(queue, nb)
			}
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		tr := d.tris[t]
		for e := 0; e < 3; e++ {
			nb := tr.n[e]
			if nb < 0 || cavity[nb] {
				continue
			}
			ntr := d.tris[nb]
			tri := geom.Triangle{A: d.verts[ntr.v[0]], B: d.verts[ntr.v[1]], C: d.verts[ntr.v[2]]}
			if tri.InCircumcircle(p) {
				cavity[nb] = true
				members = append(members, nb)
				queue = append(queue, nb)
			}
		}
	}

	// Collect directed boundary edges (a, b) of the cavity with the outside
	// neighbour across each.
	type bedge struct {
		a, b    int32
		outside int32
	}
	var boundary []bedge
	for _, t := range members {
		tr := d.tris[t]
		for e := 0; e < 3; e++ {
			nb := tr.n[e]
			if nb >= 0 && cavity[nb] {
				continue
			}
			boundary = append(boundary, bedge{tr.v[e], tr.v[(e+1)%3], nb})
		}
	}
	if len(boundary) < 3 {
		return errors.New("cavity boundary degenerate")
	}

	// Retire cavity triangles.
	for _, t := range members {
		d.tris[t].alive = false
		d.free = append(d.free, t)
	}

	// Create one new triangle (a, b, p) per boundary edge and wire
	// adjacency. startAt[a] is the new triangle whose boundary edge starts
	// at vertex a; endAt[b] the one whose boundary edge ends at b.
	startAt := make(map[int32]int32, len(boundary))
	endAt := make(map[int32]int32, len(boundary))
	newTris := make([]int32, len(boundary))
	for i, be := range boundary {
		t := d.alloc()
		d.tris[t] = bwTri{
			v:     [3]int32{be.a, be.b, pi},
			n:     [3]int32{be.outside, -1, -1},
			alive: true,
		}
		if be.outside >= 0 {
			d.setNeighbor(be.outside, be.b, be.a, t)
		}
		startAt[be.a] = t
		endAt[be.b] = t
		newTris[i] = t
	}
	for i, be := range boundary {
		t := newTris[i]
		// Edge 1 is (b, p): adjacent to the new triangle whose boundary
		// edge starts at b. Edge 2 is (p, a): adjacent to the one whose
		// boundary edge ends at a.
		n1, ok1 := startAt[be.b]
		n2, ok2 := endAt[be.a]
		if !ok1 || !ok2 {
			return errors.New("cavity boundary is not a closed loop")
		}
		d.tris[t].n[1] = n1
		d.tris[t].n[2] = n2
	}
	d.last = newTris[0]
	return nil
}

// alloc returns a triangle slot, reusing freed ones.
func (d *triangulator) alloc() int32 {
	if n := len(d.free); n > 0 {
		t := d.free[n-1]
		d.free = d.free[:n-1]
		return t
	}
	d.tris = append(d.tris, bwTri{})
	return int32(len(d.tris) - 1)
}

// setNeighbor finds the edge (a, b) in triangle t and points it at nb.
func (d *triangulator) setNeighbor(t, a, b, nb int32) {
	tr := &d.tris[t]
	for e := 0; e < 3; e++ {
		if tr.v[e] == a && tr.v[(e+1)%3] == b {
			tr.n[e] = nb
			return
		}
	}
}

// extract drops the super-triangle and returns the final mesh.
func (d *triangulator) extract() *Mesh {
	m := &Mesh{Verts: d.verts[:d.nIn]}
	for _, tr := range d.tris {
		if !tr.alive {
			continue
		}
		if int(tr.v[0]) >= d.nIn || int(tr.v[1]) >= d.nIn || int(tr.v[2]) >= d.nIn {
			continue
		}
		m.Tris = append(m.Tris, tr.v)
	}
	return m
}

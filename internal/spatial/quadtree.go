package spatial

import (
	"unstencil/internal/geom"
)

// Quadtree is a region quadtree over the bounding box of the input points.
// Internal nodes split their square into four children; leaves hold up to
// qtLeafSize items. Unlike the k-d tree it adapts its depth to local
// density, which is what makes it competitive on clustered inputs.
type Quadtree struct {
	pts   []geom.Point
	root  int32
	nodes []qtNode
	items []int32 // leaf item storage, contiguous per leaf
}

type qtNode struct {
	bounds geom.AABB
	// children[0..3] index nodes; -1 for absent. A node with all -1
	// children is a leaf owning items[lo:hi].
	children [4]int32
	lo, hi   int32
	leaf     bool
}

const (
	qtLeafSize = 16
	qtMaxDepth = 24
)

// NewQuadtree builds the tree in O(n log n) expected time.
func NewQuadtree(pts []geom.Point) *Quadtree {
	b := geom.EmptyAABB()
	for _, p := range pts {
		b = b.Extend(p)
	}
	if b.Empty() {
		b = geom.Box(0, 0, 1, 1)
	}
	// Square the box so children stay square.
	side := b.Width()
	if b.Height() > side {
		side = b.Height()
	}
	if side == 0 {
		side = 1
	}
	b = geom.AABB{Min: b.Min, Max: geom.Pt(b.Min.X+side, b.Min.Y+side)}

	t := &Quadtree{pts: pts}
	ids := make([]int32, len(pts))
	for i := range ids {
		ids[i] = int32(i)
	}
	t.root = t.build(b, ids, 0)
	return t
}

func (t *Quadtree) build(b geom.AABB, ids []int32, depth int) int32 {
	node := int32(len(t.nodes))
	t.nodes = append(t.nodes, qtNode{bounds: b, children: [4]int32{-1, -1, -1, -1}})
	if len(ids) <= qtLeafSize || depth >= qtMaxDepth {
		lo := int32(len(t.items))
		t.items = append(t.items, ids...)
		t.nodes[node].lo = lo
		t.nodes[node].hi = int32(len(t.items))
		t.nodes[node].leaf = true
		return node
	}
	c := b.Center()
	var quads [4][]int32
	for _, id := range ids {
		p := t.pts[id]
		q := 0
		if p.X > c.X {
			q |= 1
		}
		if p.Y > c.Y {
			q |= 2
		}
		quads[q] = append(quads[q], id)
	}
	childBounds := [4]geom.AABB{
		{Min: b.Min, Max: c},
		{Min: geom.Pt(c.X, b.Min.Y), Max: geom.Pt(b.Max.X, c.Y)},
		{Min: geom.Pt(b.Min.X, c.Y), Max: geom.Pt(c.X, b.Max.Y)},
		{Min: c, Max: b.Max},
	}
	for q := 0; q < 4; q++ {
		if len(quads[q]) == 0 {
			continue
		}
		child := t.build(childBounds[q], quads[q], depth+1)
		t.nodes[node].children[q] = child
	}
	return node
}

// ForEachInBox implements Index.
func (t *Quadtree) ForEachInBox(b geom.AABB, fn func(id int32)) {
	if len(t.pts) == 0 {
		return
	}
	t.query(t.root, b, fn)
}

func (t *Quadtree) query(node int32, b geom.AABB, fn func(id int32)) {
	n := &t.nodes[node]
	if !n.bounds.Intersects(b) {
		return
	}
	if n.leaf {
		for _, id := range t.items[n.lo:n.hi] {
			if b.Contains(t.pts[id]) {
				fn(id)
			}
		}
		return
	}
	for _, c := range n.children {
		if c >= 0 {
			t.query(c, b, fn)
		}
	}
}

// CountInBox implements Index.
func (t *Quadtree) CountInBox(b geom.AABB) int {
	n := 0
	t.ForEachInBox(b, func(int32) { n++ })
	return n
}

// Len implements Index.
func (t *Quadtree) Len() int { return len(t.pts) }

// Order returns a permutation of the item ids in depth-first traversal
// order, visiting the four children of each node in SW, SE, NW, NE
// sequence — the Z-order (Morton) curve, adapted to local density by the
// tree's subdivision. Spatially neighbouring points land at neighbouring
// positions in the permutation, which is what the assembled-operator path
// (internal/operator) uses to order its rows: consecutive rows then
// gather coefficient blocks of nearby elements, keeping the SpMV's column
// accesses cache-resident. This is the production role the paper's §3
// index comparison left the quadtree without (the hash grid wins the box
// queries; see the spatial experiment and DESIGN.md §11).
func (t *Quadtree) Order() []int32 {
	out := make([]int32, 0, len(t.pts))
	if len(t.pts) == 0 {
		return out
	}
	var walk func(node int32)
	walk = func(node int32) {
		n := &t.nodes[node]
		if n.leaf {
			out = append(out, t.items[n.lo:n.hi]...)
			return
		}
		for _, c := range n.children {
			if c >= 0 {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

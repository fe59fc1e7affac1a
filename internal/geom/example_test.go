package geom_test

import (
	"fmt"

	"unstencil/internal/geom"
)

// Clipping a mesh triangle against one stencil square — the post-processor's
// innermost geometric operation.
func ExampleClipper_ClipTriangleBox() {
	var c geom.Clipper
	tri := geom.Tri(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1))
	cell := geom.Box(0.25, 0.25, 0.75, 0.75)
	poly := geom.Polygon(c.ClipTriangleBox(tri, cell))
	fmt.Printf("vertices: %d\n", len(poly))
	fmt.Printf("area: %.4f\n", poly.Area())
	// Output:
	// vertices: 4
	// area: 0.1250
}

func ExampleSplitFan() {
	square := geom.Polygon{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tris := geom.SplitFan(square, nil, 0)
	total := 0.0
	for _, t := range tris {
		total += t.Area
	}
	fmt.Printf("%d triangles, total area %.2f\n", len(tris), total)
	// Output:
	// 2 triangles, total area 1.00
}

func ExampleTriangle_Barycentric() {
	tri := geom.Tri(geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(0, 2))
	wa, wb, wc := tri.Barycentric(geom.Pt(0.5, 0.5))
	fmt.Printf("%.2f %.2f %.2f\n", wa, wb, wc)
	// Output:
	// 0.50 0.25 0.25
}

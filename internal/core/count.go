package core

import "unstencil/internal/geom"

// CountIntersectionTests counts the candidate (stencil, element) pairs each
// scheme examines — the paper's Table 1 metric — without performing any
// clipping or integration, so it runs at full paper scale (1024k triangles)
// in seconds. The count equals what Result.Total.IntersectionTests reports
// after a full run of the same scheme.
func (ev *Evaluator) CountIntersectionTests(scheme Scheme) uint64 {
	switch scheme {
	case PerPoint:
		return ev.countPerPointTests()
	case PerElement:
		return ev.countPerElementTests()
	default:
		return 0
	}
}

func (ev *Evaluator) countPerPointTests() uint64 {
	var total uint64
	for i := range ev.Points {
		supp := ev.supportBox(ev.Points[i].Pos, ev.Kernel, ev.Kernel)
		ev.forEachShift(supp, func(dx, dy int) {
			box := supp.Translate(geom.Pt(float64(-dx), float64(-dy)))
			total += uint64(ev.elemGrid.CountInBox(box, 1))
		})
	}
	return total
}

func (ev *Evaluator) countPerElementTests() uint64 {
	var total uint64
	for e := range ev.elemBounds {
		box := ev.elemBounds[e].Pad(ev.influencePad())
		ev.forEachShift(box, func(dx, dy int) {
			qbox := box.Translate(geom.Pt(float64(-dx), float64(-dy)))
			total += uint64(ev.pointGrid.CountInBox(qbox, 0))
		})
	}
	return total
}

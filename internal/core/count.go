package core

import "unstencil/internal/geom"

// CountIntersectionTests counts the candidate (stencil, element) pairs each
// scheme examines — the paper's Table 1 metric — without performing any
// clipping or integration, so it runs at full paper scale (1024k triangles)
// in seconds. The count equals what Result.Total.IntersectionTests reports
// after a full run of the same scheme; it fails where that run would, on a
// one-sided kernel that cannot be built.
func (ev *Evaluator) CountIntersectionTests(scheme Scheme) (uint64, error) {
	switch scheme {
	case PerPoint:
		return ev.countPerPointTests()
	case PerElement:
		return ev.countPerElementTests(), nil
	default:
		return 0, nil
	}
}

// countPerPointTests sizes each point's support box with the kernels its
// run uses, so one-sided boundaries count their shifted supports.
func (ev *Evaluator) countPerPointTests() (uint64, error) {
	var total uint64
	for i := range ev.Points {
		pos := ev.Points[i].Pos
		kx, ky, err := ev.kernelsFor(pos)
		if err != nil {
			return 0, err
		}
		supp := ev.supportBox(pos, kx, ky)
		ev.forEachShift(supp, func(dx, dy int) {
			box := supp.Translate(geom.Pt(float64(-dx), float64(-dy)))
			total += uint64(ev.elemGrid.CountInBox(box, 1))
		})
	}
	return total, nil
}

func (ev *Evaluator) countPerElementTests() uint64 {
	var total uint64
	for e := range ev.elemBounds {
		ev.forEachInfluenceImage(e, func(qbox geom.AABB, _ geom.Point) {
			total += uint64(ev.pointGrid.CountInBox(qbox, 0))
		})
	}
	return total
}

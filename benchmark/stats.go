package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics (the "type 7" rule: the median
// of an even sample is the mean of its two middle values). An empty
// sample yields 0.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(v, 0.5).
func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive" method), so
// the spreads this package prints are the ones the pipeline computes. It
// needs at least two values; a shorter sample returns its only value (or
// 0) three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	m := len(v)
	if m < 2 {
		x := median(v)
		return x, x, x
	}
	s := sorted(v)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is held against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(q2))
}

// ratio is num/den, and 0 when den is 0 so an idle layer reads as zero
// instead of NaN in JSON.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// worseBy returns by what share of first the second value is worse, given
// the metric's direction; negative means second is better.
func worseBy(first, second float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return ratio(second-first, math.Abs(first))
	}
	return ratio(first-second, math.Abs(first))
}

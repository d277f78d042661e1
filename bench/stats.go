package main

import (
	"math"
	"sort"
)

// dist is a sorted sample; every percentile the benchmark reports goes
// through it.
type dist struct{ sorted []float64 }

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{s}
}

// p is the pct-th percentile by linear interpolation between closest
// ranks; 0 for an empty sample.
func (d dist) p(pct float64) float64 {
	n := len(d.sorted)
	if n == 0 {
		return 0
	}
	pos := pct / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d.sorted[lo] + (pos-float64(lo))*(d.sorted[hi]-d.sorted[lo])
}

func (d dist) min() float64 { return d.p(0) }
func (d dist) max() float64 { return d.p(100) }

// tail is the highest of p99, p95, p90 and p75 that still has at least ten
// of n samples beyond it, or 50 when n supports none of them.
func tail(n int) int {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= 10*100 {
			return pct
		}
	}
	return 50
}

func median(xs []float64) float64 { return newDist(xs).p(50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

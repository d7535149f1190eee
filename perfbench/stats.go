package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder is the set of percentiles a tail is reported at: the p99
// whenever the samples support it, a lower percentile only when they do
// not.
var tailLadder = []float64{0.99, 0.95, 0.9, 0.5}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile returns the highest percentile of tailLadder with at
// least minTail of n samples beyond it, and false when even the median has
// fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= minTail-1e-9 {
			return p, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so every reported value is one that was measured. It
// returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle of xs: the mean of the two middle samples for an
// even count. Medians of per-fit or per-round results use it; latency
// percentiles use the nearest-rank percentile instead.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// beyond returns how many samples of xs lie strictly above v: the support a
// percentile has. A tail percentile is only reported where at least ten
// samples lie beyond it.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOverMean returns max(xs)/mean(xs), the imbalance of per-thread work
// (1 is perfectly balanced).
func maxOverMean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, mx int64
	for _, x := range xs {
		sum += x
		if x > mx {
			mx = x
		}
	}
	if sum == 0 {
		return math.NaN()
	}
	return float64(mx) * float64(len(xs)) / float64(sum)
}

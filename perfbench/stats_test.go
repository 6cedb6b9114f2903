package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35} // order must not matter
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyond(t *testing.T) {
	xs := []float64{1, 2, 3, 3, 4, 9}
	if got := beyond(xs, 3); got != 2 {
		t.Errorf("beyond 3 = %d, want 2", got)
	}
	// A p95 over 200 samples leaves ten beyond it.
	var ys []float64
	for i := 1; i <= 200; i++ {
		ys = append(ys, float64(i))
	}
	p := percentile(ys, 95)
	if p != 190 || beyond(ys, p) != 10 {
		t.Errorf("p95 of 1..200 = %v with %d beyond, want 190 with 10", p, beyond(ys, p))
	}
}

func TestMedianAndImbalance(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := maxOverMean([]int64{30, 10}); got != 1.5 {
		t.Errorf("imbalance = %v, want 1.5", got)
	}
}

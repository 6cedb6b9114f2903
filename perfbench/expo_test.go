package main

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
)

// render writes a small exposition with the server's own renderer.
func render(t *testing.T, requests int64, lat []float64, flushes [][]float64) scrape {
	t.Helper()
	var b bytes.Buffer
	e := metrics.NewExpo(&b)
	e.Counter("ptucker_gc_cycles_total", "GC cycles.", requests)
	h := metrics.NewDurationHistogram()
	for _, v := range lat {
		h.Observe(v)
	}
	e.Histogram("ptucker_foldin_duration_seconds", "Fold-in seconds.", h)
	e.HistogramVec("ptucker_coalescer_flush_size", "Flush sizes.", "shard", func(sample func(string, *metrics.Histogram)) {
		for i, sizes := range flushes {
			fh := metrics.NewHistogram(metrics.ExponentialBounds(1, 2, 9))
			for _, s := range sizes {
				fh.Observe(s)
			}
			sample(string(rune('0'+i)), fh)
		}
	})
	s, err := parseScrape(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExpositionDeltas(t *testing.T) {
	before := render(t, 10, []float64{0.001}, [][]float64{{1}, {2}})
	after := render(t, 17, []float64{0.001, 0.002, 0.003}, [][]float64{{1, 4, 4}, {2, 3}})

	if d := delta(before, after, "ptucker_gc_cycles_total"); d != 7 {
		t.Errorf("counter delta = %v, want 7", d)
	}
	sum, count := histDelta(before, after, "ptucker_foldin_duration_seconds", "")
	if count != 2 || sum < 0.005-1e-12 || sum > 0.005+1e-12 {
		t.Errorf("histogram delta = %v over %v, want 0.005 over 2", sum, count)
	}
	if m := histMean(before, after, "ptucker_foldin_duration_seconds", ""); m < 0.0025-1e-12 || m > 0.0025+1e-12 {
		t.Errorf("histogram mean = %v, want 0.0025", m)
	}
	// Across both shards: three new flushes of 4, 4 and 3 predictions.
	sum, count = histDelta(before, after, "ptucker_coalescer_flush_size", "{")
	if sum != 11 || count != 3 {
		t.Errorf("labelled histogram delta = %v over %v, want 11 over 3", sum, count)
	}
	if m := histMean(before, after, "ptucker_coalescer_flush_size", `{shard="1"}`); m != 3 {
		t.Errorf("shard 1 mean = %v, want 3", m)
	}
	if m := histMean(before, before, "ptucker_foldin_duration_seconds", ""); m != 0 {
		t.Errorf("mean over no observations = %v, want 0", m)
	}
}

func TestParseScrapeRejectsBadExposition(t *testing.T) {
	if _, err := parseScrape([]byte("ptucker_x_total 1\n")); err == nil {
		t.Error("a sample without HELP/TYPE was accepted")
	}
}

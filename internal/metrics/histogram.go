package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket concurrent histogram. Buckets are cumulative
// upper bounds in the Prometheus sense (`le`): an observation v lands in the
// first bucket whose bound is >= v, or in the implicit +Inf overflow bucket.
//
// The record path is lock-free and allocation-free: one binary search over
// the (immutable) bounds, one atomic increment, and a CAS loop folding the
// value into a float64 sum stored as uint64 bits. Snapshots taken while
// records are in flight are internally consistent enough for exposition —
// each counter is atomically read, and the reconciliation invariant
// (sum of buckets == count) holds exactly once writers quiesce.
type Histogram struct {
	bounds []float64       // strictly increasing upper bounds, immutable
	counts []atomic.Uint64 // len(bounds)+1; last entry is the +Inf bucket
	sum    atomic.Uint64   // float64 bits of the running sum of observations
}

// NewHistogram returns a histogram over the given upper bounds, which must
// be non-empty, finite, and strictly increasing. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic("metrics: histogram bounds must be finite")
		}
		if i > 0 && v <= b[i-1] {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// ExponentialBounds returns n upper bounds start, start*factor,
// start*factor^2, ... — the usual shape for latency and size buckets.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExponentialBounds needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefaultDurationBounds spans 10µs to ~1.3s in doubling buckets — wide
// enough for both sub-millisecond predictions and multi-hundred-ms
// fsyncs; anything slower lands in +Inf and is still counted and summed.
var DefaultDurationBounds = ExponentialBounds(10e-6, 2, 18)

// NewDurationHistogram returns a histogram over DefaultDurationBounds,
// recording durations in seconds.
func NewDurationHistogram() *Histogram { return NewHistogram(DefaultDurationBounds) }

// Observe records one value. Safe for concurrent use; never allocates.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// are per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies the current bucket counts and sum. Bounds aliases the
// histogram's immutable bounds slice; Counts is freshly allocated.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

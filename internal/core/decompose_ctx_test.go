package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tensor"
)

// ctxFixture builds the shared planted tensor for the context/hook tests.
func ctxFixture(t *testing.T) *tensor.Coord {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	return plantedTensor(rng, []int{18, 15, 12}, []int{2, 2, 2}, 1400, 0.02)
}

func TestDecomposeContextAlreadyCancelled(t *testing.T) {
	x := ctxFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := DecomposeContext(ctx, x, smallConfig([]int{2, 2, 2}))
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", m, err)
	}
}

// Cancelling mid-fit must stop within one iteration and surface ctx.Err().
// The hook cancels deterministically after iteration 2; the fit must then
// observe the cancellation before completing iteration 3.
func TestDecomposeContextCancelMidFit(t *testing.T) {
	x := ctxFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	iterations := 0
	cfg := smallConfig([]int{2, 2, 2})
	cfg.MaxIters = 50
	cfg.OnIteration = func(IterStats) error {
		iterations++
		if iterations == 2 {
			cancel()
		}
		return nil
	}

	m, err := DecomposeContext(ctx, x, cfg)
	if m != nil {
		t.Fatal("cancelled fit returned a model")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v want context.Canceled", err)
	}
	if iterations != 2 {
		t.Fatalf("fit ran %d iterations after cancellation at 2", iterations)
	}
}

func TestDecomposeContextDeadline(t *testing.T) {
	x := ctxFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := DecomposeContext(ctx, x, smallConfig([]int{2, 2, 2})); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v want context.DeadlineExceeded", err)
	}
}

func TestOnIterationObservesEveryIteration(t *testing.T) {
	x := ctxFixture(t)
	cfg := smallConfig([]int{2, 2, 2})
	var seen []IterStats
	cfg.OnIteration = func(s IterStats) error {
		seen = append(seen, s)
		return nil
	}
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(m.Trace) {
		t.Fatalf("hook saw %d iterations, trace has %d", len(seen), len(m.Trace))
	}
	for i, s := range seen {
		if s != m.Trace[i] {
			t.Fatalf("hook stats[%d] = %+v differ from trace %+v", i, s, m.Trace[i])
		}
		if s.Iter != i+1 || s.Error <= 0 || s.Elapsed <= 0 || s.CoreNNZ <= 0 {
			t.Fatalf("implausible iteration stats: %+v", s)
		}
	}
}

func TestOnIterationEarlyStop(t *testing.T) {
	x := ctxFixture(t)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.MaxIters = 50
	calls := 0
	cfg.OnIteration = func(IterStats) error {
		calls++
		if calls == 3 {
			return ErrStopIteration
		}
		return nil
	}
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatalf("early stop must not be an error: %v", err)
	}
	if calls != 3 || len(m.Trace) != 3 {
		t.Fatalf("stopped after %d calls with %d trace entries, want 3/3", calls, len(m.Trace))
	}
	// The early-stopped model is still finalized: factor columns orthonormal.
	for k, a := range m.Factors {
		jn := a.Cols()
		for j1 := 0; j1 < jn; j1++ {
			for j2 := 0; j2 < jn; j2++ {
				var dot float64
				for i := 0; i < a.Rows(); i++ {
					dot += a.At(i, j1) * a.At(i, j2)
				}
				want := 0.0
				if j1 == j2 {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("factor %d not orthonormalized after early stop: col %d·%d = %v", k, j1, j2, dot)
				}
			}
		}
	}
}

func TestOnIterationErrorAborts(t *testing.T) {
	x := ctxFixture(t)
	boom := errors.New("checkpoint disk full")
	cfg := smallConfig([]int{2, 2, 2})
	cfg.OnIteration = func(IterStats) error { return boom }
	m, err := DecomposeContext(context.Background(), x, cfg)
	if m != nil {
		t.Fatal("failed hook still produced a model")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrap of the hook's error", err)
	}
}

// The returned model must not retain the hook: it is fit-time observability,
// and keeping it would pin the closure's captured scope for the lifetime of a
// served model.
func TestModelConfigDropsHook(t *testing.T) {
	x := ctxFixture(t)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.OnIteration = func(IterStats) error { return nil }
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.OnIteration != nil {
		t.Fatal("Model.Config retains the OnIteration closure")
	}
}

package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func predictorFixture(t *testing.T) (*Model, *Predictor, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dims := []int{20, 16, 12}
	x := plantedTensor(rng, dims, []int{3, 3, 3}, 1500, 0.02)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([][]int, 500)
	for i := range idxs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		idxs[i] = idx
	}
	return m, NewPredictor(m), idxs
}

func TestPredictorMatchesModelExactly(t *testing.T) {
	m, p, idxs := predictorFixture(t)
	for _, idx := range idxs {
		want, got := m.Predict(idx), p.Predict(idx)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("Predictor diverges from Model at %v: %v vs %v", idx, want, got)
		}
	}
}

// TestPredictorSharedBitIdentical pins the zero-copy contract: a predictor
// that aliases the model's factors and core answers bit-for-bit like the
// deep-copying one, and building it does not touch the model.
func TestPredictorSharedBitIdentical(t *testing.T) {
	m, p, idxs := predictorFixture(t)
	shared := NewPredictorShared(m)
	for k, a := range m.Factors {
		if shared.factors[k] != a {
			t.Fatalf("shared predictor cloned factor %d", k)
		}
	}
	if shared.core != m.Core {
		t.Fatal("shared predictor cloned the core")
	}
	for _, idx := range idxs {
		want, got := p.Predict(idx), shared.Predict(idx)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("shared predictor diverges at %v: %v vs %v", idx, want, got)
		}
	}
	batch, sharedBatch := p.PredictBatch(idxs), shared.PredictBatch(idxs)
	for i := range batch {
		if math.Float64bits(batch[i]) != math.Float64bits(sharedBatch[i]) {
			t.Fatalf("shared batch diverges at %d: %v vs %v", i, batch[i], sharedBatch[i])
		}
	}
}

func TestPredictBatchMatchesSequential(t *testing.T) {
	_, p, idxs := predictorFixture(t)
	batch := p.PredictBatch(idxs)
	if len(batch) != len(idxs) {
		t.Fatalf("batch returned %d results for %d indices", len(batch), len(idxs))
	}
	for i, idx := range idxs {
		if math.Float64bits(batch[i]) != math.Float64bits(p.Predict(idx)) {
			t.Fatalf("batch[%d] = %v, sequential = %v", i, batch[i], p.Predict(idx))
		}
	}
	// A serial predictor must agree bit-for-bit with the parallel one.
	serial := p.WithWorkers(1).PredictBatch(idxs)
	for i := range serial {
		if math.Float64bits(serial[i]) != math.Float64bits(batch[i]) {
			t.Fatalf("workers change results at %d: %v vs %v", i, serial[i], batch[i])
		}
	}
}

// TestPredictorConcurrent hammers one predictor from 8 goroutines mixing
// Predict and PredictBatch; run under -race this is the data-race acceptance
// test for the serving layer.
func TestPredictorConcurrent(t *testing.T) {
	_, p, idxs := predictorFixture(t)
	want := p.PredictBatch(idxs)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if g%2 == 0 {
					got := p.PredictBatch(idxs)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							errs <- "concurrent PredictBatch diverged"
							return
						}
					}
				} else {
					for i := g; i < len(idxs); i += goroutines {
						if math.Float64bits(p.Predict(idxs[i])) != math.Float64bits(want[i]) {
							errs <- "concurrent Predict diverged"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// The predictor is a snapshot: mutating the source model after NewPredictor
// must not change its answers.
func TestPredictorImmutableSnapshot(t *testing.T) {
	m, p, idxs := predictorFixture(t)
	before := p.PredictBatch(idxs)

	for _, a := range m.Factors {
		a.Fill(123.456)
	}
	for e := 0; e < m.Core.NNZ(); e++ {
		m.Core.SetValue(e, -1)
	}

	after := p.PredictBatch(idxs)
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatal("predictor answers changed when the source model was mutated")
		}
	}
}

func TestPredictorChecksIndices(t *testing.T) {
	_, p, _ := predictorFixture(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("wrong order", func() { p.Predict([]int{1, 2}) })
	mustPanic("negative", func() { p.Predict([]int{-1, 0, 0}) })
	mustPanic("out of range", func() { p.Predict([]int{0, 0, 99}) })
	mustPanic("batch out of range", func() { p.PredictBatch([][]int{{0, 0, 0}, {0, 0, 99}}) })
}

func TestPredictorAccessors(t *testing.T) {
	_, p, _ := predictorFixture(t)
	if p.Order() != 3 {
		t.Fatalf("order %d want 3", p.Order())
	}
	dims := p.Dims()
	if len(dims) != 3 || dims[0] != 20 || dims[1] != 16 || dims[2] != 12 {
		t.Fatalf("dims %v want [20 16 12]", dims)
	}
	dims[0] = -5 // must be a copy
	if p.Dims()[0] != 20 {
		t.Fatal("Dims returned interior storage")
	}
	if q := p.WithWorkers(0); q == nil {
		t.Fatal("WithWorkers(0) returned nil")
	}
}

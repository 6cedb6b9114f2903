package ptucker

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// ratingTensor builds a small structured rating tensor for facade tests.
func ratingTensor(seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := NewTensor([]int{40, 30, 12})
	idx := make([]int, 3)
	for x.NNZ() < 800 {
		idx[0], idx[1], idx[2] = rng.Intn(40), rng.Intn(30), rng.Intn(12)
		// Block structure: users and items in matching halves rate high.
		v := 0.2
		if (idx[0] < 20) == (idx[1] < 15) {
			v = 0.8
		}
		x.MustAppend(idx, v+0.05*rng.NormFloat64())
	}
	return x
}

func TestFacadeDecomposeAndPredict(t *testing.T) {
	x := ratingTensor(1)
	cfg := Defaults([]int{3, 3, 3})
	cfg.MaxIters = 6
	cfg.Threads = 2
	cfg.Seed = 7
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fit(x) < 0.7 {
		t.Fatalf("fit %v too low for structured data", m.Fit(x))
	}
	p := m.Predict([]int{1, 1, 1})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("prediction not finite: %v", p)
	}
}

func TestFacadeVariants(t *testing.T) {
	x := ratingTensor(2)
	for _, method := range []Method{PTucker, PTuckerCache, PTuckerApprox} {
		cfg := Defaults([]int{2, 2, 2})
		cfg.Method = method
		cfg.MaxIters = 3
		cfg.Threads = 2
		cfg.Seed = 5
		if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

func TestFacadeTensorIO(t *testing.T) {
	x := ratingTensor(3)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := WriteTensorFile(path, x); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTensorFile(path, 3, x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != x.NNZ() {
		t.Fatalf("IO round trip lost entries: %d vs %d", back.NNZ(), x.NNZ())
	}
}

func TestFacadeDiscovery(t *testing.T) {
	x := ratingTensor(4)
	cfg := Defaults([]int{2, 2, 2})
	cfg.MaxIters = 5
	cfg.Threads = 2
	cfg.Seed = 9
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	concepts, err := Concepts(m, 0, 2, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(concepts) != 2 {
		t.Fatalf("%d concepts want 2", len(concepts))
	}
	rels := Relations(m, 2, 3)
	if len(rels) != 2 {
		t.Fatalf("%d relations want 2", len(rels))
	}
	if len(rels[0].TopIndices) != 3 {
		t.Fatalf("relation mode lists = %d want 3", len(rels[0].TopIndices))
	}
}

func TestFacadeSchedulingConstants(t *testing.T) {
	x := ratingTensor(5)
	cfg := Defaults([]int{2, 2, 2})
	cfg.MaxIters = 2
	cfg.Scheduling = ScheduleStatic
	cfg.Threads = 2
	if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
		t.Fatal(err)
	}
	if ScheduleDynamic == ScheduleStatic {
		t.Fatal("scheduling constants must differ")
	}
}

// TestFacadeFitSaveServe drives the production workflow end to end through
// the public API: fit with context + progress hook, save, load, and serve the
// loaded model concurrently — predictions must be bit-identical throughout.
func TestFacadeFitSaveServe(t *testing.T) {
	x := ratingTensor(7)
	cfg := Defaults([]int{3, 3, 3})
	cfg.MaxIters = 6
	cfg.Threads = 2
	cfg.Seed = 7
	progress := 0
	cfg.OnIteration = func(s IterStats) error {
		progress++
		if s.Iter != progress {
			t.Errorf("hook iteration %d out of order (want %d)", s.Iter, progress)
		}
		return nil
	}

	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if progress == 0 {
		t.Fatal("OnIteration never called")
	}

	path := filepath.Join(t.TempDir(), "model.ptkm")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPredictor(loaded)
	idxs := make([][]int, 300)
	rng := rand.New(rand.NewSource(77))
	for i := range idxs {
		idxs[i] = []int{rng.Intn(40), rng.Intn(30), rng.Intn(12)}
	}
	batch := p.PredictBatch(idxs)
	for i, idx := range idxs {
		if math.Float64bits(batch[i]) != math.Float64bits(m.Predict(idx)) {
			t.Fatalf("served prediction at %v diverges from the fitted model", idx)
		}
	}

	// 8 goroutines serving concurrently (the -race acceptance scenario).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := p.PredictBatch(idxs)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(batch[i]) {
					t.Error("concurrent batch prediction diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFacadeCancellation(t *testing.T) {
	x := ratingTensor(8)
	cfg := Defaults([]int{3, 3, 3})
	cfg.MaxIters = 100
	cfg.Tol = 0
	cfg.Threads = 2
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnIteration = func(s IterStats) error {
		if s.Iter == 2 {
			cancel()
		}
		return nil
	}
	m, err := DecomposeContext(ctx, x, cfg)
	if m != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", m, err)
	}
}

func TestFacadeEarlyStop(t *testing.T) {
	x := ratingTensor(9)
	cfg := Defaults([]int{3, 3, 3})
	cfg.MaxIters = 100
	cfg.Tol = 0
	cfg.Threads = 2
	cfg.OnIteration = func(s IterStats) error {
		if s.Iter == 2 {
			return ErrStopIteration
		}
		return nil
	}
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trace) != 2 {
		t.Fatalf("early stop ran %d iterations, want 2", len(m.Trace))
	}
}

func TestFacadeDecomposeCP(t *testing.T) {
	x := ratingTensor(6)
	m, err := DecomposeCP(x, CPConfig{Rank: 3, Lambda: 0.01, MaxIters: 15, Threads: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := m.ReconstructionError(x); e > 0.5*x.Norm() {
		t.Fatalf("CP error %v too high vs ||X||=%v", e, x.Norm())
	}
	if v := m.Predict([]int{1, 2, 3}); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("CP prediction not finite: %v", v)
	}
}

package ptucker

// End-to-end integration tests across modules: generator → file IO →
// factorization → evaluation → discovery, and cross-method consistency on a
// shared workload.

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/csf"
	"repro/internal/hooi"
	"repro/internal/shot"
	"repro/internal/synth"
	"repro/internal/wopt"
)

// TestPipelineEndToEnd drives the full user workflow: generate a MovieLens
// stand-in, round-trip it through the on-disk format, split, factorize with
// every P-Tucker variant, evaluate held-out RMSE, and run both discovery
// passes.
func TestPipelineEndToEnd(t *testing.T) {
	mcfg := synth.DefaultMovieLensConfig()
	mcfg.Users, mcfg.Movies, mcfg.NNZ, mcfg.Genres = 120, 60, 6000, 3
	data := synth.MovieLens(mcfg)

	// File round trip.
	path := filepath.Join(t.TempDir(), "ml.tns")
	if err := WriteTensorFile(path, data.X); err != nil {
		t.Fatal(err)
	}
	x, err := ReadTensorFile(path, 4, data.X.Dims())
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != data.X.NNZ() {
		t.Fatalf("file round trip lost entries: %d vs %d", x.NNZ(), data.X.NNZ())
	}

	rng := rand.New(rand.NewSource(5))
	train, test := x.Split(0.9, rng)

	for _, method := range []Method{PTucker, PTuckerCache, PTuckerApprox} {
		cfg := Defaults([]int{3, 3, 3, 3})
		cfg.Method = method
		cfg.MaxIters = 6
		cfg.Tol = 0
		cfg.Threads = 2
		cfg.Seed = 7
		m, err := DecomposeContext(context.Background(), train, cfg)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		rmse := m.RMSE(test)
		// Ratings live in [0,1]; a working factorization must beat the
		// trivial ~0.3 RMSE of predicting a constant by a wide margin.
		if rmse > 0.25 {
			t.Fatalf("%v: held-out RMSE %v too high", method, rmse)
		}
	}

	// Discovery over the plain model.
	cfg := Defaults([]int{3, 3, 3, 3})
	cfg.MaxIters = 6
	cfg.Threads = 2
	cfg.Seed = 7
	m, err := DecomposeContext(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	concepts, err := Concepts(m, 1, 3, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(concepts) != 3 {
		t.Fatalf("%d concepts want 3", len(concepts))
	}
	if rels := Relations(m, 3, 4); len(rels) != 3 {
		t.Fatalf("%d relations want 3", len(rels))
	}
}

// TestMethodsAgreeOnFullyObservedLowRank cross-checks all five methods on a
// FULLY observed exact-low-rank tensor — the one regime where they all solve
// the same problem, so every one of them must reconstruct it almost
// perfectly.
func TestMethodsAgreeOnFullyObservedLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := synth.PlantedTucker(rng, []int{8, 8, 8}, []int{2, 2, 2}, 8*8*8, 0)
	ranks := []int{2, 2, 2}
	norm := x.Norm()

	check := func(name string, errVal float64) {
		t.Helper()
		if errVal > 0.02*norm {
			t.Fatalf("%s: error %v vs ||X||=%v on exact-rank fully observed data", name, errVal, norm)
		}
	}

	cfg := Defaults(ranks)
	cfg.MaxIters = 25
	cfg.Tol = 0
	cfg.Threads = 2
	cfg.Seed = 3
	pm, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("P-Tucker", pm.ReconstructionError(x))

	hm, err := hooi.Decompose(x, hooi.Config{Ranks: ranks, MaxIters: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("Tucker-ALS", hm.ReconstructionError(x))

	sm, err := shot.Decompose(x, shot.Config{Ranks: ranks, MaxIters: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("S-HOT", sm.ReconstructionError(x))

	cm, err := csf.Decompose(x, csf.Config{Ranks: ranks, MaxIters: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("Tucker-CSF", cm.ReconstructionError(x))

	wm, err := wopt.Decompose(x, wopt.Config{Ranks: ranks, MaxIters: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// NCG converges more slowly; allow a looser but still small bound.
	if e := wm.ReconstructionError(x); e > 0.1*norm {
		t.Fatalf("Tucker-wOpt: error %v vs ||X||=%v", e, norm)
	}

	// The zero-fill baselines agree with each other to numerical precision.
	if d := math.Abs(sm.ReconstructionError(x) - cm.ReconstructionError(x)); d > 1e-6*norm {
		t.Fatalf("S-HOT and Tucker-CSF diverge on identical mathematics: Δ=%v", d)
	}
}

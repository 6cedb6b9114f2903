package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mat"
)

// modelsBitIdentical reports whether two models have bit-for-bit equal
// factors and cores — every factor bit, and the core's dims, entry indices
// and values (the numeric content the reproducibility guarantee covers;
// Trace wall-clock times legitimately differ between runs).
func modelsBitIdentical(a, b *Model) bool {
	if len(a.Factors) != len(b.Factors) {
		return false
	}
	for k := range a.Factors {
		da, db := a.Factors[k].Data(), b.Factors[k].Data()
		if len(da) != len(db) {
			return false
		}
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				return false
			}
		}
	}
	if a.Core.NNZ() != b.Core.NNZ() || !slices.Equal(a.Core.Dims(), b.Core.Dims()) {
		return false
	}
	for e := 0; e < a.Core.NNZ(); e++ {
		ia, ib := a.Core.Index(e), b.Core.Index(e)
		for k := range ia {
			if ia[k] != ib[k] {
				return false
			}
		}
		if math.Float64bits(a.Core.Value(e)) != math.Float64bits(b.Core.Value(e)) {
			return false
		}
	}
	return true
}

// Regression for the truncation-determinism fix: with equal seeds, two
// P-Tucker-Approx runs must produce bit-identical models even when R(β)
// ties leave the ranking underdetermined — the tie-break by entry index
// removes the sort's freedom to pick which tied entries die.
func TestApproxEqualSeedsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 600, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.2
	cfg.Threads = 4

	m1, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsBitIdentical(m1, m2) {
		t.Fatal("equal seeds produced different P-Tucker-Approx models")
	}
	for i := range m1.Trace {
		if m1.Trace[i].CoreNNZ != m2.Trace[i].CoreNNZ {
			t.Fatalf("iteration %d truncated differently: |G| %d vs %d",
				i+1, m1.Trace[i].CoreNNZ, m2.Trace[i].CoreNNZ)
		}
	}
}

// Unit-level determinism of truncateCore under exact R(β) ties: every core
// value equal and a single observed entry makes all partial errors
// identical, so only the index tie-break decides the dropped set — it must
// be the lowest-indexed entries, every time.
func TestTruncateCoreTieBreakByIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := uniformTensor(rng, []int{4, 4}, 1)

	build := func() *state {
		g := NewRandomCore([]int{2, 2}, rand.New(rand.NewSource(2)))
		for e := 0; e < g.NNZ(); e++ {
			g.SetValue(e, 0) // Gβ = 0 ⇒ pβ(α) = 0 ⇒ R(β) = 0 for all β: total tie
		}
		frng := rand.New(rand.NewSource(3))
		factors := make([]*mat.Dense, 2)
		for k := 0; k < 2; k++ {
			a := mat.NewDense(4, 2)
			for i := range a.Data() {
				a.Data()[i] = frng.Float64()
			}
			factors[k] = a
		}
		st := NewStateForAnalysis(x, factors, g, 2)
		st.cfg.TruncationRate = 0.5
		return st
	}

	st1 := build()
	st1.truncateCore()
	st2 := build()
	st2.truncateCore()

	if st1.core.NNZ() != 2 || st2.core.NNZ() != 2 {
		t.Fatalf("truncation kept %d and %d entries, want 2", st1.core.NNZ(), st2.core.NNZ())
	}
	// With all R(β) tied, the ascending-index tie-break drops entries 0..k-1,
	// so the survivors are the highest-indexed entries of the enumeration.
	for e := 0; e < st1.core.NNZ(); e++ {
		i1, i2 := st1.core.Index(e), st2.core.Index(e)
		for k := range i1 {
			if i1[k] != i2[k] {
				t.Fatalf("tied truncation diverged at survivor %d: %v vs %v", e, i1, i2)
			}
		}
	}
	// Entries enumerate little-endian: (0,0) (1,0) (0,1) (1,1); dropping the
	// two lowest-indexed leaves (0,1) and (1,1).
	want := [][]int{{0, 1}, {1, 1}}
	for e, w := range want {
		got := st1.core.Index(e)
		for k := range w {
			if got[k] != w[k] {
				t.Fatalf("survivor %d = %v, want %v", e, got, w)
			}
		}
	}
}

// Regression for the work-accumulation fix: WorkPerThread must cover every
// mode of the final iteration, so its entries sum to Σ_n I_n (each row of
// each factor is updated exactly once per iteration) and its length is the
// configured thread count.
func TestWorkPerThreadSumsAcrossModes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dims := []int{15, 11, 7}
	x := plantedTensor(rng, dims, []int{3, 3, 3}, 700, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Threads = 3

	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.WorkPerThread) != cfg.Threads {
		t.Fatalf("WorkPerThread has %d slots, want %d", len(m.WorkPerThread), cfg.Threads)
	}
	var sum, wantSum int64
	for _, w := range m.WorkPerThread {
		sum += w
	}
	for _, d := range dims {
		wantSum += int64(d)
	}
	if sum != wantSum {
		t.Fatalf("WorkPerThread sums to %d rows, want Σ I_n = %d (all modes, not just the last)",
			sum, wantSum)
	}
}

// TestRMSEWorkersIgnoreConfigThreads: a model's Config.Threads is the
// count of the host that fitted it, and a model file carries it elsewhere.
// Scoring runs on this host's GOMAXPROCS workers, so a model carrying 4096
// threads allocates exactly what one carrying 2 does.
func TestRMSEWorkersIgnoreConfigThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := uniformTensor(rng, []int{30, 20, 10}, 2000)
	m := syntheticModel(t, 43, []int{30, 20, 10}, []int{3, 3, 3})
	allocs := func(threads int) float64 {
		m.Config.Threads = threads
		return testing.AllocsPerRun(20, func() { m.RMSE(x) })
	}
	if small, huge := allocs(2), allocs(4096); huge != small {
		t.Fatalf("RMSE allocates %v objects at Threads 4096, %v at Threads 2", huge, small)
	}
}

// The reported errors must not depend on the thread count either: the
// Tol stop and Sparsify's budget probes compare them, so T=1 and T=4 must
// agree to the last bit on every Trace error and on TrainError.
func TestErrorsBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := uniformTensor(rng, []int{300, 200, 100}, 20000)
	configs := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"cache", func(c *Config) { c.Method = PTuckerCache }},
		{"approx", func(c *Config) { c.Method = PTuckerApprox }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Model
			for threads := 1; threads <= 4; threads++ {
				cfg := smallConfig([]int{4, 4, 4})
				cfg.MaxIters = 3
				cfg.Threads = threads
				tc.mut(&cfg)
				m, err := DecomposeContext(context.Background(), x, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = m
					continue
				}
				if !modelsBitIdentical(ref, m) {
					t.Fatalf("T=1 and T=%d fitted different models", threads)
				}
				for i := range ref.Trace {
					if a, b := ref.Trace[i].Error, m.Trace[i].Error; math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("iteration %d error at T=1 %.17g, at T=%d %.17g", i+1, a, threads, b)
					}
				}
				if a, b := ref.TrainError, m.TrainError; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("TrainError at T=1 %.17g, at T=%d %.17g", a, threads, b)
				}
			}
		})
	}
}

// R(β) must not depend on the thread count: truncateCore and sparsifyCore
// rank entries by it, so a last-bit difference at a near-tie would change
// which entries a P-Tucker-Approx or Sparsify fit drops.
func TestPartialErrorsBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := uniformTensor(rng, []int{60, 50, 40}, 20000)
	for _, method := range []Method{PTucker, PTuckerCache} {
		cfg := smallConfig([]int{4, 4, 4})
		cfg.Method = method
		st := validState(t, x, cfg)
		var ref []float64
		for threads := 1; threads <= 4; threads++ {
			st.cfg.Threads = threads
			r := PartialErrors(st)
			if ref == nil {
				ref = r
				continue
			}
			for e := range ref {
				if math.Float64bits(ref[e]) != math.Float64bits(r[e]) {
					t.Fatalf("%v: R(β) of entry %d is %.17g at T=1, %.17g at T=%d", method, e, ref[e], r[e], threads)
				}
			}
		}
	}
}

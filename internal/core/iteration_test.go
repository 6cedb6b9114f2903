package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lastModeError drives one factor sweep of st by hand, collecting the last
// mode's row residuals, and returns the error derived from them next to the
// exact Eq. (5) pass over the same factors and core.
func lastModeError(st *state) (derived float64, ok bool, exact float64) {
	n := st.x.Order()
	for mode := 0; mode < n-1; mode++ {
		st.updateFactor(mode, nil)
	}
	rowErr := make([]float64, st.x.Dim(n-1))
	st.updateFactor(n-1, rowErr)
	nrm := st.x.Norm()
	derived, ok = derivedError(rowErr, nrm*nrm)
	return derived, ok, reconstructionError(st.x, st.factors, st.core, st.cfg.Threads)
}

func validState(t *testing.T, x *tensor.Coord, cfg Config) *state {
	t.Helper()
	cfg, err := cfg.Validate(x.Dims())
	if err != nil {
		t.Fatal(err)
	}
	return newState(x, cfg)
}

// The error summed from the last mode's row solves (Σx² − 2aᵀc + aᵀBa per
// row) is Eq. (5): after two iterations — so Approx's core is truncated and
// Cache's Pres table rescaled — it matches the exact pass to 1e-12.
func TestDerivedErrorMatchesExactPass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := plantedTensor(rng, []int{40, 30, 25}, []int{3, 3, 3}, 3000, 0.3)
	for _, method := range []Method{PTucker, PTuckerCache, PTuckerApprox} {
		cfg := smallConfig([]int{3, 3, 3})
		cfg.Method = method
		cfg.MaxIters = 2
		st := validState(t, x, cfg)
		if err := st.sweep(context.Background(), st.newModel()); err != nil {
			t.Fatal(err)
		}
		if method == PTuckerApprox && st.core.NNZ() == 27 {
			t.Fatal("approx core was not truncated")
		}
		derived, ok, exact := lastModeError(st)
		if !ok {
			t.Fatalf("%v: derived error %v rejected (exact %v)", method, derived, exact)
		}
		if rel := math.Abs(derived-exact) / exact; rel > 1e-12 {
			t.Fatalf("%v: derived error %.17g, exact pass %.17g (relative %.3g)", method, derived, exact, rel)
		}
	}
}

// Where the derived sum is all rounding — a near-exact fit — the iteration
// must report the exact pass, bit for bit.
func TestExactErrorPassWhereDerivationFails(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cells := plantedTensor(rng, []int{40, 30, 25}, []int{3, 3, 3}, 3000, 0.3)

	// A noise-free tensor over the same cells, planted from the fit's own
	// initial factors and core: equal seeds draw equal initial states, and P-Tucker never moves
	// the core, so the first row solves reproduce the tensor up to the
	// ridge's bias. At this λ the true squared error is ~1e-13·‖X‖², so
	// the derived sum is positive but already 0.2% off.
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Lambda = 1e-5
	start := validState(t, tensor.NewCoord([]int{40, 30, 25}), cfg)
	exactFit := tensor.NewCoord([]int{40, 30, 25})
	rows := make([][]float64, 3)
	for e := 0; e < cells.NNZ(); e++ {
		idx := cells.Index(e)
		for k := range rows {
			rows[k] = start.factors[k].Row(idx[k])
		}
		exactFit.MustAppend(idx, predictWithRows(start.core, rows, nil))
	}

	cfg.MaxIters = 1
	st := validState(t, exactFit, cfg)
	m := st.newModel()
	if err := st.sweep(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	exact := reconstructionError(st.x, st.factors, st.core, st.cfg.Threads)
	if got := m.Trace[0].Error; math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("noise-free: iteration error %.17g, exact pass %.17g", got, exact)
	}

	st = validState(t, exactFit, cfg)
	if derived, ok, exact := lastModeError(st); ok {
		t.Fatalf("noise-free fit: derived error %g accepted (exact %g, ‖X‖ %g)", derived, exact, exactFit.Norm())
	}
}

// A row solve allocates nothing: the Cholesky factor lives in the
// per-thread workspace next to B and c (Table III's O(T·J²)), so one
// iteration makes as many allocations on 10x the rows as on the original.
func TestIterationAllocationsIndependentOfRows(t *testing.T) {
	allocs := func(dims []int) float64 {
		rng := rand.New(rand.NewSource(10))
		cfg := smallConfig([]int{3, 3, 3})
		cfg.MaxIters = 1
		st := validState(t, uniformTensor(rng, dims, 4000), cfg)
		m := st.newModel()
		return testing.AllocsPerRun(5, func() {
			if err := st.sweep(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs([]int{40, 30, 20}), allocs([]int{400, 300, 200})
	// A few allocations of slack absorb goroutine bookkeeping; one
	// allocation per row would add hundreds.
	if large > small+8 {
		t.Fatalf("one iteration allocates %v times over 900 rows but %v over 90", large, small)
	}
}

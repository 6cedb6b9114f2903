package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// plantedTensor samples nnz observed entries from a random Tucker model with
// the given dims and ranks plus Gaussian noise, so a factorization with the
// same ranks can in principle fit it almost exactly.
func plantedTensor(rng *rand.Rand, dims, ranks []int, nnz int, noise float64) *tensor.Coord {
	n := len(dims)
	factors := make([]*mat.Dense, n)
	for k := 0; k < n; k++ {
		a := mat.NewDense(dims[k], ranks[k])
		for i := range a.Data() {
			a.Data()[i] = rng.Float64()
		}
		factors[k] = a
	}
	g := NewRandomCore(ranks, rng)
	t := tensor.NewCoord(dims)
	idx := make([]int, n)
	rows := make([][]float64, n)
	seen := make(map[int]bool)
	for t.NNZ() < nnz {
		flat := 0
		stride := 1
		for k, d := range dims {
			idx[k] = rng.Intn(d)
			flat += idx[k] * stride
			stride *= d
		}
		if seen[flat] {
			continue
		}
		seen[flat] = true
		for k := 0; k < n; k++ {
			rows[k] = factors[k].Row(idx[k])
		}
		v := predictWithRows(g, rows, nil) + noise*rng.NormFloat64()
		t.MustAppend(idx, v)
	}
	return t
}

// uniformTensor samples nnz entries with uniform values in [0,1).
func uniformTensor(rng *rand.Rand, dims []int, nnz int) *tensor.Coord {
	t := tensor.NewCoord(dims)
	idx := make([]int, len(dims))
	seen := make(map[int]bool)
	for t.NNZ() < nnz {
		flat := 0
		stride := 1
		for k, d := range dims {
			idx[k] = rng.Intn(d)
			flat += idx[k] * stride
			stride *= d
		}
		if seen[flat] {
			continue
		}
		seen[flat] = true
		t.MustAppend(idx, rng.Float64())
	}
	return t
}

func smallConfig(ranks []int) Config {
	cfg := Defaults(ranks)
	cfg.MaxIters = 5
	cfg.Tol = 0 // run the full iteration budget for deterministic traces
	cfg.Threads = 2
	cfg.Seed = 42
	return cfg
}

func TestConfigValidate(t *testing.T) {
	dims := []int{10, 10, 10}
	cases := []struct {
		name string
		mut  func(*Config)
		want error
	}{
		{"no ranks", func(c *Config) { c.Ranks = nil }, ErrNoRanks},
		{"order mismatch", func(c *Config) { c.Ranks = []int{2, 2} }, ErrOrderMismatch},
		{"zero rank", func(c *Config) { c.Ranks[1] = 0 }, ErrBadRank},
		{"rank over dim", func(c *Config) { c.Ranks[0] = 11 }, ErrRankExceedsDim},
		{"negative lambda", func(c *Config) { c.Lambda = -1 }, ErrBadLambda},
		{"NaN lambda", func(c *Config) { c.Lambda = math.NaN() }, ErrBadLambda},
		{"+Inf lambda", func(c *Config) { c.Lambda = math.Inf(1) }, ErrBadLambda},
		{"zero iters", func(c *Config) { c.MaxIters = 0 }, ErrBadIters},
		{"negative tol", func(c *Config) { c.Tol = -1e-4 }, ErrBadTol},
		{"NaN tol", func(c *Config) { c.Tol = math.NaN() }, ErrBadTol},
		{"+Inf tol", func(c *Config) { c.Tol = math.Inf(1) }, ErrBadTol},
		{"bad truncation", func(c *Config) { c.Method = PTuckerApprox; c.TruncationRate = 0 }, ErrBadTruncation},
		{"truncation one", func(c *Config) { c.Method = PTuckerApprox; c.TruncationRate = 1 }, ErrBadTruncation},
		{"NaN truncation", func(c *Config) { c.Method = PTuckerApprox; c.TruncationRate = math.NaN() }, ErrBadTruncation},
		{"-Inf truncation", func(c *Config) { c.TruncationRate = math.Inf(-1) }, ErrBadTruncation},
		{"negative sparsify", func(c *Config) { c.Sparsify = -0.1 }, ErrBadSparsify},
		{"NaN sparsify", func(c *Config) { c.Sparsify = math.NaN() }, ErrBadSparsify},
		{"+Inf sparsify", func(c *Config) { c.Sparsify = math.Inf(1) }, ErrBadSparsify},
		{"negative method", func(c *Config) { c.Method = -1 }, ErrBadMethod},
		{"method 3", func(c *Config) { c.Method = 3 }, ErrBadMethod},
		{"negative scheduling", func(c *Config) { c.Scheduling = -1 }, ErrBadScheduling},
		{"scheduling 2", func(c *Config) { c.Scheduling = 2 }, ErrBadScheduling},
	}
	for _, tc := range cases {
		cfg := Defaults([]int{2, 2, 2})
		tc.mut(&cfg)
		_, err := cfg.Validate(dims)
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !errorIs(err, tc.want) {
			t.Fatalf("%s: err = %v want %v", tc.name, err, tc.want)
		}
	}
	// A valid config comes back with Threads normalized.
	cfg := Defaults([]int{2, 2, 2})
	norm, err := cfg.Validate(dims)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Threads < 1 {
		t.Fatalf("defaults not normalized: T=%d", norm.Threads)
	}
}

// Validate must be pure: the caller's Config — including its Ranks slice —
// is never rewritten, whatever zero-valued knobs need normalizing.
func TestConfigValidatePure(t *testing.T) {
	cfg := Config{
		Ranks:    []int{3, 2, 4},
		Lambda:   0.5,
		MaxIters: 7,
		// Threads deliberately zero: the old API normalized it in place on
		// the caller's struct.
	}
	ranksBefore := append([]int(nil), cfg.Ranks...)

	norm, err := cfg.Validate([]int{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Threads != 0 {
		t.Fatalf("Validate mutated the caller's config: T=%d", cfg.Threads)
	}
	if norm.Threads < 1 {
		t.Fatalf("normalized copy missing defaults: T=%d", norm.Threads)
	}
	// The normalized copy must not alias the caller's Ranks storage.
	norm.Ranks[0] = 99
	for i, r := range cfg.Ranks {
		if r != ranksBefore[i] {
			t.Fatalf("normalized copy aliases caller's Ranks: %v", cfg.Ranks)
		}
	}
	if norm.Lambda != cfg.Lambda || norm.MaxIters != cfg.MaxIters {
		t.Fatalf("normalization changed explicit fields: %+v vs %+v", norm, cfg)
	}
}

func errorIs(err, target error) bool {
	for e := err; e != nil; {
		if e == target {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func TestMethodStrings(t *testing.T) {
	if PTucker.String() != "P-Tucker" || PTuckerCache.String() != "P-Tucker-Cache" ||
		PTuckerApprox.String() != "P-Tucker-Approx" {
		t.Fatal("method names changed")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method must still render")
	}
	if ScheduleDynamic.String() != "dynamic" || ScheduleStatic.String() != "static" {
		t.Fatal("scheduling names changed")
	}
}

func TestDecomposeEmptyTensor(t *testing.T) {
	x := tensor.NewCoord([]int{4, 4})
	if _, err := DecomposeContext(context.Background(), x, Defaults([]int{2, 2})); err != ErrEmptyTensor {
		t.Fatalf("err = %v want ErrEmptyTensor", err)
	}
}

func TestDecomposeMonotoneError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 300, 0.01)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.MaxIters = 8
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trace) != 8 {
		t.Fatalf("trace length %d want 8", len(m.Trace))
	}
	// Theorem 2: the loss decreases monotonically. The reconstruction error
	// (without the regularization term) can fluctuate by tiny amounts; allow
	// a small relative slack.
	for i := 1; i < len(m.Trace); i++ {
		prev, cur := m.Trace[i-1].Error, m.Trace[i].Error
		if cur > prev*(1+1e-6)+1e-9 {
			t.Fatalf("error increased at iteration %d: %v -> %v", i+1, prev, cur)
		}
	}
	// Fit must be substantially better than the initial random state.
	if m.Trace[len(m.Trace)-1].Error > 0.5*m.Trace[0].Error {
		t.Fatalf("error barely improved: %v -> %v", m.Trace[0].Error, m.TrainError)
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := plantedTensor(rng, []int{8, 8, 8}, []int{2, 2, 2}, 150, 0.05)
	cfg := smallConfig([]int{2, 2, 2})
	m1, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m1.Factors {
		if !m1.Factors[k].Equal(m2.Factors[k], 0) {
			t.Fatalf("factor %d differs between identical runs", k)
		}
	}
	if m1.TrainError != m2.TrainError {
		t.Fatal("train error differs between identical runs")
	}
}

func TestDecomposeThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := plantedTensor(rng, []int{10, 9, 8}, []int{2, 3, 2}, 200, 0.02)
	base := smallConfig([]int{2, 3, 2})
	base.Threads = 1
	m1, err := DecomposeContext(context.Background(), x, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Threads = 4
	m4, err := DecomposeContext(context.Background(), x, par)
	if err != nil {
		t.Fatal(err)
	}
	// Row updates are independent, and within a row the accumulation order
	// over Ω(n)[in] is fixed, so results are bit-identical across T.
	for k := range m1.Factors {
		if !m1.Factors[k].Equal(m4.Factors[k], 0) {
			t.Fatalf("factor %d differs between T=1 and T=4", k)
		}
	}
}

func TestDecomposeSchedulingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := plantedTensor(rng, []int{10, 10, 10}, []int{2, 2, 2}, 150, 0.02)
	dyn := smallConfig([]int{2, 2, 2})
	dyn.Scheduling = ScheduleDynamic
	sta := smallConfig([]int{2, 2, 2})
	sta.Scheduling = ScheduleStatic
	m1, err := DecomposeContext(context.Background(), x, dyn)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecomposeContext(context.Background(), x, sta)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m1.Factors {
		if !m1.Factors[k].Equal(m2.Factors[k], 0) {
			t.Fatalf("factor %d differs between scheduling policies", k)
		}
	}
}

func TestFactorsOrthonormalAfterFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := plantedTensor(rng, []int{15, 12, 9}, []int{3, 2, 2}, 400, 0.05)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{3, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range m.Factors {
		j := a.Cols()
		if !mat.Gram(a).Equal(mat.Identity(j), 1e-8) {
			t.Fatalf("factor %d columns not orthonormal after QR finalization", k)
		}
	}
}

func TestFinalizePreservesError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := plantedTensor(rng, []int{10, 10, 10}, []int{2, 2, 2}, 250, 0.05)
	cfg := smallConfig([]int{2, 2, 2})
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// TrainError was measured before QR; ReconstructionError measures after.
	after := m.ReconstructionError(x)
	if math.Abs(after-m.TrainError) > 1e-6*(1+m.TrainError) {
		t.Fatalf("QR finalization changed the error: %v -> %v", m.TrainError, after)
	}
}

func TestCacheVariantMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := plantedTensor(rng, []int{9, 8, 7}, []int{2, 2, 2}, 200, 0.03)
	plain := smallConfig([]int{2, 2, 2})
	cache := smallConfig([]int{2, 2, 2})
	cache.Method = PTuckerCache
	m1, err := DecomposeContext(context.Background(), x, plain)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecomposeContext(context.Background(), x, cache)
	if err != nil {
		t.Fatal(err)
	}
	// The cached δ path computes the same quantity by division instead of
	// multiplication; trajectories agree to floating-point noise.
	if math.Abs(m1.TrainError-m2.TrainError) > 1e-6*(1+m1.TrainError) {
		t.Fatalf("cache variant error %v differs from plain %v", m2.TrainError, m1.TrainError)
	}
	for k := range m1.Factors {
		if !m1.Factors[k].Equal(m2.Factors[k], 1e-6) {
			t.Fatalf("factor %d differs between plain and cache variants", k)
		}
	}
	if m2.IntermediateBytes <= m1.IntermediateBytes {
		t.Fatalf("cache variant must report more intermediate memory: %d vs %d",
			m2.IntermediateBytes, m1.IntermediateBytes)
	}
}

func TestApproxShrinksCore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := plantedTensor(rng, []int{10, 10, 10}, []int{3, 3, 3}, 300, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.2
	cfg.MaxIters = 4
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// IterStats.CoreNNZ is captured when Error is measured — before the
	// iteration's own truncation — so iteration 1 sees the full core and
	// iteration i sees the core left by iteration i-1's truncation.
	full := 27
	if got := m.Trace[0].CoreNNZ; got != full {
		t.Fatalf("iteration 1 |G| = %d want full core %d", got, full)
	}
	prev := full + 1
	for i, it := range m.Trace {
		if it.CoreNNZ >= prev && prev > 1 {
			t.Fatalf("iteration %d: core did not shrink (%d -> %d)", i+1, prev, it.CoreNNZ)
		}
		prev = it.CoreNNZ
	}
	// p=0.2 truncations: 27 -> 22 -> 18 -> 15 (-> 12 after the final
	// iteration, which the pre-truncation trace does not show).
	if got := m.Trace[len(m.Trace)-1].CoreNNZ; got != 15 {
		t.Fatalf("final traced |G| = %d want 15", got)
	}
	// The fully truncated size survives on the model itself, and the sparse
	// finalize rotation preserves it: the served core is at most that size
	// (sub-tolerance rotation outputs may drop a little further).
	if m.FinalCoreNNZ != 12 {
		t.Fatalf("FinalCoreNNZ = %d want 12", m.FinalCoreNNZ)
	}
	if got := m.Core.NNZ(); got > m.FinalCoreNNZ {
		t.Fatalf("served core has %d entries after finalize, want at most %d", got, m.FinalCoreNNZ)
	}
}

func TestApproxAccuracyCloseToPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := plantedTensor(rng, []int{14, 12, 10}, []int{3, 3, 3}, 500, 0.02)
	plain := smallConfig([]int{3, 3, 3})
	plain.MaxIters = 6
	approx := plain
	approx.Method = PTuckerApprox
	approx.TruncationRate = 0.1
	m1, err := DecomposeContext(context.Background(), x, plain)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecomposeContext(context.Background(), x, approx)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9(b): "almost the same accuracy". Allow 2x slack at this scale.
	if m2.TrainError > 2*m1.TrainError+1e-9 {
		t.Fatalf("approx error %v too far above plain %v", m2.TrainError, m1.TrainError)
	}
}

// The defining identity of R(β) (Eq. 13): removing entry β changes the
// squared reconstruction error by exactly -R(β).
func TestPartialErrorIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := plantedTensor(rng, []int{8, 8, 8}, []int{2, 2, 2}, 120, 0.1)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.MaxIters = 2
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStateForAnalysis(x, m.Factors, m.Core, 2)
	r := PartialErrors(st)

	fullErr := m.ReconstructionError(x)
	for e := 0; e < m.Core.NNZ(); e += 3 { // sample a third of the entries
		reduced := m.Core.Clone()
		drop := make([]bool, reduced.NNZ())
		drop[e] = true
		reduced.RemoveEntries(drop)
		redModel := &Model{Factors: m.Factors, Core: reduced, Config: cfg}
		redErr := redModel.ReconstructionError(x)
		gotDelta := fullErr*fullErr - redErr*redErr
		if math.Abs(gotDelta-r[e]) > 1e-6*(1+math.Abs(r[e])) {
			t.Fatalf("entry %d: error²(with) - error²(without) = %v, R(β) = %v", e, gotDelta, r[e])
		}
	}
}

func TestPredictMatchesManualExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := plantedTensor(rng, []int{6, 5, 4}, []int{2, 2, 2}, 60, 0.05)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 2, 1}
	var want float64
	for e := 0; e < m.Core.NNZ(); e++ {
		beta := m.Core.Index(e)
		p := m.Core.Value(e)
		for k := 0; k < 3; k++ {
			p *= m.Factors[k].At(idx[k], beta[k])
		}
		want += p
	}
	if got := m.Predict(idx); math.Abs(got-want) > 1e-10 {
		t.Fatalf("Predict = %v want %v", got, want)
	}
}

func TestRMSEMatchesErrorOnTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := plantedTensor(rng, []int{8, 8, 8}, []int{2, 2, 2}, 100, 0.05)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	want := m.ReconstructionError(x) / math.Sqrt(float64(x.NNZ()))
	if got := m.RMSE(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %v want %v", got, want)
	}
	empty := tensor.NewCoord(x.Dims())
	if m.RMSE(empty) != 0 {
		t.Fatal("RMSE of empty set must be 0")
	}
}

func TestUnobservedRowsPredictZero(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Mode 0 index 9 never appears in the observations.
	x := tensor.NewCoord([]int{10, 6, 6})
	idx := make([]int, 3)
	for x.NNZ() < 120 {
		idx[0] = rng.Intn(9) // 0..8 only
		idx[1] = rng.Intn(6)
		idx[2] = rng.Intn(6)
		x.MustAppend(idx, rng.Float64())
	}
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// The row-wise minimizer for an unobserved row is 0; QR keeps zero rows
	// zero (Q = A·R⁻¹), so predictions involving it are 0.
	if got := m.Predict([]int{9, 3, 3}); got != 0 {
		t.Fatalf("prediction for unobserved index = %v want 0", got)
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := plantedTensor(rng, []int{10, 10, 10}, []int{2, 2, 2}, 300, 0.0)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.MaxIters = 50
	cfg.Tol = 1e-3
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Fatal("expected convergence within 50 iterations on noise-free data")
	}
	if len(m.Trace) >= 50 {
		t.Fatalf("expected early stop, ran %d iterations", len(m.Trace))
	}
}

func TestTraceTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	x := plantedTensor(rng, []int{8, 8, 8}, []int{2, 2, 2}, 100, 0.05)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if m.TimePerIteration() <= 0 || m.TotalTime() <= 0 {
		t.Fatal("iteration timings must be positive")
	}
	if m.TotalTime() < m.TimePerIteration() {
		t.Fatal("total time below per-iteration time")
	}
	for i, it := range m.Trace {
		if it.Iter != i+1 {
			t.Fatalf("trace iteration numbering broken at %d", i)
		}
	}
}

func TestCoreTensorRemoveEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := NewRandomCore([]int{2, 2, 2}, rng)
	if g.NNZ() != 8 {
		t.Fatalf("|G| = %d want 8", g.NNZ())
	}
	drop := make([]bool, 8)
	drop[0], drop[7] = true, true
	keep1 := g.Value(1)
	if removed := g.RemoveEntries(drop); removed != 2 {
		t.Fatalf("removed %d want 2", removed)
	}
	if g.NNZ() != 6 {
		t.Fatalf("|G| after removal = %d want 6", g.NNZ())
	}
	if g.Value(0) != keep1 {
		t.Fatal("compaction lost surviving entry values")
	}
}

func TestCoreTensorDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	g := NewRandomCore([]int{2, 3, 2}, rng)
	d := g.ToDense()
	g2 := &CoreTensor{}
	g2.FromDense(d)
	if g2.NNZ() != g.NNZ() {
		t.Fatalf("round trip |G| = %d want %d", g2.NNZ(), g.NNZ())
	}
	for e := 0; e < g.NNZ(); e++ {
		if math.Abs(d.At(g.Index(e))-g.Value(e)) > 1e-15 {
			t.Fatal("dense materialization mismatch")
		}
	}
	// Zeros are cells too: FromDense keeps them, in offset order.
	d.Set([]int{0, 0, 0}, 0)
	g2.FromDense(d)
	if g2.NNZ() != g.NNZ() || g2.Value(0) != 0 || !g2.offsetSorted() {
		t.Fatalf("FromDense kept %d entries (first %v, sorted %v), want all %d in offset order",
			g2.NNZ(), g2.Value(0), g2.offsetSorted(), g.NNZ())
	}
}

func TestCoreTensorRotateAllIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := NewRandomCore([]int{2, 2}, rng)
	orig := g.Clone()
	g.RotateAll([]*mat.Dense{mat.Identity(2), mat.Identity(2)})
	if g.NNZ() != orig.NNZ() {
		t.Fatalf("identity rotation changed |G|: %d -> %d", orig.NNZ(), g.NNZ())
	}
	for e := 0; e < g.NNZ(); e++ {
		if math.Abs(g.Value(e)-orig.Value(e)) > 1e-12 {
			t.Fatal("identity rotation changed core values")
		}
	}
}

func TestCoreTensorMaxAbsEntries(t *testing.T) {
	g := &CoreTensor{dims: []int{2, 2}}
	g.idx = []int{0, 0, 1, 0, 0, 1, 1, 1}
	g.val = []float64{1, -5, 3, 2}
	idx, vals := g.MaxAbsEntries(2)
	if len(idx) != 2 || vals[0] != -5 || vals[1] != 3 {
		t.Fatalf("MaxAbsEntries = %v %v", idx, vals)
	}
	if idx[0][0] != 1 || idx[0][1] != 0 {
		t.Fatalf("top entry index = %v want [1 0]", idx[0])
	}
	// k larger than |G| clips.
	idx, _ = g.MaxAbsEntries(10)
	if len(idx) != 4 {
		t.Fatalf("clipped k = %d want 4", len(idx))
	}
}

func TestRunIndexedCoverage(t *testing.T) {
	for _, sched := range []Scheduling{ScheduleStatic, ScheduleDynamic} {
		for _, threads := range []int{1, 3, 7} {
			n := 100
			visited := make([]int32, n)
			counts := runIndexed(threads, sched, n, func(tid, i int) {
				visited[i]++
			})
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != int64(n) {
				t.Fatalf("%v T=%d: processed %d items want %d", sched, threads, total, n)
			}
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("%v T=%d: item %d visited %d times", sched, threads, i, v)
				}
			}
		}
	}
	// Zero items is a no-op.
	if counts := runIndexed(4, ScheduleDynamic, 0, func(int, int) {}); len(counts) != 0 {
		t.Fatal("zero-item run should return no counts")
	}
}

func TestParallelSum(t *testing.T) {
	got := parallelSum(3, 100, func(tid, i int) float64 { return float64(i) })
	if got != 4950 {
		t.Fatalf("parallelSum = %v want 4950", got)
	}
}

// Property: for random small tensors, the reconstruction error after
// Decompose never exceeds the first-iteration error (ALS monotonicity,
// Theorem 2).
func TestDecomposeMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{4 + rng.Intn(5), 4 + rng.Intn(5), 4 + rng.Intn(5)}
		// Cap nnz at half the cell count so distinct-coordinate sampling
		// always terminates.
		nnz := 50 + rng.Intn(100)
		if cells := dims[0] * dims[1] * dims[2]; nnz > cells/2 {
			nnz = cells / 2
		}
		x := uniformTensor(rng, dims, nnz)
		cfg := Defaults([]int{2, 2, 2})
		cfg.MaxIters = 4
		cfg.Tol = 0
		cfg.Threads = 2
		cfg.Seed = seed
		m, err := DecomposeContext(context.Background(), x, cfg)
		if err != nil {
			return false
		}
		first := m.Trace[0].Error
		last := m.Trace[len(m.Trace)-1].Error
		return last <= first*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are finite for any observed configuration.
func TestPredictionsFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{5, 5, 5}
		x := uniformTensor(rng, dims, 40)
		cfg := Defaults([]int{2, 2, 2})
		cfg.MaxIters = 3
		cfg.Threads = 1
		cfg.Seed = seed
		m, err := DecomposeContext(context.Background(), x, cfg)
		if err != nil {
			return false
		}
		idx := []int{rng.Intn(5), rng.Intn(5), rng.Intn(5)}
		v := m.Predict(idx)
		return !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHighOrderSmoke(t *testing.T) {
	// Order-6 tensor exercises multi-index bookkeeping beyond the usual 3.
	rng := rand.New(rand.NewSource(20))
	dims := []int{4, 4, 4, 4, 4, 4}
	ranks := []int{2, 2, 2, 2, 2, 2}
	x := uniformTensor(rng, dims, 200)
	cfg := Defaults(ranks)
	cfg.MaxIters = 2
	cfg.Threads = 2
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Core.NNZ() != 64 {
		t.Fatalf("|G| = %d want 64", m.Core.NNZ())
	}
	for k, a := range m.Factors {
		if !a.IsFinite() {
			t.Fatalf("factor %d contains non-finite values", k)
		}
	}
}

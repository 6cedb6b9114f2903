package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// Tests for the sparsity-preserving pipeline: the offset-ordered entry list,
// the sparse QR rotation, and VeST-style post-fit pruning (Config.Sparsify).

// TestApproxFinalizeKeepsSparseCore is the tentpole acceptance check: a
// P-Tucker-Approx model keeps its truncated |G| through the QR finalization
// instead of being re-densified by the rotation.
func TestApproxFinalizeKeepsSparseCore(t *testing.T) {
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
	full := 27
	if m.FinalCoreNNZ >= full {
		t.Fatalf("FinalCoreNNZ = %d: truncation never ran", m.FinalCoreNNZ)
	}
	if got := m.Core.NNZ(); got > m.FinalCoreNNZ {
		t.Fatalf("served core has %d entries, finalize re-densified past the truncated %d", got, m.FinalCoreNNZ)
	}
	if !m.Core.offsetSorted() {
		t.Fatal("fitted core is not in offset order")
	}
	// The sparse rotation must still be the correct rotation: factors end
	// orthonormal and the model still explains the planted data reasonably.
	for k, a := range m.Factors {
		if !mat.Gram(a).Equal(mat.Identity(a.Cols()), 1e-8) {
			t.Fatalf("factor %d not orthonormal after sparse finalize", k)
		}
	}
	if f := m.Fit(x); f < 0.5 {
		t.Fatalf("fit %v collapsed after sparse finalize", f)
	}
}

// TestSparsePredictMatchesDensifiedClone pins the bit-identity contract of
// the flat kernels: a sparse core and a densified clone of it (zeros
// materialized) answer Predict and TopK with the exact same float64 bits — a
// zero entry's contribution is an FP identity, and both entry lists are in
// offset order, so the live terms are summed in the same order.
func TestSparsePredictMatchesDensifiedClone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dims := []int{12, 9, 7}
	x := plantedTensor(rng, dims, []int{3, 3, 3}, 500, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.25
	cfg.MaxIters = 4
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Core.NNZ() >= 27 {
		t.Fatal("fixture core is not sparse; the comparison would be vacuous")
	}

	dense := &Model{Factors: m.Factors, Core: m.Core.Clone(), Config: m.Config}
	dense.Core.FromDense(m.Core.ToDense())
	if dense.Core.NNZ() != 27 {
		t.Fatalf("densified clone has %d entries want the full 27", dense.Core.NNZ())
	}

	for trial := 0; trial < 200; trial++ {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		a, b := m.Predict(idx), dense.Predict(idx)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Predict at %v: sparse %x vs densified %x", idx, math.Float64bits(a), math.Float64bits(b))
		}
	}

	rs, rd := NewPredictor(m).Recommender(), NewPredictor(dense).Recommender()
	for mode := 0; mode < len(dims); mode++ {
		query := []int{2, 3, 1}
		top1, err := rs.TopK(query, mode, 5)
		if err != nil {
			t.Fatal(err)
		}
		top2, err := rd.TopK(query, mode, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(top1) != len(top2) {
			t.Fatalf("mode %d: %d vs %d recommendations", mode, len(top1), len(top2))
		}
		for i := range top1 {
			if top1[i].Index != top2[i].Index ||
				math.Float64bits(top1[i].Score) != math.Float64bits(top2[i].Score) {
				t.Fatalf("mode %d rec %d: sparse %+v vs densified %+v", mode, i, top1[i], top2[i])
			}
		}
	}
}

// TestSparsifyBudgetRespected checks the pruning contract: with Sparsify set,
// the served model's reconstruction error stays within (1+budget)× the
// unpruned fit's error, and entries were actually removed. The unsparsified
// twin run IS the pre-prune model (pruning is the last step of an otherwise
// deterministic pipeline), so the budget can be checked externally.
func TestSparsifyBudgetRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 700, 0.1)
	base := smallConfig([]int{3, 3, 3})
	m0, err := DecomposeContext(context.Background(), x, base)
	if err != nil {
		t.Fatal(err)
	}
	pruned := base
	pruned.Sparsify = 0.5
	m1, err := DecomposeContext(context.Background(), x, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Core.NNZ() >= m0.Core.NNZ() {
		t.Fatalf("sparsify removed nothing: %d vs %d entries", m1.Core.NNZ(), m0.Core.NNZ())
	}
	budget := m0.ReconstructionError(x) * (1 + pruned.Sparsify)
	if got := m1.ReconstructionError(x); got > budget*(1+1e-12) {
		t.Fatalf("pruned error %v exceeds budget %v", got, budget)
	}
	if !m1.Core.offsetSorted() {
		t.Fatal("pruned core lost its offset order")
	}
	// TrainError must describe the pruned model actually returned.
	if got, want := m1.TrainError, m1.ReconstructionError(x); math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("TrainError %v does not match the served model's error %v", got, want)
	}
}

// TestSparsifyHoldoutGatesBudget checks the generalization-gated variant: the
// budget is measured on Config.SparsifyHoldout, not the training set.
func TestSparsifyHoldoutGatesBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 900, 0.1)
	train, holdout := x.Split(0.8, rand.New(rand.NewSource(5)))
	base := smallConfig([]int{3, 3, 3})
	m0, err := DecomposeContext(context.Background(), train, base)
	if err != nil {
		t.Fatal(err)
	}
	pruned := base
	pruned.Sparsify = 0.5
	pruned.SparsifyHoldout = holdout
	m1, err := DecomposeContext(context.Background(), train, pruned)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Core.NNZ() >= m0.Core.NNZ() {
		t.Fatalf("sparsify removed nothing: %d vs %d entries", m1.Core.NNZ(), m0.Core.NNZ())
	}
	budget := m0.ReconstructionError(holdout) * (1 + pruned.Sparsify)
	if got := m1.ReconstructionError(holdout); got > budget*(1+1e-12) {
		t.Fatalf("pruned holdout error %v exceeds budget %v", got, budget)
	}
	// The holdout is fit-time input, never model data.
	if m1.Config.SparsifyHoldout != nil {
		t.Fatal("SparsifyHoldout leaked into the returned model's config")
	}
}

// TestSparsifyEqualSeedsBitIdentical extends the determinism pin to
// sparsified runs: equal seeds (and any thread count) give bit-identical
// pruned models.
func TestSparsifyEqualSeedsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 600, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.2
	cfg.Sparsify = 0.3
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
		t.Fatal("equal seeds produced different sparsified models")
	}
	cfg.Threads = 1
	m3, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsBitIdentical(m1, m3) {
		t.Fatal("thread count changed the sparsified model")
	}
}

// TestSparseModelSaveLoadRoundTrip pins the persistence contract for sparse
// cores: save → load → predict is bit-identical, the offset order survives,
// and re-encoding the loaded model reproduces the bytes exactly
// (decode∘encode is a fixed point).
func TestSparseModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dims := []int{12, 9, 7}
	x := plantedTensor(rng, dims, []int{3, 3, 3}, 500, 0.05)
	cfg := smallConfig([]int{3, 3, 3})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.2
	cfg.Sparsify = 0.4
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Core.offsetSorted() || m.Core.NNZ() >= 27 {
		t.Fatalf("fixture not sparse and offset-sorted (nnz %d)", m.Core.NNZ())
	}

	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Core.offsetSorted() {
		t.Fatal("offset order lost across the round trip")
	}
	if back.Core.NNZ() != m.Core.NNZ() {
		t.Fatalf("core nnz changed: %d vs %d", back.Core.NNZ(), m.Core.NNZ())
	}
	if back.Config.Sparsify != cfg.Sparsify {
		t.Fatalf("Config.Sparsify %v not persisted (got %v)", cfg.Sparsify, back.Config.Sparsify)
	}
	for trial := 0; trial < 100; trial++ {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		a, b := m.Predict(idx), back.Predict(idx)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("prediction at %v changed across round trip", idx)
		}
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("re-encoding the loaded model produced different bytes")
	}
}

// TestReadModelAcceptsVersion2Fixture loads a v2-format file generated by the
// previous build (checked into testdata before the v3 bump): old models must
// keep loading, with the v3 fields defaulted.
func TestReadModelAcceptsVersion2Fixture(t *testing.T) {
	m, err := LoadModel("testdata/model_v2.ptkm")
	if err != nil {
		t.Fatalf("v2 fixture rejected: %v", err)
	}
	if m.Config.Sparsify != 0 {
		t.Fatalf("v2 Sparsify = %v want default 0", m.Config.Sparsify)
	}
	if !m.Core.offsetSorted() {
		t.Fatal("v2 core (a dense fit) is not in offset order")
	}
	if m.Order() != 3 {
		t.Fatalf("fixture order = %d want 3", m.Order())
	}
	for k, want := range []int{6, 5, 4} {
		if got := m.Factors[k].Rows(); got != want {
			t.Fatalf("fixture factor %d has %d rows want %d", k, got, want)
		}
	}
	if v := m.Predict([]int{5, 4, 3}); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("fixture prediction = %v", v)
	}
	// Upgrading: re-saving writes the current version and must preserve
	// predictions exactly.
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		idx := []int{i % 6, i % 5, i % 4}
		if math.Float64bits(m.Predict(idx)) != math.Float64bits(back.Predict(idx)) {
			t.Fatalf("prediction at %v changed across the v2 upgrade", idx)
		}
	}
}

// TestReadModelRejectsLyingFinalizedFlag covers the readers' order check: a
// stream whose flags byte claims offset order but whose entries break it must
// be rejected by both readers, not trusted. WriteTo never writes such a
// stream, so the test forges the bit.
func TestReadModelRejectsLyingFinalizedFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := plantedTensor(rng, []int{8, 7, 6}, []int{2, 2, 2}, 300, 0.05)
	cfg := smallConfig([]int{2, 2, 2})
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap two core entries so the order the forged bit claims is a lie; both
	// CRCs are computed over the stream as written, so only the order check
	// can catch it.
	if m.Core.NNZ() < 2 {
		t.Fatal("fixture core too small")
	}
	swapFirstTwoEntries(m.Core)
	data := writeModelV4Lying(t, m, "flags", 0)
	if _, err := ReadModel(bytes.NewReader(data)); !errorIs(err, ErrBadModelFormat) {
		t.Fatalf("heap reader: err = %v want ErrBadModelFormat", err)
	}
	if _, err := ModelFromMapping(data); !errorIs(err, ErrBadModelFormat) {
		t.Fatalf("mapped reader: err = %v want ErrBadModelFormat", err)
	}
}

// TestMaxAbsEntriesHeapMatchesOrder pins the bounded-heap rewrite of
// MaxAbsEntries against the documented order: |value| descending, ties by
// entry position ascending, exactly min(k, nnz) results.
func TestMaxAbsEntriesHeapMatchesOrder(t *testing.T) {
	g := &CoreTensor{
		dims: []int{2, 2, 3},
		idx: []int{
			0, 0, 0,
			1, 0, 0,
			0, 1, 1,
			1, 1, 1,
			0, 0, 2,
			1, 1, 2,
		},
		val: []float64{-3, 1, 3, -0.5, 2, 1},
	}
	idxs, vals := g.MaxAbsEntries(4)
	wantVals := []float64{-3, 3, 2, 1}
	wantFirst := [][]int{{0, 0, 0}, {0, 1, 1}, {0, 0, 2}, {1, 0, 0}}
	if len(idxs) != 4 || len(vals) != 4 {
		t.Fatalf("got %d/%d results want 4", len(idxs), len(vals))
	}
	for i := range wantVals {
		if vals[i] != wantVals[i] {
			t.Fatalf("rank %d value %v want %v", i, vals[i], wantVals[i])
		}
		for k := range wantFirst[i] {
			if idxs[i][k] != wantFirst[i][k] {
				t.Fatalf("rank %d index %v want %v", i, idxs[i], wantFirst[i])
			}
		}
	}
	// k past nnz clamps; k ≤ 0 is empty.
	if idxs, _ := g.MaxAbsEntries(100); len(idxs) != g.NNZ() {
		t.Fatalf("k>nnz returned %d entries want %d", len(idxs), g.NNZ())
	}
	if idxs, vals := g.MaxAbsEntries(0); idxs != nil || vals != nil {
		t.Fatal("k=0 should return nil, nil")
	}
}

// TestRotateAllSparseMatchesDense checks the sparse rotation against the
// dense reference on a core with no truncation: with keep covering every
// entry and a zero tolerance floor, both paths must produce the same rotated
// tensor (the sparse path is exact, not approximate, when nothing is
// dropped).
func TestRotateAllSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g1 := NewRandomCore([]int{3, 2, 2}, rng)
	g2 := g1.Clone()
	rs := make([]*mat.Dense, len(g1.Dims()))
	for k, j := range g1.Dims() {
		r := mat.NewDense(j, j)
		for i := range r.Data() {
			r.Data()[i] = rng.NormFloat64()
		}
		rs[k] = r
	}
	g1.RotateAll(rs)
	g2.RotateAllSparse(rs, 0, 0)

	d1, d2 := g1.ToDense(), g2.ToDense()
	for i, v := range d1.Data() {
		if math.Abs(v-d2.Data()[i]) > 1e-12 {
			t.Fatalf("cell %d: dense rotation %v vs sparse rotation %v", i, v, d2.Data()[i])
		}
	}
	// keep bounds |G| by largest magnitude.
	g3 := g1.Clone()
	g3.RotateAllSparse(rs, 5, 0)
	if g3.NNZ() > 5 {
		t.Fatalf("keep=5 left %d entries", g3.NNZ())
	}
}

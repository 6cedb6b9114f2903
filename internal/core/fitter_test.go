package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// TestFitterFitMatchesDecompose: Fitter.Fit is the same phases as the
// one-shot API — equal seed, bit-identical model, for every variant.
func TestFitterFitMatchesDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := plantedTensor(rng, []int{14, 12, 9}, []int{3, 3, 2}, 700, 0.05)
	for _, method := range []Method{PTucker, PTuckerCache, PTuckerApprox} {
		cfg := smallConfig([]int{3, 3, 2})
		cfg.Method = method
		if method == PTuckerApprox {
			cfg.TruncationRate = 0.2
		}
		want, err := DecomposeContext(context.Background(), x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewFitter(cfg).Fit(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if !modelsBitIdentical(want, got) {
			t.Fatalf("%v: Fitter.Fit differs from DecomposeContext", method)
		}
	}
}

// foldInObs builds observations for the next new row of mode 0, rating
// existing coordinates of the other modes.
func foldInObs(x *tensor.Coord, rng *rand.Rand, count int) []Observation {
	newRow := x.Dim(0)
	obs := make([]Observation, count)
	for i := range obs {
		obs[i] = Observation{
			Index: []int{newRow, rng.Intn(x.Dim(1)), rng.Intn(x.Dim(2))},
			Value: rng.Float64(),
		}
	}
	return obs
}

// TestFoldInMatchesColdFitRowUpdate is the acceptance cross-check: the
// folded-in row must be bit-identical to what the canonical cold-fit row
// update (Algorithm 3, updateRow) produces for that row when all other
// factors are held fixed — fold-in is that one solve, nothing more.
func TestFoldInMatchesColdFitRowUpdate(t *testing.T) {
	for _, method := range []Method{PTucker, PTuckerCache} {
		rng := rand.New(rand.NewSource(21))
		x := plantedTensor(rng, []int{15, 12, 8}, []int{3, 3, 2}, 700, 0.05)
		cfg := smallConfig([]int{3, 3, 2})
		cfg.Method = method
		f := NewFitter(cfg)
		if _, err := f.Fit(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		before := f.Snapshot()

		obs := foldInObs(x, rng, 6)
		newRow, err := f.FoldIn(0, obs)
		if err != nil {
			t.Fatal(err)
		}
		if newRow != x.Dim(0) {
			t.Fatalf("new row = %d, want %d", newRow, x.Dim(0))
		}
		got := f.Snapshot().Factors[0].Row(newRow)

		// Reference: grow the tensor and the pre-fold factors by hand, then
		// run the shared cold-fit row update on the new row.
		x2 := x.Clone()
		x2.GrowMode(0, newRow+1)
		for _, o := range obs {
			x2.MustAppend(o.Index, o.Value)
		}
		vcfg, err := cfg.Validate(x2.Dims())
		if err != nil {
			t.Fatal(err)
		}
		factors := make([]*mat.Dense, len(before.Factors))
		for k, a := range before.Factors {
			factors[k] = a.Clone()
		}
		grown := mat.NewDense(newRow+1, factors[0].Cols())
		copy(grown.Data(), factors[0].Data())
		factors[0] = grown
		st := &state{
			x:       x2,
			omega:   tensor.NewModeIndex(x2),
			factors: factors,
			core:    before.Core.Clone(),
			cfg:     vcfg,
		}
		st.updateRow(0, newRow, newWorkspace(x2.Order(), vcfg.Ranks[0]))
		want := grown.Row(newRow)

		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%v: fold-in row differs from cold-fit row update at %d: %v vs %v", method, j, got[j], want[j])
			}
		}
	}
}

// cloneModel deep-copies m's factors and core, the reference a published
// snapshot is checked against.
func cloneModel(m *Model) *Model {
	c := *m
	c.Factors = make([]*mat.Dense, len(m.Factors))
	for k, a := range m.Factors {
		c.Factors[k] = a.Clone()
	}
	c.Core = m.Core.Clone()
	return &c
}

// TestFoldInCopyOnWrite: a published snapshot never changes. Snapshots taken
// before a fold-in, between two fold-ins and just before a refit keep every
// factor bit and every core entry (dims, indices, values) through a second
// fold-in, the refit and a fold-in after it, while the fitter's own state
// grows. P-Tucker-Approx adds the refit's in-place truncation of the core.
func TestFoldInCopyOnWrite(t *testing.T) {
	for _, method := range []Method{PTucker, PTuckerApprox} {
		rng := rand.New(rand.NewSource(31))
		x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 2}, 500, 0.05)
		cfg := smallConfig([]int{3, 3, 2})
		cfg.Method = method
		cfg.TruncationRate = 0.1
		f := NewFitter(cfg)
		if _, err := f.Fit(context.Background(), x); err != nil {
			t.Fatal(err)
		}

		type published struct {
			name       string
			snap, want *Model
		}
		var pubs []published
		publish := func(name string) *Model {
			s := f.Snapshot()
			pubs = append(pubs, published{name, s, cloneModel(s)})
			return s
		}
		unchanged := func(after string) {
			t.Helper()
			for _, p := range pubs {
				if !modelsBitIdentical(p.snap, p.want) {
					t.Fatalf("%v: snapshot taken %s changed after %s", method, p.name, after)
				}
			}
		}
		foldIn := func() {
			t.Helper()
			obs := make([]Observation, 5)
			for i := range obs {
				obs[i] = Observation{Index: []int{f.Dims()[0], rng.Intn(10), rng.Intn(8)}, Value: rng.Float64()}
			}
			if _, err := f.FoldIn(0, obs); err != nil {
				t.Fatal(err)
			}
		}

		before := publish("before a fold-in")
		foldIn()
		after := publish("between two fold-ins")
		foldIn()
		unchanged("the second fold-in")
		publish("just before a refit")
		delta := []Observation{{Index: []int{0, 1, 2}, Value: 0.25}, {Index: []int{13, 4, 5}, Value: 0.75}}
		if _, err := f.Refit(context.Background(), delta); err != nil {
			t.Fatal(err)
		}
		unchanged("the refit")
		foldIn()
		unchanged("a fold-in after the refit")

		if before.Factors[0].Rows() != 12 || after.Factors[0].Rows() != 13 {
			t.Fatalf("%v: snapshots have %d and %d rows, want 12 and 13", method, before.Factors[0].Rows(), after.Factors[0].Rows())
		}
		if got := f.Dims(); got[0] != 15 {
			t.Fatalf("%v: fitter dims = %v, want mode 0 grown to 15", method, got)
		}
		// The grown model predicts for the new row without panicking.
		if _, err := NewPredictor(after).PredictChecked([]int{12, 0, 0}); err != nil {
			t.Fatalf("%v: prediction on folded row: %v", method, err)
		}
	}
}

// TestSnapshotStableUnderConcurrentFitting runs Predict and TopK on a
// published snapshot from four goroutines while the fitter folds in 200
// rows and refits twice. Every answer must equal, bit for bit, the same
// call on a deep copy taken at publish time. The snapshot is published
// after a few fold-ins, so its factor 0 shares an array that has spare
// capacity with the fitter, and the later fold-ins write just past its end;
// under -race a write inside the view is reported.
func TestSnapshotStableUnderConcurrentFitting(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := plantedTensor(rng, []int{20, 12, 8}, []int{3, 3, 2}, 600, 0.05)
	cfg := smallConfig([]int{3, 3, 2})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.1
	cfg.MaxIters = 2
	f := NewFitter(cfg)
	if _, err := f.Fit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	foldIn := func() {
		obs := make([]Observation, 4)
		for i := range obs {
			obs[i] = Observation{Index: []int{f.Dims()[0], rng.Intn(12), rng.Intn(8)}, Value: rng.Float64()}
		}
		if _, err := f.FoldIn(0, obs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		foldIn()
	}

	snap := f.Snapshot()
	if a := f.st.factors[0].Data(); cap(a) == len(a) {
		t.Fatal("factor 0 has no spare capacity: later fold-ins would not write next to the view")
	}
	copied := cloneModel(snap)
	live, ref := NewPredictorShared(snap), NewPredictor(copied)
	cells := make([][]int, 64)
	want := make([]float64, len(cells))
	for i := range cells {
		cells[i] = []int{rng.Intn(23), rng.Intn(12), rng.Intn(8)}
		want[i] = ref.Predict(cells[i])
	}
	wantTop := make([][]Rec, 3)
	for mode := range wantTop {
		recs, err := ref.Recommender().TopK(cells[mode], mode, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantTop[mode] = recs
	}

	stop := make(chan struct{})
	errs := make(chan string, 4) // one per reader, which sends once and stops
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := live.Recommender()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, c := range cells {
					if got := live.Predict(c); math.Float64bits(got) != math.Float64bits(want[i]) {
						errs <- fmt.Sprintf("Predict(%v) = %v, want %v", c, got, want[i])
						return
					}
				}
				for mode, w := range wantTop {
					recs, err := rec.TopK(cells[mode], mode, 5)
					if err != nil || !slices.Equal(recs, w) {
						errs <- fmt.Sprintf("TopK mode %d = %v (%v), want %v", mode, recs, err, w)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		foldIn()
		if i == 99 || i == 199 {
			if _, err := f.Refit(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	halt()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if !modelsBitIdentical(snap, copied) || snap.Factors[0].Rows() != 23 {
		t.Fatal("the published snapshot changed")
	}
}

// TestFailedRefitKeepsFitterConsistent: a P-Tucker-Approx refit that fails
// after its first iteration has already truncated the core. The fitter must
// then fold in against exactly the model its next snapshot serves: the
// folded row equals, bit for bit, the same fold-in on a fitter resumed from
// that snapshot.
func TestFailedRefitKeepsFitterConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := plantedTensor(rng, []int{14, 12, 8}, []int{3, 3, 2}, 700, 0.05)
	cfg := smallConfig([]int{3, 3, 2})
	cfg.Method = PTuckerApprox
	cfg.TruncationRate = 0.2
	fail := errors.New("refit stopped")
	failing := false
	cfg.OnIteration = func(IterStats) error {
		if failing {
			return fail
		}
		return nil
	}
	f := NewFitter(cfg)
	if _, err := f.Fit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	coreBefore := f.Snapshot().Core.NNZ()

	failing = true
	if _, err := f.Refit(context.Background(), nil); !errors.Is(err, fail) {
		t.Fatalf("Refit: err = %v, want the OnIteration error", err)
	}
	failing = false
	if n := f.st.core.NNZ(); n >= coreBefore {
		t.Fatalf("the failed refit left the fitter's |G| at %d (was %d): truncation did not run", n, coreBefore)
	}
	snap := f.Snapshot()

	obs := foldInObs(x, rng, 6)
	resumed, err := ResumeFitter(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Fitter{f, resumed} {
		if _, err := g.FoldIn(0, obs); err != nil {
			t.Fatal(err)
		}
	}
	got, want := f.Snapshot().Factors[0].Row(14), resumed.Snapshot().Factors[0].Row(14)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("row folded after a failed refit differs from the resumed snapshot's at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

// TestFoldInValidation: malformed fold-ins are rejected before any state
// changes, and operations on an unfitted Fitter say so.
func TestFoldInValidation(t *testing.T) {
	f := NewFitter(smallConfig([]int{3, 3, 2}))
	if _, err := f.FoldIn(0, []Observation{{Index: []int{0, 0, 0}, Value: 1}}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("FoldIn before Fit: err = %v, want ErrNotFitted", err)
	}
	if err := f.Observe([]Observation{{Index: []int{0, 0, 0}, Value: 1}}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Observe before Fit: err = %v, want ErrNotFitted", err)
	}
	if _, err := f.Refit(context.Background(), nil); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Refit before Fit: err = %v, want ErrNotFitted", err)
	}

	rng := rand.New(rand.NewSource(41))
	x := plantedTensor(rng, []int{10, 8, 6}, []int{2, 2, 2}, 300, 0.05)
	if _, err := f.Fit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mode int
		obs  []Observation
	}{
		{"bad mode", 3, []Observation{{Index: []int{10, 0, 0}}}},
		{"no observations", 0, nil},
		{"not next row", 0, []Observation{{Index: []int{12, 0, 0}}}},
		{"existing row", 0, []Observation{{Index: []int{3, 0, 0}}}},
		{"other coord out of range", 0, []Observation{{Index: []int{10, 8, 0}}}},
		{"wrong order", 0, []Observation{{Index: []int{10, 0}}}},
	}
	for _, tc := range cases {
		if _, err := f.FoldIn(tc.mode, tc.obs); !errors.Is(err, ErrBadObservation) {
			t.Fatalf("%s: err = %v, want ErrBadObservation", tc.name, err)
		}
		if d := f.Dims(); d[0] != 10 || f.NNZ() != 300 {
			t.Fatalf("%s: failed fold-in mutated state: dims %v nnz %d", tc.name, d, f.NNZ())
		}
	}
	if err := f.Observe([]Observation{{Index: []int{0, 0, 0}}, {Index: []int{0, 99, 0}}}); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("Observe out of range: err = %v", err)
	}
	if f.NNZ() != 300 {
		t.Fatalf("failed Observe appended anyway: nnz %d", f.NNZ())
	}
}

// TestNonFiniteObservationsRejected: a NaN or ±Inf value is refused by
// Observe, Refit and FoldIn with ErrBadObservation naming the observation,
// before the fitter changes at all. Accepted, one such value turns every
// factor row its solve touches non-finite while the fit still reports
// success. The bad value sits behind a valid one, so a call that appended
// as it validated would show up as a grown training set.
func TestNonFiniteObservationsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := plantedTensor(rng, []int{12, 10, 8}, []int{3, 3, 3}, 500, 0.05)
	f := NewFitter(smallConfig([]int{3, 3, 3}))
	if _, err := f.Fit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	before := f.Snapshot()
	batch := func(row int, v float64) []Observation {
		return []Observation{{Index: []int{row, 2, 3}, Value: 0.5}, {Index: []int{row, 5, 6}, Value: v}}
	}
	ops := []struct {
		name string
		call func(v float64) error
	}{
		{"Observe", func(v float64) error { return f.Observe(batch(1, v)) }},
		{"Refit", func(v float64) error {
			_, err := f.Refit(context.Background(), batch(1, v))
			return err
		}},
		{"FoldIn", func(v float64) error {
			_, err := f.FoldIn(0, batch(12, v))
			return err
		}},
	}
	for _, op := range ops {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			err := op.call(v)
			if !errors.Is(err, ErrBadObservation) || !errors.Is(err, tensor.ErrNonFinite) ||
				!strings.Contains(err.Error(), "observation 1") {
				t.Fatalf("%s(%v): err = %v, want ErrBadObservation naming observation 1", op.name, v, err)
			}
			if d := f.Dims(); d[0] != 12 || f.NNZ() != x.NNZ() || !modelsBitIdentical(f.Snapshot(), before) {
				t.Fatalf("%s(%v): rejected call changed the fitter (dims %v, nnz %d)", op.name, v, d, f.NNZ())
			}
		}
	}
}

// TestZeroLambdaSparseRowsStayFinite closes the λ=0 audit: with no ridge
// term, a row with one to three observations gives Eq. 9 a singular system
// at rank 3, which the Cholesky-then-LU solve must either solve or skip —
// never turn into non-finite factor or core entries.
func TestZeroLambdaSparseRowsStayFinite(t *testing.T) {
	dims := []int{60, 50, 40}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.NewCoord(dims)
		for e := 0; e < 150; e++ {
			x.MustAppend([]int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}, rng.Float64())
		}
		cfg := smallConfig([]int{3, 3, 3})
		cfg.Lambda = 0
		cfg.Seed = seed
		m, err := DecomposeContext(context.Background(), x, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, a := range m.Factors {
			for i, v := range a.Data() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("seed %d: factor %d entry %d = %v", seed, k, i, v)
				}
			}
		}
		for e := 0; e < m.Core.NNZ(); e++ {
			if v := m.Core.Value(e); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("seed %d: core entry %d = %v", seed, e, v)
			}
		}
	}
}

// TestRefitWarmStartConvergesFaster: after fitting 90% of the data, a
// warm-started Refit over the union reaches the cold full-data fit's final
// error in a small fraction of the cold fit's iterations — the point of
// reusing the factors instead of re-randomizing.
func TestRefitWarmStartConvergesFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	full := plantedTensor(rng, []int{20, 16, 10}, []int{3, 3, 2}, 2500, 0.01)
	cfg := Defaults([]int{3, 3, 2})
	cfg.Seed = 5
	cfg.Threads = 2
	cfg.MaxIters = 30
	cfg.Tol = 0 // fixed budget; the comparison is iterations-to-error

	cold, err := DecomposeContext(context.Background(), full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldIters := len(cold.Trace)

	// First 90% of entries as the initial fit, the rest as the delta.
	nTrain := full.NNZ() * 9 / 10
	train := tensor.NewCoord(full.Dims())
	var delta []Observation
	for e := 0; e < full.NNZ(); e++ {
		idx := append([]int(nil), full.Index(e)...)
		if e < nTrain {
			train.MustAppend(idx, full.Value(e))
		} else {
			delta = append(delta, Observation{Index: idx, Value: full.Value(e)})
		}
	}

	f := NewFitter(cfg)
	if _, err := f.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	warm, err := f.Refit(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}

	// Iterations the warm refit needed to match what the cold fit achieved
	// with its whole budget.
	reached := -1
	for _, it := range warm.Trace {
		if it.Error <= cold.TrainError {
			reached = it.Iter
			break
		}
	}
	if reached < 0 {
		t.Fatalf("warm refit never reached the cold fit's error %.6f (best %.6f)",
			cold.TrainError, warm.TrainError)
	}
	if reached*4 > coldIters {
		t.Fatalf("warm refit needed %d iterations to reach the cold fit's %d-iteration error — expected a fraction", reached, coldIters)
	}
	if f.NNZ() != full.NNZ() {
		t.Fatalf("fitter accumulated %d observations, want %d", f.NNZ(), full.NNZ())
	}
}

// TestResumeFitterDeterminism is the online-learning reproducibility
// regression: equal resumed models plus an equal operation sequence yield
// bit-identical snapshots.
func TestResumeFitterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := plantedTensor(rng, []int{14, 12, 8}, []int{3, 3, 2}, 700, 0.05)
	cfg := smallConfig([]int{3, 3, 2})
	base, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}

	obsRng := rand.New(rand.NewSource(62))
	fold := foldInObs(x, obsRng, 5)
	var delta []Observation
	for i := 0; i < 40; i++ {
		delta = append(delta, Observation{
			Index: []int{obsRng.Intn(14), obsRng.Intn(12), obsRng.Intn(8)},
			Value: obsRng.Float64(),
		})
	}

	run := func() *Model {
		f, err := ResumeFitter(base, base.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.FoldIn(0, fold); err != nil {
			t.Fatal(err)
		}
		m, err := f.Refit(context.Background(), delta)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if !modelsBitIdentical(a, b) {
		t.Fatal("equal resumed models + equal operation sequence produced different snapshots")
	}
}

// TestResumeFitterKeepsUntouchedPredictions: a delta-only refit must not
// wreck the parts of the model the delta never touched — rows with no new
// observations keep their values through the sweep (keepEmptyRows), and the
// final QR rotation is prediction-preserving, so cells whose every
// coordinate is untouched predict as before (up to rotation rounding).
func TestResumeFitterKeepsUntouchedPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x := plantedTensor(rng, []int{16, 12, 8}, []int{3, 3, 2}, 800, 0.05)
	cfg := smallConfig([]int{3, 3, 2})
	base, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ResumeFitter(base, base.Config)
	if err != nil {
		t.Fatal(err)
	}

	// Delta touches only user 0, item 0, context 0.
	delta := []Observation{
		{Index: []int{0, 0, 0}, Value: 0.5},
		{Index: []int{0, 0, 0}, Value: 0.6},
	}
	after, err := f.Refit(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}

	// A cell far away from the delta in every mode.
	cell := []int{9, 7, 5}
	want := base.Predict(cell)
	got := after.Predict(cell)
	if math.Abs(want-got) > 1e-8*math.Max(1, math.Abs(want)) {
		t.Fatalf("untouched cell %v changed: %v -> %v", cell, want, got)
	}
}

// TestResumeFitterValidation: shape mismatches are rejected.
func TestResumeFitterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x := plantedTensor(rng, []int{10, 8, 6}, []int{2, 2, 2}, 300, 0.05)
	base, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := base.Config
	cfg.Ranks = []int{3, 2, 2}
	if _, err := ResumeFitter(base, cfg); !errors.Is(err, ErrResumeMismatch) {
		t.Fatalf("rank mismatch: err = %v, want ErrResumeMismatch", err)
	}
	// Nil ranks adopt the model's.
	cfg = base.Config
	cfg.Ranks = nil
	f, err := ResumeFitter(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsBitIdentical(base, f.Snapshot()) {
		t.Fatal("ResumeFitter snapshot differs from the resumed model")
	}
}

// memStore is an in-memory TrainingStore for AttachStore tests.
type memStore struct {
	x   *tensor.Coord
	err error
}

func (m *memStore) TrainingTensor() (*tensor.Coord, error) { return m.x, m.err }

// TestAttachTrainingSet: a fitter resumed from a persisted model and handed
// the persisted training set refits over the true union, bit-identically to
// a fitter that never went away — regardless of whether the sidecar is
// attached before or after the new observations arrive (merge order is
// persisted-first either way).
func TestAttachTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x := plantedTensor(rng, []int{14, 12, 8}, []int{3, 3, 2}, 700, 0.05)
	cfg := smallConfig([]int{3, 3, 2})

	obsRng := rand.New(rand.NewSource(72))
	var delta []Observation
	for i := 0; i < 30; i++ {
		delta = append(delta, Observation{
			Index: []int{obsRng.Intn(14), obsRng.Intn(12), obsRng.Intn(8)},
			Value: obsRng.Float64(),
		})
	}

	// Reference: one process, never interrupted.
	ref := NewFitter(cfg)
	base, err := ref.Fit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Refit(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}

	for _, attachFirst := range []bool{true, false} {
		f, err := ResumeFitter(base, base.Config)
		if err != nil {
			t.Fatal(err)
		}
		if attachFirst {
			if err := f.AttachStore(&memStore{x: x}); err != nil {
				t.Fatal(err)
			}
			if err := f.Observe(delta); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := f.Observe(delta); err != nil {
				t.Fatal(err)
			}
			if err := f.AttachTrainingSet(x); err != nil {
				t.Fatal(err)
			}
		}
		if f.NNZ() != x.NNZ()+len(delta) {
			t.Fatalf("attachFirst=%v: union has %d entries, want %d", attachFirst, f.NNZ(), x.NNZ()+len(delta))
		}
		got, err := f.Refit(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !modelsBitIdentical(want, got) {
			t.Fatalf("attachFirst=%v: resumed true-union refit differs from in-process refit", attachFirst)
		}
	}
}

// TestAttachTrainingSetValidation covers the attach error paths.
func TestAttachTrainingSetValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x := plantedTensor(rng, []int{10, 8, 6}, []int{2, 2, 2}, 300, 0.05)
	cfg := smallConfig([]int{2, 2, 2})
	f := NewFitter(cfg)

	// Before any fit there is nothing to attach to.
	if err := f.AttachTrainingSet(x); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("attach before fit: %v", err)
	}
	if _, err := f.Fit(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	// Wrong order and oversized modes are rejected, leaving the set intact.
	if err := f.AttachTrainingSet(tensor.NewCoord([]int{10, 8})); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("wrong order: %v", err)
	}
	big := tensor.NewCoord([]int{11, 8, 6})
	big.MustAppend([]int{10, 0, 0}, 1)
	if err := f.AttachTrainingSet(big); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("oversized mode: %v", err)
	}
	if f.NNZ() != x.NNZ() {
		t.Fatalf("failed attach changed the training set: %d vs %d", f.NNZ(), x.NNZ())
	}

	// A store load failure propagates; an empty store is a no-op.
	wantErr := errors.New("disk on fire")
	if err := f.AttachStore(&memStore{err: wantErr}); !errors.Is(err, wantErr) {
		t.Fatalf("store error: %v", err)
	}
	if err := f.AttachStore(&memStore{}); err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != x.NNZ() {
		t.Fatalf("empty store attach changed the training set: %d", f.NNZ())
	}

	// A smaller-dimensioned sidecar is grown to the model's shape.
	small := tensor.NewCoord([]int{5, 4, 3})
	small.MustAppend([]int{4, 3, 2}, 0.5)
	if err := f.AttachTrainingSet(small); err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != x.NNZ()+1 {
		t.Fatalf("after attach: %d entries, want %d", f.NNZ(), x.NNZ()+1)
	}
	dims := f.Dims()
	if dims[0] != 10 || dims[1] != 8 || dims[2] != 6 {
		t.Fatalf("dims changed: %v", dims)
	}

	// TrainingSet returns a copy: mutating it must not touch the fitter.
	ts := f.TrainingSet()
	ts.SetValue(0, 999)
	if f.TrainingSet().Value(0) == 999 {
		t.Fatal("TrainingSet aliases the fitter's live tensor")
	}
}

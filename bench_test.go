package ptucker

// One benchmark per table and figure of the paper's evaluation. Each bench
// drives the corresponding experiment in internal/experiments at the reduced
// (CI) scale and reports its key metric; `cmd/ptucker-bench -exp <id>` prints
// the full paper-style series, `-scale full` restores paper-sized parameters,
// and `-list` shows the experiment index.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/synth"
)

// runExperiment executes one experiment per benchmark iteration and reports
// selected result values as benchmark metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	opt := experiments.Options{Scale: synth.ScaleSmall, Seed: 1, Iters: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range metricKeys {
			if v, ok := res.Values[k]; ok {
				b.ReportMetric(v, k)
			}
		}
	}
}

// BenchmarkFig5PartialError regenerates Figure 5: the Pareto skew of partial
// reconstruction errors R(β) over core entries (paper: top 20% of entries ≈
// 80% of the error).
func BenchmarkFig5PartialError(b *testing.B) {
	runExperiment(b, "fig5", "top20_share")
}

// BenchmarkFig6aOrder regenerates Figure 6(a): time per iteration vs tensor
// order for all methods, including Tucker-wOpt's O.O.M. wall.
func BenchmarkFig6aOrder(b *testing.B) {
	runExperiment(b, "fig6a")
}

// BenchmarkFig6bDimensionality regenerates Figure 6(b): time per iteration
// vs mode dimensionality.
func BenchmarkFig6bDimensionality(b *testing.B) {
	runExperiment(b, "fig6b")
}

// BenchmarkFig6cObservedEntries regenerates Figure 6(c): time per iteration
// vs |Ω| (P-Tucker scales near-linearly).
func BenchmarkFig6cObservedEntries(b *testing.B) {
	runExperiment(b, "fig6c")
}

// BenchmarkFig6dRank regenerates Figure 6(d): time per iteration vs core
// rank J.
func BenchmarkFig6dRank(b *testing.B) {
	runExperiment(b, "fig6d")
}

// BenchmarkFig7RealWorld regenerates Figure 7: time per iteration on the
// four simulated real-world tensors of Table IV.
func BenchmarkFig7RealWorld(b *testing.B) {
	runExperiment(b, "fig7")
}

// BenchmarkFig8Cache regenerates Figure 8: P-Tucker vs P-Tucker-Cache time
// and intermediate-memory trade-off across tensor orders.
func BenchmarkFig8Cache(b *testing.B) {
	runExperiment(b, "fig8", "memratio_n8")
}

// BenchmarkFig9Approx regenerates Figure 9: P-Tucker-Approx per-iteration
// speedup and near-equal final error.
func BenchmarkFig9Approx(b *testing.B) {
	runExperiment(b, "fig9", "plain_final_err", "approx_final_err")
}

// BenchmarkFig10Threads regenerates Figure 10: thread scalability, workload
// balance, and the dynamic-vs-static scheduling comparison of Section IV-D.
func BenchmarkFig10Threads(b *testing.B) {
	runExperiment(b, "fig10", "static_over_dynamic")
}

// BenchmarkFig11Accuracy regenerates Figure 11: reconstruction error and
// test RMSE of every method on the simulated real-world tensors.
func BenchmarkFig11Accuracy(b *testing.B) {
	runExperiment(b, "fig11")
}

// BenchmarkTable3Complexity regenerates Table III's empirical checks: time
// linear in |Ω|, intermediate memory O(T·J²) / O(|Ω|·|G|).
func BenchmarkTable3Complexity(b *testing.B) {
	runExperiment(b, "table3", "mean_time_ratio")
}

// BenchmarkTable5Concepts regenerates Table V: concept discovery purity on
// the planted MovieLens genres.
func BenchmarkTable5Concepts(b *testing.B) {
	runExperiment(b, "table5", "purity")
}

// BenchmarkTable6Relations regenerates Table VI: relation discovery overlap
// against the planted (genre, year, hour) preferences.
func BenchmarkTable6Relations(b *testing.B) {
	runExperiment(b, "table6", "mean_overlap")
}

// --- Micro-benchmarks of the public API -------------------------------------

// benchDecompose measures one full Decompose of the MovieLens-sim tensor for
// a given variant.
func benchDecompose(b *testing.B, method Method) {
	b.Helper()
	mcfg := synth.DefaultMovieLensConfig()
	mcfg.NNZ = 8000
	data := synth.MovieLens(mcfg)
	cfg := Defaults([]int{4, 4, 4, 4})
	cfg.Method = method
	cfg.MaxIters = 2
	cfg.Tol = 0
	cfg.Seed = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), data.X, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposePTucker(b *testing.B)       { benchDecompose(b, PTucker) }
func BenchmarkDecomposePTuckerCache(b *testing.B)  { benchDecompose(b, PTuckerCache) }
func BenchmarkDecomposePTuckerApprox(b *testing.B) { benchDecompose(b, PTuckerApprox) }

// BenchmarkPredict measures single-cell reconstruction (Eq. 4).
func BenchmarkPredict(b *testing.B) {
	mcfg := synth.DefaultMovieLensConfig()
	mcfg.NNZ = 4000
	data := synth.MovieLens(mcfg)
	cfg := Defaults([]int{4, 4, 4, 4})
	cfg.MaxIters = 2
	cfg.Seed = 1
	m, err := DecomposeContext(context.Background(), data.X, cfg)
	if err != nil {
		b.Fatal(err)
	}
	idx := []int{3, 5, 7, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(idx)
	}
}

// servingModel fits one model and prepares a batch of random multi-indices
// for the serving-path benchmarks.
func servingModel(b *testing.B, batch int) (*Model, [][]int) {
	b.Helper()
	mcfg := synth.DefaultMovieLensConfig()
	mcfg.NNZ = 4000
	data := synth.MovieLens(mcfg)
	cfg := Defaults([]int{4, 4, 4, 4})
	cfg.MaxIters = 2
	cfg.Seed = 1
	m, err := DecomposeContext(context.Background(), data.X, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dims := data.X.Dims()
	idxs := make([][]int, batch)
	for i := range idxs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		idxs[i] = idx
	}
	return m, idxs
}

func servingFixture(b *testing.B, batch int) (*Predictor, [][]int) {
	b.Helper()
	m, idxs := servingModel(b, batch)
	return NewPredictor(m), idxs
}

// sparseServingFixture is servingFixture after VeST-style pruning: half the
// core entries are removed by position, so the serving benchmarks run the
// flat-scan kernels at |G|/2. The ns/op ratio against the dense fixtures is
// the payoff of sparsification.
func sparseServingFixture(b *testing.B, batch int) (*Predictor, [][]int) {
	b.Helper()
	m, idxs := servingModel(b, batch)
	drop := make([]bool, m.Core.NNZ())
	for i := range drop {
		drop[i] = i%2 == 1
	}
	m.Core.RemoveEntries(drop)
	return NewPredictor(m), idxs
}

// BenchmarkPredictorPredict measures single-cell serving through the
// concurrent Predictor (pooled scratch; zero steady-state allocations).
func BenchmarkPredictorPredict(b *testing.B) {
	p, idxs := servingFixture(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(idxs[0])
	}
}

// BenchmarkPredictSparse is BenchmarkPredictorPredict on the half-pruned
// core: single-cell cost is linear in live |G|, so ns/op should land near
// half the dense figure.
func BenchmarkPredictSparse(b *testing.B) {
	p, idxs := sparseServingFixture(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Predict(idxs[0])
	}
}

// BenchmarkRecommend measures a top-10 query over the items mode through the
// Recommender's flat core contraction.
func BenchmarkRecommend(b *testing.B) {
	p, idxs := servingFixture(b, 1)
	r := p.Recommender()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TopK(idxs[0], 1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendSparse is BenchmarkRecommend on the half-pruned core:
// the contraction visits only live entries, so ranking cost drops with |G|.
func BenchmarkRecommendSparse(b *testing.B) {
	p, idxs := sparseServingFixture(b, 1)
	r := p.Recommender()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.TopK(idxs[0], 1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures batched serving throughput: 4096 cells per
// call, fanned out across the predictor's workers.
func BenchmarkPredictBatch(b *testing.B) {
	p, idxs := servingFixture(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PredictBatch(idxs)
	}
	b.ReportMetric(float64(len(idxs)*b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkPredictBatchSerial is the single-worker baseline for the fan-out
// speedup in BenchmarkPredictBatch.
func BenchmarkPredictBatchSerial(b *testing.B) {
	p, idxs := servingFixture(b, 4096)
	p = p.WithWorkers(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PredictBatch(idxs)
	}
	b.ReportMetric(float64(len(idxs)*b.N)/b.Elapsed().Seconds(), "preds/s")
}

// BenchmarkReconstructionError measures the parallel Eq. (5) pass.
func BenchmarkReconstructionError(b *testing.B) {
	mcfg := synth.DefaultMovieLensConfig()
	mcfg.NNZ = 8000
	data := synth.MovieLens(mcfg)
	cfg := Defaults([]int{4, 4, 4, 4})
	cfg.MaxIters = 2
	cfg.Seed = 1
	m, err := DecomposeContext(context.Background(), data.X, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ReconstructionError(data.X)
	}
}

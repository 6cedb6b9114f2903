package core

// Ablation micro-benchmarks for the reproduction's design choices:
// plain vs cached δ computation, core truncation cost, dynamic vs static
// scheduling, and the parallel error pass.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// benchTensor builds a shared 3-order workload: 10k entries over 1k³ cells.
func benchTensor(b *testing.B) *tensor.Coord {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	return uniformTensor(rng, []int{1000, 1000, 1000}, 10000)
}

func benchConfig(method Method) Config {
	cfg := Defaults([]int{4, 4, 4})
	cfg.Method = method
	cfg.MaxIters = 1
	cfg.Tol = 0
	cfg.Threads = 2
	cfg.Seed = 3
	return cfg
}

// BenchmarkIterationPlain measures one full ALS iteration of plain P-Tucker.
func BenchmarkIterationPlain(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationCache is the cached-δ ablation of the same iteration.
func BenchmarkIterationCache(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTuckerCache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterationApprox is the truncated-core ablation.
func BenchmarkIterationApprox(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTuckerApprox)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulingDynamic and ...Static compare the two row-distribution
// policies of Section III-D on a skewed workload.
func benchScheduling(b *testing.B, s Scheduling) {
	b.Helper()
	rng := rand.New(rand.NewSource(78))
	x := tensor.NewCoord([]int{500, 500, 500})
	idx := make([]int, 3)
	for x.NNZ() < 10000 {
		if x.NNZ()%2 == 0 {
			idx[0] = rng.Intn(3) // hot rows
		} else {
			idx[0] = rng.Intn(500)
		}
		idx[1], idx[2] = rng.Intn(500), rng.Intn(500)
		x.MustAppend(idx, rng.Float64())
	}
	cfg := benchConfig(PTucker)
	cfg.Scheduling = s
	cfg.Threads = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), x, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSchedulingDynamic(b *testing.B) { benchScheduling(b, ScheduleDynamic) }
func BenchmarkSchedulingStatic(b *testing.B)  { benchScheduling(b, ScheduleStatic) }

// BenchmarkPartialErrors measures the R(β) scoring pass of Algorithm 4.
func BenchmarkPartialErrors(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := NewStateForAnalysis(x, m.Factors, m.Core, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PartialErrors(st)
	}
}

// BenchmarkErrorPass measures the parallel Eq. (5) reconstruction pass.
func BenchmarkErrorPass(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ReconstructionError(x)
	}
}

// BenchmarkFoldIn tracks the online fold-in hot path: one row-wise
// least-squares solve (O(nnz_i·J²·|G|)) plus the amortized O(J) row append,
// per new entity admitted to a served model.
func BenchmarkFoldIn(b *testing.B) {
	x := benchTensor(b)
	cfg := benchConfig(PTucker)
	f := NewFitter(cfg)
	if _, err := f.Fit(context.Background(), x); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const obsPerRow = 20
	items := make([]int, obsPerRow*b.N)
	ctxs := make([]int, obsPerRow*b.N)
	for i := range items {
		items[i] = rng.Intn(x.Dim(1))
		ctxs[i] = rng.Intn(x.Dim(2))
	}
	obs := make([]Observation, obsPerRow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newRow := x.Dim(0) + i
		for j := range obs {
			obs[j] = Observation{Index: []int{newRow, items[i*obsPerRow+j], ctxs[i*obsPerRow+j]}, Value: 0.5}
		}
		if _, err := f.FoldIn(0, obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldInPublish times what a server does per cold-start entity:
// one FoldIn of 8 observations into mode 0, then the publish that follows
// it, Snapshot plus NewPredictorShared. The model has serve-mixed's shape
// (ranks 6,6,2,2; the other modes 8000, 16 and 24 rows) at two sizes of
// mode 0. Publishing is O(rank), so ns/op and allocs/op should not grow
// with the row count.
//
// ResumeFitter sizes A(0)'s array exactly, so the first fold-in after it
// (as after a refit) copies the array once to make spare room. One untimed
// fold-in pays that copy; otherwise it would read as O(I·J)/b.N per op.
func BenchmarkFoldInPublish(b *testing.B) {
	for _, rows := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			m := syntheticModel(b, 17, []int{rows, 8000, 16, 24}, []int{6, 6, 2, 2})
			f, err := ResumeFitter(m, m.Config)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(19))
			obs := make([]Observation, 8)
			foldIn := func(row int) {
				for j := range obs {
					obs[j] = Observation{Index: []int{row, rng.Intn(8000), rng.Intn(16), rng.Intn(24)}, Value: rng.Float64()}
				}
				if _, err := f.FoldIn(0, obs); err != nil {
					b.Fatal(err)
				}
			}
			foldIn(rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				foldIn(rows + 1 + i)
				publishSink = NewPredictorShared(f.Snapshot())
			}
		})
	}
}

// publishSink keeps BenchmarkFoldInPublish's predictors observable.
var publishSink *Predictor

// BenchmarkContract runs the contraction kernel for every mode of 1024 fixed
// observed entries: on fit-plain's dense 5³ core (every mode on the
// Kronecker side), and on a 6,6,2,2 core kept to 14 of its 144 entries
// (every mode on the per-entry side).
func BenchmarkContract(b *testing.B) {
	for _, c := range []struct {
		name  string
		ranks []int
		every int
	}{
		{"dense", []int{5, 5, 5}, 1},
		{"pruned", []int{6, 6, 2, 2}, 11},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := kernelCore(12, c.ranks, c.every)
			rng := rand.New(rand.NewSource(13))
			const entries = 1024
			rows := make([][][]float64, entries)
			for i := range rows {
				rows[i] = make([][]float64, len(c.ranks))
				for k, j := range c.ranks {
					rows[i][k] = make([]float64, j)
					for jj := range rows[i][k] {
						rows[i][k][jj] = rng.Float64()
					}
				}
			}
			kron := make([]float64, g.kronMax)
			delta := make([]float64, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range rows {
					for n := range c.ranks {
						g.contract(n, r, kron, delta, nil)
					}
				}
			}
		})
	}
}

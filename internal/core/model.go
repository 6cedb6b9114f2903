package core

import (
	"math"
	"runtime"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// IterStats records one ALS iteration of Algorithm 2 for analysis and for
// regenerating Figures 9(a)/9(b).
type IterStats struct {
	// Iter is the 1-based iteration number.
	Iter int
	// Error is the reconstruction error (Eq. 5) of the model left by the
	// factor updates of this iteration. It is summed from the last mode's
	// row residuals, which agrees with a pass over the observed entries to
	// about 1e-12 relative; only a near-exact fit, whose sum would be mostly
	// rounding, is measured by that pass instead (see derivedError). Either
	// way it is bit-identical at any Config.Threads.
	Error float64
	// Elapsed is the wall-clock duration of the iteration (factor updates,
	// the error — usually a by-product of the last mode's updates — and
	// truncation, i.e. lines 3-6 of Algorithm 2).
	Elapsed time.Duration
	// CoreNNZ is |G| at the moment Error was measured: after this
	// iteration's factor updates and before its truncation. Error and
	// CoreNNZ therefore always describe the same model state; under
	// P-Tucker-Approx, iteration i reports the core left by iteration
	// i-1's truncation, so the series still traces the shrinkage.
	CoreNNZ int
}

// Model is the result of a Tucker factorization: factor matrices A(n)
// (orthonormal columns after finalization), the core tensor G, and the run's
// measurements.
type Model struct {
	// Factors holds A(1)..A(N), each In x Jn.
	Factors []*mat.Dense
	// Core is the Tucker core G.
	Core *CoreTensor
	// Config echoes the configuration that produced the model.
	Config Config
	// Trace holds per-iteration statistics in order.
	Trace []IterStats
	// Converged reports whether the relative-error stopping rule fired
	// before MaxIters.
	Converged bool
	// TrainError is the final reconstruction error (Eq. 5) on the training
	// entries: the last iteration's IterStats.Error, or, after Sparsify
	// pruning, the exact pass over the pruned model. Like Error it is
	// bit-identical at any Config.Threads.
	TrainError float64
	// IntermediateBytes is the analytic intermediate-data requirement of the
	// run in bytes (Definition 7): per-thread workspaces — δ, c, B, the
	// Cholesky factor and the contraction kernel's Kronecker buffer, O(T·(J²
	// + J^{N−1})) on a dense core — plus the kernel's 8·N·|G| bytes of index
	// arrays, plus the cache table O(|Ω|·|G|) for P-Tucker-Cache. It is the
	// quantity Table III and Figures 8(b)/10(b) report.
	IntermediateBytes int64
	// WorkPerThread is the number of factor rows processed by each worker
	// across all N modes of the final iteration (its entries sum to Σ_n I_n),
	// for workload-balance reporting (Figure 10 / Section IV-D).
	WorkPerThread []int64
	// FinalCoreNNZ is |G| when iteration ended — after the last iteration's
	// truncation, before the QR finalization and any Sparsify pruning. For
	// P-Tucker-Approx it is the shrunken core size Figure 9 reports, and the
	// sparse finalize rotation preserves it: Core.NNZ() on a served Approx
	// model is at most FinalCoreNNZ (Sparsify may prune further; Trace
	// entries record only pre-truncation sizes).
	FinalCoreNNZ int
}

// Order returns the tensor order N.
func (m *Model) Order() int { return len(m.Factors) }

// Predict reconstructs the value at multi-index idx by Eq. (4):
// Σ_β Gβ ∏_n A(n)[in][jn]. This is how missing entries are estimated —
// never as zeros.
func (m *Model) Predict(idx []int) float64 {
	n := len(m.Factors)
	rows := make([][]float64, n)
	for k := 0; k < n; k++ {
		rows[k] = m.Factors[k].Row(idx[k])
	}
	// A small core's kernel scratch fits on the stack.
	var small [128]float64
	return predictWithRows(m.Core, rows, small[:])
}

// predictWithRows evaluates Eq. (4) given pre-fetched factor rows for each
// mode: the contraction kernel's δ of the last mode, dotted with that mode's
// row, Σ_j rows[N][j]·δ(N)(j). Its cost is linear in |G| plus one Kronecker
// product of the other rows. It is the one prediction behind Predict,
// PredictBatch, the exact error pass and Sparsify's probes, and it sums in
// the order of mat.Dot(row, δ), so a TopK score over the last mode equals
// Predict bit for bit.
//
// buf is scratch: it is used when it holds g.kronMax + J_N floats, and a new
// buffer is allocated otherwise.
func predictWithRows(g *CoreTensor, rows [][]float64, buf []float64) float64 {
	last := len(rows) - 1
	jn := g.dims[last]
	if len(buf) < g.kronMax+jn {
		buf = make([]float64, g.kronMax+jn)
	}
	delta := buf[g.kronMax : g.kronMax+jn]
	g.contract(last, rows, buf, delta, nil)
	var sum float64
	for j, a := range rows[last][:jn] {
		sum += a * delta[j]
	}
	return sum
}

// ReconstructionError computes Eq. (5) over the observed entries of x, in
// parallel over fixed blocks of entries whose sums are added in block order,
// so the result is the same to the last bit at any thread count. It runs on
// this host's GOMAXPROCS workers, not Config.Threads: the config may come
// from a model file written on another host.
func (m *Model) ReconstructionError(x *tensor.Coord) float64 {
	return reconstructionError(x, m.Factors, m.Core, runtime.GOMAXPROCS(0))
}

func reconstructionError(x *tensor.Coord, factors []*mat.Dense, g *CoreTensor, threads int) float64 {
	n := x.Order()
	nnz := x.NNZ()
	if nnz == 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	// Each thread's factor rows and kernel scratch, one allocation each.
	rowsBuf := make([][]float64, threads*n)
	size := g.kronMax + g.dims[n-1]
	scratch := make([]float64, threads*size)
	ss := parallelSum(threads, nnz, func(tid, e int) float64 {
		rows := rowsBuf[tid*n : (tid+1)*n]
		idx := x.Index(e)
		for k := 0; k < n; k++ {
			rows[k] = factors[k].Row(idx[k])
		}
		r := x.Value(e) - predictWithRows(g, rows, scratch[tid*size:(tid+1)*size])
		return r * r
	})
	return math.Sqrt(ss)
}

// RMSE returns the root mean square error of predictions over the observed
// entries of test, the metric Figure 11 reports for held-out data.
func (m *Model) RMSE(test *tensor.Coord) float64 {
	nnz := test.NNZ()
	if nnz == 0 {
		return 0
	}
	err := m.ReconstructionError(test)
	return err / math.Sqrt(float64(nnz))
}

// Fit returns 1 - error/||X||, the share of the data's norm explained by the
// model (a common Tucker quality score; 1 is perfect).
func (m *Model) Fit(x *tensor.Coord) float64 {
	nrm := x.Norm()
	if nrm == 0 {
		return 1
	}
	return 1 - m.ReconstructionError(x)/nrm
}

// TimePerIteration returns the mean wall-clock duration per ALS iteration,
// the measurement used throughout Section IV ("we use average elapsed time
// per iteration instead of total running time").
func (m *Model) TimePerIteration() time.Duration {
	if len(m.Trace) == 0 {
		return 0
	}
	var total time.Duration
	for _, it := range m.Trace {
		total += it.Elapsed
	}
	return total / time.Duration(len(m.Trace))
}

// TotalTime returns the summed duration of all iterations.
func (m *Model) TotalTime() time.Duration {
	var total time.Duration
	for _, it := range m.Trace {
		total += it.Elapsed
	}
	return total
}

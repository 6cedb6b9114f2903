package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// DecomposeContext runs Algorithm 2 (P-Tucker for Sparse Tensors) on the
// observed entries of x and returns the fitted model. The variant (plain,
// Cache, Approx) is selected by cfg.Method.
//
// The loop structure follows the paper: initialize factors and core with
// uniform random values in [0,1); repeatedly update every factor matrix with
// the row-wise rule (Algorithm 3) and measure the reconstruction error
// (Eq. 5); for P-Tucker-Approx, truncate noisy core entries (Algorithm 4);
// stop on convergence or MaxIters; finally orthogonalize the factors by QR
// and rotate the core by the R factors (Eqs. 7-8), which leaves the
// reconstruction error unchanged. The error measurement departs from
// Algorithm 2's separate pass over Ω: the last mode's row solves already
// hold each row's normal equations, and their residuals Σx² − 2aᵀc + aᵀBa
// sum to Eq. (5) (see solveRowEntries). Only near-exact fits measure it
// with the pass instead (see derivedError).
//
// Cancellation is checked before each iteration and between the per-mode
// factor updates inside one, so a cancelled fit stops within one iteration
// and returns ctx.Err() (context.Canceled or context.DeadlineExceeded) with
// a nil model. cfg.OnIteration, when set, observes every iteration and may
// stop the fit early (see Config.OnIteration). cfg is never mutated; the
// normalized copy produced by Validate is what the run (and the returned
// Model.Config) uses.
func DecomposeContext(ctx context.Context, x *tensor.Coord, cfg Config) (*Model, error) {
	m, _, err := decompose(ctx, x, cfg)
	return m, err
}

// decompose is the full fitting pipeline — init, sweep, finalize — returning
// both the model and the run's mutable state so a Fitter can keep fitting
// (warm-start Refit, FoldIn) where a one-shot DecomposeContext discards it.
func decompose(ctx context.Context, x *tensor.Coord, cfg Config) (*Model, *state, error) {
	cfg, err := cfg.Validate(x.Dims())
	if err != nil {
		return nil, nil, err
	}
	if x.NNZ() == 0 {
		return nil, nil, ErrEmptyTensor
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	st := newState(x, cfg)
	model := st.newModel()
	if err := st.sweep(ctx, model); err != nil {
		return nil, nil, err
	}
	if err := st.finish(model); err != nil {
		return nil, nil, err
	}
	return model, st, nil
}

// newState performs the init phase: random factors and core from cfg.Seed
// (Algorithm 2 line 1), the per-mode inverted index, and the Pres cache for
// P-Tucker-Cache. cfg must already be validated/normalized.
func newState(x *tensor.Coord, cfg Config) *state {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Order()
	factors := make([]*mat.Dense, n)
	for k := 0; k < n; k++ {
		a := mat.NewDense(x.Dim(k), cfg.Ranks[k])
		data := a.Data()
		for i := range data {
			data[i] = rng.Float64()
		}
		factors[k] = a
	}
	st := &state{
		x:       x,
		omega:   tensor.NewModeIndex(x),
		factors: factors,
		core:    NewRandomCore(cfg.Ranks, rng),
		cfg:     cfg,
	}
	if cfg.Method == PTuckerCache {
		st.buildCache()
	}
	return st
}

// newModel wraps the state's live factors and core in a Model. The model
// aliases the state: further sweeps mutate it in place (Fitter.Refit moves
// the state onto private copies first, so the views Fitter.Snapshot hands
// out never change).
//
// The echoed Config drops the OnIteration hook and the SparsifyHoldout
// tensor: both are fit-time inputs, not data (they are likewise excluded
// from serialization), and keeping them would pin the hook's captured scope
// — or a whole held-out tensor — for the lifetime of a served model.
func (st *state) newModel() *Model {
	modelCfg := st.cfg
	modelCfg.OnIteration = nil
	modelCfg.SparsifyHoldout = nil
	return &Model{Factors: st.factors, Core: st.core, Config: modelCfg}
}

// sweep is the iteration phase (Algorithm 2 lines 2-7): repeated factor
// updates, error measurement, P-Tucker-Approx truncation, trace recording,
// and the OnIteration hook, until convergence, MaxIters, early stop, or
// cancellation. It mutates st in place and records the run's
// statistics on model. On a warm start (Fitter.Refit) the state arrives
// already fitted and sweep simply continues from it.
func (st *state) sweep(ctx context.Context, model *Model) error {
	cfg := st.cfg
	x := st.x
	n := x.Order()

	// The last mode's row solves measure Eq. (5) as a by-product (see
	// solveRowEntries): one squared residual per row of A(N).
	rowErr := make([]float64, x.Dim(n-1))
	xNorm := x.Norm()

	prevErr := math.Inf(1)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()

		// Lines 3: update factor matrices A(1)..A(N) by Algorithm 3.
		// Cancellation is rechecked between modes so even a single slow
		// iteration reacts to ctx within one factor update.
		// Per-thread row counts accumulate across every mode of the
		// iteration (updateFactor may return fewer slots than cfg.Threads
		// when a mode has fewer rows than workers), so WorkPerThread sums
		// to Σ_n I_n — the quantity the Figure 10 balance report needs —
		// rather than only the last mode's rows.
		work := make([]int64, cfg.Threads)
		for mode := 0; mode < n; mode++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			var modeErr []float64
			if mode == n-1 {
				modeErr = rowErr
			}
			for t, c := range st.updateFactor(mode, modeErr) {
				work[t] += c
			}
		}

		// Line 4: reconstruction error by Eq. (5), summed from the last
		// mode's per-row residuals; a near-exact fit, whose sum would be
		// mostly rounding, takes a pass over Ω instead.
		errNow, ok := derivedError(rowErr, xNorm*xNorm)
		if !ok {
			errNow = reconstructionError(x, st.factors, st.core, cfg.Threads)
		}
		// |G| is captured at the same instant as Error — after the factor
		// updates, before this iteration's truncation — so an IterStats
		// always pairs an error with the core that produced it.
		coreNNZ := st.core.NNZ()

		// Lines 5-6: P-Tucker-Approx truncates noisy core entries.
		if cfg.Method == PTuckerApprox {
			st.truncateCore()
			if st.cache != nil {
				st.buildCache()
			}
		}

		stats := IterStats{
			Iter:    iter,
			Error:   errNow,
			Elapsed: time.Since(start),
			CoreNNZ: coreNNZ,
		}
		model.Trace = append(model.Trace, stats)
		model.WorkPerThread = work
		model.TrainError = errNow

		// Observability hook: stream progress, allow early stop.
		if cfg.OnIteration != nil {
			if err := cfg.OnIteration(stats); err != nil {
				if errors.Is(err, ErrStopIteration) {
					return nil
				}
				return fmt.Errorf("core: OnIteration hook failed at iteration %d: %w", iter, err)
			}
		}

		// Line 7: stop when the error converges.
		if cfg.Tol > 0 && prevErr < math.Inf(1) {
			denom := prevErr
			if denom == 0 {
				denom = 1
			}
			if math.Abs(prevErr-errNow)/denom < cfg.Tol {
				model.Converged = true
				return nil
			}
		}
		prevErr = errNow
	}
	return nil
}

// finish is the finalize phase (Algorithm 2 lines 8-11): record the truncated
// |G|, orthogonalize the factors by QR and rotate the core by the R factors
// (Eqs. 7-8), and optionally prune the core under the Sparsify budget.
// Truncated fits (P-Tucker-Approx) rotate sparsely, so the core keeps its
// truncated |G| through finalization instead of being re-densified.
func (st *state) finish(model *Model) error {
	// |G| after the last truncation, recorded before finalize's rotation.
	model.FinalCoreNNZ = st.core.NNZ()
	model.IntermediateBytes = st.intermediateBytes()
	if err := finalize(st.factors, st.core, st.cfg.Method == PTuckerApprox); err != nil {
		return fmt.Errorf("core: orthogonalization failed: %w", err)
	}
	// The rotation stales the memoized Pres products (they embed the old
	// factors and core); drop the table so any later pass — the sparsify
	// scoring below, a warm Refit — rebuilds or bypasses it.
	st.cache = nil
	st.cacheW = 0
	st.sparsifyCore(model)
	return nil
}

// finalize performs A(n) = Q(n)R(n), substitutes Q(n) for A(n), and applies
// G ← G ×n R(n) for every mode (Algorithm 2 lines 8-11). With sparse set
// (truncated fits) the core rotation runs on the live entry list and
// re-truncates to the pre-rotation |G| (see RotateAllSparse) — the
// rotation's upper-triangular R factors would otherwise re-densify the core
// and silently undo what the truncation paid for. Dense fits keep the exact
// Eq. (8) semantics, under which the reconstruction error is unchanged.
func finalize(factors []*mat.Dense, g *CoreTensor, sparse bool) error {
	rs := make([]*mat.Dense, len(factors))
	for k, a := range factors {
		q, r, err := mat.QRFactor(a)
		if err != nil {
			return err
		}
		factors[k].CopyFrom(q)
		rs[k] = r
	}
	if sparse {
		g.RotateAllSparse(rs, g.NNZ(), RotationDropTol)
	} else {
		g.RotateAll(rs)
	}
	return nil
}

// state carries the mutable pieces of one DecomposeContext run.
type state struct {
	x       *tensor.Coord
	omega   *tensor.ModeIndex
	factors []*mat.Dense
	core    *CoreTensor
	cfg     Config

	// cache is the Pres table of P-Tucker-Cache, flattened row-major:
	// cache[α*cacheW + e] = Gβ(e) · ∏_k A(k)[ik][jk(e)] for observed entry α
	// and live core entry e. nil for the other variants.
	cache  []float64
	cacheW int

	// keepEmptyRows makes the row update leave rows with no observations at
	// their current values instead of zeroing them. Cold fits zero such rows
	// (the exact minimizer of the regularized loss when the row starts at
	// random noise); warm refits over a delta (Fitter.Refit after
	// ResumeFitter) keep them, because "no new observations" must not erase
	// a row the served model already fitted.
	keepEmptyRows bool
}

// intermediateBytes returns the analytic intermediate-data footprint
// (Definition 7) of the configured variant, matching Table III with the
// contraction kernel counted: per thread, δ, c, B and the Cholesky factor
// (O(J²)) and the Kronecker buffer of the largest mode on the kernel's
// Kronecker side (Π_{k≠n} J_k, at most |G|); the kernel's two int32 index
// arrays per mode (8·N·|G| bytes); plus O(|Ω|·|G|) for the cache table.
// For a dense core that is O(T·(J² + J^{N−1}) + N·J^N). Core sizes are those
// of the core the fit ends with.
func (st *state) intermediateBytes() int64 {
	maxJ := 0
	for _, j := range st.cfg.Ranks {
		if j > maxJ {
			maxJ = j
		}
	}
	g := st.core
	perThread := int64(2*maxJ*maxJ+2*maxJ+g.kronMax) * 8
	total := int64(st.cfg.Threads)*perThread + 8*int64(g.Order())*int64(g.NNZ())
	if st.cfg.Method == PTuckerCache {
		total += int64(st.x.NNZ()) * int64(g.NNZ()) * 8
	}
	return total
}

// workspace is the per-thread scratch of the row update: the δ vector, the
// normal matrix B, the right-hand side c, the Cholesky factor of [B + λI],
// a buffer of factor-row pointers, and the kernel's Kronecker buffer. Its
// size is what gives P-Tucker its O(T·(J² + J^{N−1})) memory bound; a row
// solve allocates nothing beyond it.
type workspace struct {
	delta []float64
	b     *mat.Dense
	c     []float64
	chol  mat.Cholesky
	rows  [][]float64
	kron  []float64 // the contraction kernel's Kronecker buffer, sized on first use
}

func newWorkspace(order, maxJ int) *workspace {
	buf := make([]float64, maxJ*maxJ+2*maxJ) // B, then δ and c
	return &workspace{
		delta: buf[maxJ*maxJ : maxJ*maxJ+maxJ],
		b:     mat.NewDenseData(maxJ, maxJ, buf[:maxJ*maxJ]),
		c:     buf[maxJ*maxJ+maxJ:],
		rows:  make([][]float64, order),
	}
}

// updateFactor applies the row-wise update rule (Eq. 9) to every row of
// A(mode), in parallel (Algorithm 3 lines 5-15), and returns the per-thread
// row counts for balance reporting. When rowErr is non-nil it has one slot
// per row of A(mode) and receives each row's squared residual (see
// solveRowEntries) at the row's index.
func (st *state) updateFactor(mode int, rowErr []float64) []int64 {
	a := st.factors[mode]
	jn := st.cfg.Ranks[mode]
	n := st.x.Order()
	threads := st.cfg.Threads

	var oldA *mat.Dense
	if st.cache != nil {
		oldA = a.Clone() // needed to rescale Pres after the update
	}

	ws := make([]*workspace, threads)
	for t := range ws {
		ws[t] = newWorkspace(n, jn)
	}

	counts := runIndexed(threads, st.cfg.Scheduling, a.Rows(), func(tid, in int) {
		r := st.updateRow(mode, in, ws[tid])
		if rowErr != nil {
			rowErr[in] = r
		}
	})

	if st.cache != nil {
		st.rescaleCache(mode, oldA)
	}
	return counts
}

// updateRow recomputes row in of A(mode) by Eq. (9) over the observed
// entries Ω(n)[in] from the inverted index and returns the row's squared
// residual.
func (st *state) updateRow(mode, in int, w *workspace) float64 {
	return st.solveRowEntries(mode, st.omega.Slice(mode, in), st.factors[mode].Row(in), w)
}

// derivedErrorFloor is the smallest share of ‖X‖² at which a derived
// squared error (the sum of the last mode's row residuals) is trusted. Each
// row's Σx² − 2aᵀc + aᵀBa cancels terms as large as its Σx², so the sum
// carries a rounding error of about ε·‖X‖² (ε = 2.2e-16; planted fixtures
// measured at most 1.4ε·‖X‖²) whatever its own size. At this floor the
// derived error therefore agrees with the exact pass to about 1e-12
// relative. Below it — a near-exact fit, as on noise-free data — the
// rounding would swamp the result, and the sweep runs the exact Eq. (5)
// pass instead.
const derivedErrorFloor = 1e-4

// derivedError returns the Eq. (5) error √Σ rowErr, adding the per-row
// squared residuals in row order so the value does not depend on how the
// rows were spread over threads. ok is false when the sum falls below
// derivedErrorFloor·normSq (or is NaN), and the caller must measure the
// error directly.
func derivedError(rowErr []float64, normSq float64) (float64, bool) {
	var ss float64
	for _, r := range rowErr {
		ss += r
	}
	if !(ss >= derivedErrorFloor*normSq) {
		return 0, false
	}
	return math.Sqrt(ss), true
}

// solveRowEntries is the single-row least-squares kernel of Algorithm 3: it
// accumulates B(n)[in] (Eq. 10) and c(n)[in] (Eq. 11) over the given observed
// entry ids, then solves the SPD system [B + λI]ᵀ row = c in place. Rows with
// no observations are set to zero — the exact minimizer of the regularized
// loss for them — unless st.keepEmptyRows holds (warm refit). It is shared by
// the full per-mode sweep (updateRow) and by online fold-in, which solves it
// exactly once for a brand-new row at O(nnz_i·J²·|G|-factor) cost instead of
// running a whole fit.
//
// It returns the row's squared residual Σ(Xα − δαᵀ·row)² over the entries,
// expanded as Σx² − 2·rowᵀc + rowᵀB·row from the same accumulators at
// O(J²) cost, with B taken without λ. Summed over the last mode's rows this
// is Eq. (5)'s squared error, because δ then holds every other factor and
// the core (Eq. 12).
func (st *state) solveRowEntries(mode int, entries []int, row []float64, w *workspace) float64 {
	jn := st.cfg.Ranks[mode]

	if len(entries) == 0 {
		if st.keepEmptyRows {
			return 0
		}
		for j := range row {
			row[j] = 0
		}
		return 0
	}

	b := w.b
	b.Zero()
	c := w.c[:jn]
	for j := range c {
		c[j] = 0
	}

	var xx float64 // Σ Xα² over the row's entries
	for _, alpha := range entries {
		delta := st.computeDelta(mode, alpha, w)
		xv := st.x.Value(alpha)
		xx += xv * xv
		// B += δδᵀ (upper triangle), c += Xα·δ.
		for j1 := 0; j1 < jn; j1++ {
			d1 := delta[j1]
			if d1 == 0 {
				continue
			}
			brow := b.Row(j1)
			for j2 := j1; j2 < jn; j2++ {
				brow[j2] += d1 * delta[j2]
			}
			c[j1] += xv * d1
		}
	}
	// Mirror to the lower triangle and add λI.
	for j1 := 0; j1 < jn; j1++ {
		for j2 := j1 + 1; j2 < jn; j2++ {
			b.Set(j2, j1, b.At(j1, j2))
		}
		b.Add(j1, j1, st.cfg.Lambda)
	}

	// Solve [B + λI] x = c. B is SPD for λ>0; Cholesky is the fast path and
	// LU the fallback for λ=0 with degenerate B. If both fail the row is
	// left unchanged, which keeps the loss monotone (skipping an update
	// can never increase it above the previous iterate).
	if err := w.chol.Factorize(b); err == nil {
		copy(row, c)
		w.chol.SolveVecInPlace(row)
	} else if sol, err := mat.SolveVec(b, c); err == nil {
		copy(row, sol)
	}

	// The expansion holds for whatever row now is: rowᵀB·row is read off
	// [B + λI] as rowᵀ[B + λI]row − λ‖row‖².
	var rc, rBr, rr float64
	for j1 := 0; j1 < jn; j1++ {
		r1 := row[j1]
		brow := b.Row(j1)
		var s float64
		for j2 := 0; j2 < jn; j2++ {
			s += brow[j2] * row[j2]
		}
		rBr += r1 * s
		rc += r1 * c[j1]
		rr += r1 * r1
	}
	return xx - 2*rc + (rBr - st.cfg.Lambda*rr)
}

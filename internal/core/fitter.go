package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Observation is one observed tensor entry handed to the online-learning
// API: a multi-index (one coordinate per mode) and the observed value.
type Observation struct {
	Index []int   `json:"index"`
	Value float64 `json:"value"`
}

// Errors returned by the Fitter.
var (
	// ErrNotFitted reports a Fitter operation that needs a model before one
	// exists: call Fit first, or construct the Fitter with ResumeFitter.
	ErrNotFitted = errors.New("core: fitter has no model yet (call Fit or use ResumeFitter)")
	// ErrBadObservation reports an observation the operation cannot accept:
	// its index does not address an admissible cell (wrong number of modes,
	// coordinate out of range, or — for FoldIn — a coordinate that is not the
	// next new row), or its value is NaN or ±Inf.
	ErrBadObservation = errors.New("core: invalid observation")
	// ErrResumeMismatch reports a ResumeFitter call whose config is
	// inconsistent with the model being resumed.
	ErrResumeMismatch = errors.New("core: config inconsistent with resumed model")
)

// Fitter is the stateful fitting handle of the online-learning API: it owns a
// mutable copy of the factors, the core, and the accumulated training
// observations, and exposes the three regimes of model maintenance that
// P-Tucker's row-independent update rule (Eq. 4 / Algorithm 3) makes cheap:
//
//   - Fit: a cold fit from cfg.Seed, equivalent to DecomposeContext.
//   - Refit: warm-started ALS over the union of old and new observations,
//     reusing the current factors as the starting point instead of
//     re-randomizing — it typically reaches the cold-fit error in a fraction
//     of the iterations. Use it when many observations have accumulated or
//     existing rows' data changed.
//   - FoldIn: solve the row-wise least-squares problem (Eq. 9) exactly once
//     for a single brand-new row (a cold-start user, a new item), growing the
//     factor matrix by one row in O(nnz_i·J²·|G|) — no iteration at all. Use
//     it when a new entity must be servable immediately; its row is exactly
//     what one cold-fit row update with all other factors fixed would
//     produce, but the other rows are not re-fitted, so schedule a Refit
//     once enough fold-ins or observations pile up.
//
// Snapshot returns an immutable *Model at any point, which is what
// predictors and the serving layer consume. A snapshot is a view, not a deep
// copy: each factor is the first rows of the fitter's array, and the core is
// shared. It stays valid because the fitter never writes a row or a core
// entry a view can see: FoldIn only appends rows past the end, and Refit
// first moves the fitter onto private copies.
//
// Determinism: a Fitter is as reproducible as the one-shot API. Equal seed
// and an equal sequence of operations (same Fit/Observe/FoldIn/Refit calls
// with the same arguments) yield bit-identical snapshots at any thread
// count; Refit and FoldIn draw no randomness at all.
//
// A Fitter is not safe for concurrent use; callers that share one across
// goroutines (e.g. a serving layer) must serialize access. Snapshots, once
// returned, are immutable and freely shareable, also while the fitter keeps
// folding in and refitting.
type Fitter struct {
	cfg Config // as supplied; normalized into st.cfg at init time
	st  *state
	// model holds st's live factors and core (not copies of them) and the
	// run statistics of the last fit or refit. Snapshot hands out views of
	// it; FoldIn and Refit keep its factors and core pointing at st's.
	model *Model
}

// NewFitter returns a Fitter that will cold-start from cfg (validated
// against the tensor shape at the first Fit call).
func NewFitter(cfg Config) *Fitter { return &Fitter{cfg: cfg} }

// ResumeFitter wraps an already-fitted model (e.g. one loaded from disk) in
// a Fitter so it can absorb new observations without a from-scratch refit.
// The model's factors and core are deep-copied — the source model is never
// mutated, and the fitter owns every array it appends to. The fitter starts
// with an empty observation set: Refit fits over whatever Observe/FoldIn
// have added since the resume, leaving rows with no new observations at
// their served values.
//
// cfg.Ranks may be nil to adopt the model's ranks; when set they must match
// the model's core dimensionalities. Fit-loop knobs (MaxIters, Tol, Lambda,
// Threads, ...) are taken from cfg.
func ResumeFitter(m *Model, cfg Config) (*Fitter, error) {
	order := len(m.Factors)
	if order == 0 || m.Core == nil {
		return nil, fmt.Errorf("%w: model has no factors", ErrResumeMismatch)
	}
	dims := make([]int, order)
	for k, a := range m.Factors {
		dims[k] = a.Rows()
	}
	if len(cfg.Ranks) == 0 {
		cfg.Ranks = m.Core.Dims()
	}
	if len(cfg.Ranks) != order {
		return nil, fmt.Errorf("%w: %d ranks vs order %d", ErrResumeMismatch, len(cfg.Ranks), order)
	}
	for k, j := range cfg.Ranks {
		if j != m.Factors[k].Cols() || j != m.Core.Dims()[k] {
			return nil, fmt.Errorf("%w: rank J%d = %d but model factor has %d columns (core dim %d)",
				ErrResumeMismatch, k+1, j, m.Factors[k].Cols(), m.Core.Dims()[k])
		}
	}
	cfg, err := cfg.Validate(dims)
	if err != nil {
		return nil, err
	}

	factors := make([]*mat.Dense, order)
	for k, a := range m.Factors {
		factors[k] = a.Clone()
	}
	x := tensor.NewCoord(dims)
	st := &state{
		x:       x,
		omega:   tensor.NewModeIndex(x),
		factors: factors,
		core:    m.Core.Clone(),
		cfg:     cfg,
	}
	f := &Fitter{cfg: cfg, st: st}
	f.model = st.newModel()
	f.model.TrainError = m.TrainError
	f.model.FinalCoreNNZ = m.FinalCoreNNZ
	return f, nil
}

// Fit cold-starts a factorization of x from the fitter's config, exactly as
// DecomposeContext would (same seed, same phases, bit-identical result), and
// installs the fitted state as the fitter's current model. The observations
// of x are copied into the fitter's training set, so later Refit calls sweep
// over the union of x and everything observed since. The returned model is
// an immutable snapshot.
func (f *Fitter) Fit(ctx context.Context, x *tensor.Coord) (*Model, error) {
	model, st, err := decompose(ctx, x.Clone(), f.cfg)
	if err != nil {
		return nil, err
	}
	f.st = st
	f.model = model
	return f.Snapshot(), nil
}

// Observe appends delta observations to the fitter's training set without
// refitting; every index must address an existing cell and every value must
// be finite. The observations take effect at the next Refit. It validates
// all observations before appending any, so a failed Observe leaves the
// fitter unchanged.
func (f *Fitter) Observe(delta []Observation) error {
	if f.st == nil {
		return ErrNotFitted
	}
	for i, o := range delta {
		if err := f.checkIndex(o.Index); err != nil {
			return fmt.Errorf("observation %d: %w", i, err)
		}
		if err := checkFinite(i, o); err != nil {
			return err
		}
	}
	for _, o := range delta {
		f.st.x.MustAppend(o.Index, o.Value)
	}
	f.st.omega = nil // stale; rebuilt by the next Refit
	return nil
}

// Refit appends delta (which may be empty) to the training set and runs a
// warm-started ALS sweep over the whole accumulated set: the current factors
// and core are the starting point — no re-randomization — so convergence is
// measured from an already-good iterate and the Tol stopping rule fires in a
// fraction of a cold fit's iterations. Rows that have no observations in the
// accumulated set keep their current values (relevant after ResumeFitter,
// whose set only holds what arrived since the resume). The refit model is
// finalized (QR + core rotation) and returned as an immutable snapshot.
//
// Refit is the one operation that rewrites existing factor rows and the
// core, so it first moves the fitter onto private copies of every factor
// and the core: one model copy per refit, and no snapshot published before
// it ever changes.
//
// On error (including ctx cancellation mid-sweep) the fitter's factors may
// have absorbed a partial sweep; they remain a valid model — every completed
// row update is an exact minimizer — and the previous snapshot is untouched.
func (f *Fitter) Refit(ctx context.Context, delta []Observation) (*Model, error) {
	if f.st == nil {
		return nil, ErrNotFitted
	}
	if err := f.Observe(delta); err != nil {
		return nil, err
	}
	st := f.st
	if st.x.NNZ() == 0 {
		return nil, ErrEmptyTensor
	}

	// Private copies, repointed in f.model too: a refit that fails part way
	// leaves the fitter, and its next snapshot, on the partly refitted copies.
	for k, a := range st.factors {
		st.factors[k] = a.Clone()
	}
	st.core = st.core.Clone()
	f.model.Factors, f.model.Core = st.factors, st.core

	// Rebuild the structures FoldIn/Observe invalidated: the inverted index
	// always (new entries), the Pres cache for P-Tucker-Cache (new entries
	// and possibly new rows).
	st.omega = tensor.NewModeIndex(st.x)
	if st.cfg.Method == PTuckerCache {
		st.buildCache()
	}
	st.keepEmptyRows = true

	model := st.newModel()
	if err := st.sweep(ctx, model); err != nil {
		return nil, err
	}
	if err := st.finish(model); err != nil {
		return nil, err
	}
	f.model = model
	return f.Snapshot(), nil
}

// FoldIn admits one brand-new row of the given mode — index Dim(mode), the
// next unused slice — from its observations: it appends one row to the
// factor matrix A(mode) and solves Eq. 9 for that row exactly once against
// the current factors and core, costing O(nnz_i·J²·|G|) instead of a full
// fit. The append grows A(mode)'s array the way append grows a slice, so it
// moves O(J) memory amortized, and it writes nothing below the old row
// count: previously returned snapshots, which view only those rows, stay
// unchanged without any copy. The solved row is bit-identical to what a
// cold-fit row update with all other factors fixed would produce. obs
// indexes must carry the new row's index at mode and existing coordinates
// elsewhere, and obs values must be finite; a rejected call changes nothing.
// The observations join the training set for later Refits. It returns the
// new row's index.
//
// Fold-in fixes every other factor row, so it is the right tool for serving
// a cold-start entity immediately; accumulate enough fold-ins or new
// observations and the surrounding rows' staleness grows — run Refit to
// re-balance the whole model.
func (f *Fitter) FoldIn(mode int, obs []Observation) (int, error) {
	if f.st == nil {
		return 0, ErrNotFitted
	}
	st := f.st
	n := st.x.Order()
	if mode < 0 || mode >= n {
		return 0, fmt.Errorf("%w: mode %d out of range [0,%d)", ErrBadObservation, mode, n)
	}
	if len(obs) == 0 {
		return 0, fmt.Errorf("%w: fold-in needs at least one observation for the new row", ErrBadObservation)
	}
	newRow := st.x.Dim(mode)
	for i, o := range obs {
		if len(o.Index) != n {
			return 0, fmt.Errorf("%w: observation %d has %d modes, model has %d", ErrBadObservation, i, len(o.Index), n)
		}
		for k, c := range o.Index {
			if k == mode {
				if c != newRow {
					return 0, fmt.Errorf("%w: observation %d has index %d in mode %d; fold-in row must be the next new slice %d",
						ErrBadObservation, i, c, mode, newRow)
				}
				continue
			}
			if c < 0 || c >= st.x.Dim(k) {
				return 0, fmt.Errorf("%w: observation %d index %d out of range [0,%d) in mode %d",
					ErrBadObservation, i, c, st.x.Dim(k), k)
			}
		}
		if err := checkFinite(i, o); err != nil {
			return 0, err
		}
	}

	// Grow the tensor's shape and append the new row's observations; their
	// entry ids are exactly what Ω(mode)[newRow] would enumerate.
	st.x.GrowMode(mode, newRow+1)
	base := st.x.NNZ()
	for _, o := range obs {
		st.x.MustAppend(o.Index, o.Value)
	}
	entries := make([]int, len(obs))
	for i := range entries {
		entries[i] = base + i
	}

	// Append a zero row past every published view; when the array is full,
	// append moves it to a larger one and the views keep the old one.
	a := st.factors[mode]
	data := append(a.Data(), make([]float64, a.Cols())...)
	grown := mat.NewDenseData(a.Rows()+1, a.Cols(), data)
	st.factors[mode] = grown
	f.model.Factors[mode] = grown

	// The Pres cache (P-Tucker-Cache) is indexed by entry id and sized for
	// the pre-append |Ω|; drop it so the solve takes the direct-product path
	// (Refit rebuilds it). The inverted index is likewise stale.
	st.cache = nil
	st.cacheW = 0
	st.omega = nil

	// Solve Eq. 9 once for the new row with the shared row kernel.
	w := newWorkspace(n, st.cfg.Ranks[mode])
	st.solveRowEntries(mode, entries, grown.Row(newRow), w)
	return newRow, nil
}

// TrainingStore supplies a persisted training set to AttachStore. It is
// implemented by store.Dir (the serving layer's data directory); any source
// of a training tensor will do. TrainingTensor returns (nil, nil) when
// nothing has been persisted yet.
type TrainingStore interface {
	TrainingTensor() (*tensor.Coord, error)
}

// AttachStore loads the persisted training set from ts and attaches it via
// AttachTrainingSet, so a Fitter resumed from a bare model file refits over
// the true union of everything ever observed instead of only the
// observations that arrived since the resume. A store with no persisted
// tensor is a no-op.
func (f *Fitter) AttachStore(ts TrainingStore) error {
	x, err := ts.TrainingTensor()
	if err != nil {
		return err
	}
	if x == nil {
		return nil
	}
	return f.AttachTrainingSet(x)
}

// AttachTrainingSet merges a persisted training tensor into the fitter's
// accumulated observation set, in front of anything observed since the
// resume — the same order a process that never went down would have them in,
// which is what keeps resumed refits bit-identical to uninterrupted ones.
// The tensor's order must match the model's, and no mode may be larger than
// the model's (the model must cover every row the training set addresses);
// smaller modes are grown to the model's shape. x is cloned, never aliased.
func (f *Fitter) AttachTrainingSet(x *tensor.Coord) error {
	if f.st == nil {
		return ErrNotFitted
	}
	st := f.st
	n := st.x.Order()
	if x.Order() != n {
		return fmt.Errorf("%w: training set has order %d, model has %d", ErrBadObservation, x.Order(), n)
	}
	for k := 0; k < n; k++ {
		if x.Dim(k) > st.x.Dim(k) {
			return fmt.Errorf("%w: training set mode %d has dimension %d but the model covers only %d rows",
				ErrBadObservation, k, x.Dim(k), st.x.Dim(k))
		}
	}

	merged := x.Clone()
	for k := 0; k < n; k++ {
		merged.GrowMode(k, st.x.Dim(k))
	}
	for e := 0; e < st.x.NNZ(); e++ {
		merged.MustAppend(st.x.Index(e), st.x.Value(e))
	}
	st.x = merged
	// Entry-indexed structures are stale; Refit rebuilds them.
	st.omega = nil
	st.cache = nil
	st.cacheW = 0
	return nil
}

// TrainingSet returns a deep copy of the fitter's accumulated training
// observations (what the next Refit sweeps over and what a compaction
// snapshot persists), or nil before the first fit.
func (f *Fitter) TrainingSet() *tensor.Coord {
	if f.st == nil {
		return nil
	}
	return f.st.x.Clone()
}

// Snapshot returns the fitter's current model as an immutable view, in O(N)
// time whatever the model's size, suitable for NewPredictorShared and the
// serving layer. Each factor views the first Rows() rows of the fitter's
// array, capped there so nothing can append through it, and the core is
// shared; only the config's ranks and the run statistics are copied. Later
// Fit/Refit/FoldIn calls never change a returned snapshot (see Fitter), and
// callers must not write through one. A snapshot keeps alive the arrays it
// views, spare capacity included, for as long as it is held.
func (f *Fitter) Snapshot() *Model {
	if f.model == nil {
		return nil
	}
	m := f.model
	factors := make([]*mat.Dense, len(m.Factors))
	for k, a := range m.Factors {
		factors[k] = mat.NewDenseData(a.Rows(), a.Cols(), slices.Clip(a.Data()))
	}
	c := *m
	c.Factors = factors
	c.Config.Ranks = append([]int(nil), m.Config.Ranks...)
	c.Trace = append([]IterStats(nil), m.Trace...)
	c.WorkPerThread = append([]int64(nil), m.WorkPerThread...)
	return &c
}

// Dims returns the current mode lengths I1..IN (grown by fold-ins), or nil
// before the first fit.
func (f *Fitter) Dims() []int {
	if f.st == nil {
		return nil
	}
	return append([]int(nil), f.st.x.Dims()...)
}

// NNZ returns the number of training observations the fitter has
// accumulated (the set the next Refit sweeps over).
func (f *Fitter) NNZ() int {
	if f.st == nil {
		return 0
	}
	return f.st.x.NNZ()
}

// checkFinite rejects observation i when its value is NaN or ±Inf: one such
// value makes every factor row its solve touches non-finite.
func checkFinite(i int, o Observation) error {
	if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
		return fmt.Errorf("%w: observation %d value %v: %w", ErrBadObservation, i, o.Value, tensor.ErrNonFinite)
	}
	return nil
}

// checkIndex validates idx against the fitter's current shape.
func (f *Fitter) checkIndex(idx []int) error {
	n := f.st.x.Order()
	if len(idx) != n {
		return fmt.Errorf("%w: index has %d modes, model has %d", ErrBadObservation, len(idx), n)
	}
	for k, c := range idx {
		if c < 0 || c >= f.st.x.Dim(k) {
			return fmt.Errorf("%w: index %d out of range [0,%d) in mode %d", ErrBadObservation, c, f.st.x.Dim(k), k)
		}
	}
	return nil
}

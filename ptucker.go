// Package ptucker is the public API of this reproduction of "Scalable Tucker
// Factorization for Sparse Tensors — Algorithms and Discoveries" (Oh, Park,
// Sael, Kang; ICDE 2018).
//
// It factorizes large sparse partially-observed tensors with P-Tucker — an
// alternating-least-squares method with a fully parallel row-wise update rule
// that touches only the observed entries — and exposes the paper's two
// time-optimized variants (P-Tucker-Cache, P-Tucker-Approx), the discovery
// tooling of Section V (concept clustering, core-driven relation mining), and
// tensor IO in the published dataset format.
//
// Quick start:
//
//	x := ptucker.NewTensor([]int{users, movies, hours})
//	x.Append([]int{u, m, h}, rating)            // repeat for observed cells
//	cfg := ptucker.Defaults([]int{10, 10, 10})  // core ranks J1..J3
//	model, err := ptucker.DecomposeContext(ctx, x, cfg)
//	pred := model.Predict([]int{u2, m2, h2})    // estimate a missing cell
//
// Fitting is context-aware and observable: DecomposeContext honors
// cancellation every ALS iteration, and Config.OnIteration streams
// per-iteration statistics and can stop a fit early. A fitted Model can be
// persisted with SaveModel / LoadModel (a versioned binary format whose
// round trip is bit-identical) and served concurrently through a Predictor,
// whose PredictBatch fans large batches out across worker goroutines.
//
// Models also learn online: a Fitter (NewFitter / ResumeFitter) keeps the
// factorization mutable, absorbing new observations with a warm-started
// Refit and admitting brand-new rows — cold-start users, new items — with
// FoldIn, which solves the row's independent least-squares problem (Eq. 4)
// once instead of re-fitting, then hands out immutable Snapshots to serve.
//
// The subpackages under internal/ contain the substrates (dense linear
// algebra, sparse tensors, the baseline methods of the paper's evaluation)
// and the experiment harness that regenerates every table and figure; see
// README.md for a tour of the API and `go doc repro/internal/experiments`
// for the experiment index.
package ptucker

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cp"
	"repro/internal/discovery"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Tensor is a sparse tensor in coordinate format: the set Ω of observed
// entries of a partially observable multi-dimensional array.
type Tensor = tensor.Coord

// NewTensor returns an empty sparse tensor with the given mode lengths.
func NewTensor(dims []int) *Tensor { return tensor.NewCoord(dims) }

// ReadTensorFile loads a tensor file, auto-detecting the encoding: the text
// format of the published P-Tucker datasets (one observed entry per line,
// 1-based indices then the value) or the binary snapshot format written by
// SaveTensor. Pass nil dims to infer the shape from the data; binary
// snapshots carry their own shape, and order 0 adopts theirs.
func ReadTensorFile(path string, order int, dims []int) (*Tensor, error) {
	return tensor.ReadFile(path, order, dims)
}

// WriteTensorFile stores a tensor in the text format.
func WriteTensorFile(path string, t *Tensor) error { return tensor.WriteFile(path, t) }

// SaveTensor stores a tensor as a CRC-checked binary snapshot, atomically
// (temp file, fsync, rename): fixed-width records that load roughly an order
// of magnitude faster than the text format. ReadTensorFile reads either
// encoding transparently; the snapshot also serves as the training-set
// sidecar a Fitter resumes from (Fitter.AttachStore) and a serving data
// directory replays against.
func SaveTensor(path string, t *Tensor) error { return store.WriteTensor(path, t) }

// LoadTensor reads a binary tensor snapshot written by SaveTensor. For text
// files (or when the encoding is unknown) use ReadTensorFile.
func LoadTensor(path string) (*Tensor, error) { return store.ReadTensor(path) }

// Config holds the factorization hyper-parameters; see Defaults for the
// paper's settings.
type Config = core.Config

// Model is a fitted Tucker factorization: orthonormal factor matrices, the
// core tensor, and per-iteration statistics. It implements io.WriterTo; see
// SaveModel and LoadModel for file persistence.
type Model = core.Model

// IterStats carries one ALS iteration's statistics to Config.OnIteration
// hooks and the Model.Trace.
type IterStats = core.IterStats

// ErrStopIteration is the sentinel a Config.OnIteration hook returns to end
// a fit early without signalling failure: the model fitted so far is
// finalized and returned with a nil error.
var ErrStopIteration = core.ErrStopIteration

// Method selects the P-Tucker variant.
type Method = core.Method

// The P-Tucker family (Section III).
const (
	// PTucker is the default memory-optimized algorithm (O(T·J²)
	// intermediate memory).
	PTucker = core.PTucker
	// PTuckerCache memoizes intermediate products for O(1) δ updates at
	// O(|Ω|·|G|) memory.
	PTuckerCache = core.PTuckerCache
	// PTuckerApprox truncates "noisy" core entries each iteration,
	// trading a little accuracy for shrinking per-iteration time.
	PTuckerApprox = core.PTuckerApprox
)

// Scheduling selects how factor rows are distributed over worker threads.
type Scheduling = core.Scheduling

// Row distribution policies (Section III-D).
const (
	// ScheduleDynamic corrects per-row workload skew (the default).
	ScheduleDynamic = core.ScheduleDynamic
	// ScheduleStatic is the naive contiguous split.
	ScheduleStatic = core.ScheduleStatic
)

// Defaults returns the paper's default configuration for the given core
// ranks: λ=0.01, at most 20 iterations, truncation rate p=0.2, dynamic
// scheduling, one worker per CPU.
func Defaults(ranks []int) Config {
	cfg := core.Defaults(ranks)
	cfg.MaxIters = 20
	return cfg
}

// DecomposeContext factorizes the observed entries of x per Algorithm 2 and
// returns the fitted model. All randomness derives from cfg.Seed; equal
// inputs give bit-identical models at any thread count.
//
// Cancellation is honored every ALS iteration: a cancelled fit stops within
// one iteration and returns ctx.Err() with a nil model. cfg.OnIteration,
// when set, observes every iteration and can stop the fit early by
// returning ErrStopIteration. cfg is never mutated.
func DecomposeContext(ctx context.Context, x *Tensor, cfg Config) (*Model, error) {
	return core.DecomposeContext(ctx, x, cfg)
}

// Fitter is the stateful online-learning handle: it owns a mutable copy of
// the factors, core, and accumulated observations, and exposes Fit (cold
// start, equivalent to DecomposeContext), Refit (warm-started ALS over the
// union of old and new observations — reaches the cold-fit error in a
// fraction of the iterations), FoldIn (admit one brand-new row, e.g. a
// cold-start user, by solving its row-wise least-squares problem once in
// O(nnz_i·J²·|G|)), and Snapshot (an immutable *Model for predictors, an
// O(1) view of the fitter's arrays rather than a copy).
//
// Rule of thumb: FoldIn when a new entity must be servable immediately —
// its row is exactly what a cold fit with the other factors fixed would
// produce; Refit once enough fold-ins or new observations have accumulated
// that the rest of the model should re-balance; Fit only to start over.
// A Fitter is not safe for concurrent use; snapshots are.
type Fitter = core.Fitter

// Observation is one observed tensor entry for the online-learning API: a
// multi-index and its value.
type Observation = core.Observation

// NewFitter returns a Fitter that cold-starts from cfg at the first Fit.
func NewFitter(cfg Config) *Fitter { return core.NewFitter(cfg) }

// ResumeFitter wraps an already-fitted model (e.g. one loaded from disk) in
// a Fitter so it can absorb new observations without a from-scratch refit.
// Pass m.Config (tweaked as desired) to keep the settings the model was
// trained with; cfg.Ranks may be nil to adopt the model's ranks.
func ResumeFitter(m *Model, cfg Config) (*Fitter, error) { return core.ResumeFitter(m, cfg) }

// ErrNotFitted is returned by Fitter operations that need a model before
// one exists (call Fit first, or construct the Fitter with ResumeFitter).
var ErrNotFitted = core.ErrNotFitted

// ErrBadObservation is returned by Fitter.Observe/Refit/FoldIn for an
// observation that does not address an acceptable cell or whose value is NaN
// or ±Inf.
var ErrBadObservation = core.ErrBadObservation

// TrainingStore supplies a persisted training set to Fitter.AttachStore, so
// a fitter resumed from a bare model file refits over the true union of
// everything ever observed (not just what arrived since the resume). The
// serving layer's data directory implements it; so does any loader that can
// produce a Tensor.
type TrainingStore = core.TrainingStore

// SaveModel writes a fitted model to path in the versioned binary format,
// atomically (write to a temp file, then rename). A model saved on one
// machine and loaded on another yields bit-identical predictions.
func SaveModel(path string, m *Model) error { return core.SaveModel(path, m) }

// LoadModel reads a model previously written by SaveModel.
func LoadModel(path string) (*Model, error) { return core.LoadModel(path) }

// ReadModel decodes a model from a stream previously produced by
// Model.WriteTo (the io.Reader counterpart of LoadModel). It reads r to EOF:
// the stream must hold exactly one model.
func ReadModel(r io.Reader) (*Model, error) { return core.ReadModel(r) }

// Predictor is an immutable, goroutine-safe serving handle over a fitted
// model: Predict reconstructs one cell without allocating in steady state
// (per-goroutine scratch comes from a sync.Pool), PredictBatch fans a batch
// out across workers, and PredictChecked returns ErrBadIndex on malformed
// input instead of panicking — the entry point for untrusted network
// traffic. Build one with NewPredictor.
type Predictor = core.Predictor

// NewPredictor snapshots a fitted model into a Predictor that is safe for
// concurrent use from any number of goroutines. Its predictions are
// bit-identical to m.Predict.
func NewPredictor(m *Model) *Predictor { return core.NewPredictor(m) }

// ErrBadIndex is returned by Predictor.PredictChecked when an index does
// not address a cell of the served model (wrong number of modes, or a
// coordinate out of range), and by Recommender.TopK when a fixed coordinate
// is out of range.
var ErrBadIndex = core.ErrBadIndex

// ErrBadQuery is returned by Recommender.TopK for a malformed query shape:
// wrong number of modes, a free mode outside [0,N), or k < 1.
var ErrBadQuery = core.ErrBadQuery

// Recommender answers top-K queries over one mode of a fitted model: fix
// every mode but one (e.g. (user, ·, time)) and get the K highest-predicted
// candidates of the free mode. It contracts the core with the fixed factor
// rows once per query and scores all candidates as a dense sweep with a
// bounded heap — O(|G|·N + I·J) instead of the O(I·|G|·N) of calling
// Predict per candidate. TopKExcluding additionally skips an exclusion set
// (e.g. the items the user already rated). Derive one with
// Predictor.Recommender(); it shares the predictor's immutable snapshot and
// is safe for concurrent use.
type Recommender = core.Recommender

// Rec is one recommendation returned by Recommender.TopK: a candidate index
// of the free mode and its predicted value.
type Rec = core.Rec

// Concept is a discovered cluster over one mode's indices (Section V,
// Table V).
type Concept = discovery.Concept

// Relation is a discovered association between factor columns weighted by a
// core entry (Section V, Table VI).
type Relation = discovery.Relation

// Concepts clusters the rows of factor matrix A(mode) into k concepts with
// k-means, returning members ranked by representativeness (topPerConcept
// bounds each list; 0 means all).
func Concepts(m *Model, mode, k, topPerConcept int, seed int64) ([]Concept, error) {
	return discovery.Concepts(m, mode, k, topPerConcept, rand.New(rand.NewSource(seed)))
}

// Relations returns the topK strongest relations in the model's core with
// the topLoad highest-loading indices per mode.
func Relations(m *Model, topK, topLoad int) []Relation {
	return discovery.Relations(m, topK, topLoad)
}

// CPConfig configures the companion CP decomposition (see DecomposeCP).
type CPConfig = cp.Config

// CPModel is a fitted CP decomposition.
type CPModel = cp.Model

// DecomposeCP fits a rank-R CANDECOMP/PARAFAC model to the observed entries
// of x with the row-wise ALS of Shin et al. (reference [24] of the paper) —
// the special case of Tucker with a super-diagonal core, useful when the
// full Jᴺ core is unnecessary.
func DecomposeCP(x *Tensor, cfg CPConfig) (*CPModel, error) { return cp.Decompose(x, cfg) }

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mat"
)

// ErrBadIndex reports a prediction index that does not address a cell of the
// served model: wrong number of modes, or a coordinate outside [0, In). It is
// the sentinel network-facing callers match on to map malformed input to a
// client error (HTTP 400) instead of a process crash.
var ErrBadIndex = errors.New("core: invalid prediction index")

// Predictor is the serving-side view of a fitted Model: an immutable handle
// that reconstructs tensor cells by Eq. (4), safe for concurrent use by any
// number of goroutines.
//
// NewPredictor deep-copies the model's factors and core, so the predictor's
// answers cannot change under a caller's feet even if the source Model is
// mutated afterwards. Per-call scratch (the factor-row view buffer) comes
// from a sync.Pool, so steady-state Predict does not allocate; PredictBatch
// fans a batch out across worker goroutines for throughput.
//
// Predictions are bit-identical to Model.Predict on the same model: both run
// the same kernel over identical float64 values in identical order.
type Predictor struct {
	factors []*mat.Dense
	core    *CoreTensor
	dims    []int
	workers int
	pool    *sync.Pool
}

// predictScratch is the per-call workspace: one factor-row pointer per mode
// and the contraction kernel's scratch — a Kronecker buffer followed by one
// δ.
type predictScratch struct {
	rows [][]float64
	buf  []float64
}

// newScratchPool returns the pool of per-call workspaces for p. The δ part
// is sized by the widest factor that has rows: Predict's δ is of the last
// mode and a TopK's of its free mode, and neither runs for a mode without
// rows, so a model file's declared width for such a mode sizes nothing.
func newScratchPool(p *Predictor) *sync.Pool {
	size := p.core.kronMax
	for _, a := range p.factors {
		if a.Rows() > 0 {
			size = max(size, p.core.kronMax+a.Cols())
		}
	}
	order := len(p.factors)
	return &sync.Pool{New: func() interface{} {
		return &predictScratch{rows: make([][]float64, order), buf: make([]float64, size)}
	}}
}

// NewPredictor builds a concurrent-safe predictor from a fitted model,
// snapshotting its factors and core. Batch prediction uses up to
// runtime.GOMAXPROCS(0) workers; see WithWorkers to override.
func NewPredictor(m *Model) *Predictor {
	order := len(m.Factors)
	factors := make([]*mat.Dense, order)
	dims := make([]int, order)
	for k, a := range m.Factors {
		factors[k] = a.Clone()
		dims[k] = a.Rows()
	}
	p := &Predictor{
		factors: factors,
		core:    m.Core.Clone(),
		dims:    dims,
		workers: runtime.GOMAXPROCS(0),
	}
	p.pool = newScratchPool(p)
	return p
}

// NewPredictorShared builds a predictor that aliases the model's factors and
// core instead of deep-copying them — the zero-copy path for models backed by
// read-only file mappings, where a clone would pull the whole model onto the
// heap and defeat the mapping. The predictor never writes through the model
// (Predict/TopK only read factor rows and core entries), but the caller must
// guarantee nothing else mutates the model while the predictor lives. The
// models the serve layer shares satisfy this by construction. A loaded model
// is only ever resumed through a deep copy (ResumeFitter). A Fitter.Snapshot
// views the fitter's live arrays, and the fitter never changes a row below a
// published view in place: fold-ins append past its end, and a refit first
// moves the fitter onto private copies. Predictions are bit-identical to
// NewPredictor on the same model.
func NewPredictorShared(m *Model) *Predictor {
	order := len(m.Factors)
	factors := make([]*mat.Dense, order)
	dims := make([]int, order)
	for k, a := range m.Factors {
		factors[k] = a
		dims[k] = a.Rows()
	}
	p := &Predictor{
		factors: factors,
		core:    m.Core,
		dims:    dims,
		workers: runtime.GOMAXPROCS(0),
	}
	p.pool = newScratchPool(p)
	return p
}

// WithWorkers returns a predictor that uses n workers for PredictBatch
// (n < 1 means serial). The returned predictor shares the immutable factor
// and core snapshots — and the scratch pool — with the receiver, so deriving
// differently-parallel views of one model is free.
func (p *Predictor) WithWorkers(n int) *Predictor {
	if n < 1 {
		n = 1
	}
	q := *p
	q.workers = n
	return &q
}

// Order returns the tensor order N.
func (p *Predictor) Order() int { return len(p.factors) }

// Dims returns a copy of the mode lengths I1..IN the predictor can address.
func (p *Predictor) Dims() []int { return append([]int(nil), p.dims...) }

// ValidateIndex reports whether idx addresses a cell of the served model:
// exactly one coordinate per mode, each within [0, In). A non-nil result
// wraps ErrBadIndex and names the offending mode and bound.
func (p *Predictor) ValidateIndex(idx []int) error {
	if len(idx) != len(p.dims) {
		return fmt.Errorf("%w: index has %d modes, model has %d", ErrBadIndex, len(idx), len(p.dims))
	}
	for k, i := range idx {
		if i < 0 || i >= p.dims[k] {
			return fmt.Errorf("%w: index %d out of range [0,%d) in mode %d", ErrBadIndex, i, p.dims[k], k)
		}
	}
	return nil
}

// checkIndex panics with a descriptive message on a malformed multi-index;
// in-process callers get the precise coordinate instead of a bare
// slice-bounds panic from deep inside the kernel. Network-facing callers
// should use PredictChecked / ValidateIndex instead.
func (p *Predictor) checkIndex(idx []int) {
	if err := p.ValidateIndex(idx); err != nil {
		panic(err.Error())
	}
}

// Predict reconstructs the value at multi-index idx by Eq. (4). It is safe
// for concurrent use and does not allocate in steady state.
func (p *Predictor) Predict(idx []int) float64 {
	p.checkIndex(idx)
	s := p.pool.Get().(*predictScratch)
	v := p.predictInto(s, idx)
	p.pool.Put(s)
	return v
}

// PredictChecked is Predict for untrusted input: a malformed index returns a
// wrapped ErrBadIndex instead of panicking, so a serving layer can answer a
// bad request with a client error while the process keeps running.
func (p *Predictor) PredictChecked(idx []int) (float64, error) {
	if err := p.ValidateIndex(idx); err != nil {
		return 0, err
	}
	s := p.pool.Get().(*predictScratch)
	v := p.predictInto(s, idx)
	p.pool.Put(s)
	return v, nil
}

func (p *Predictor) predictInto(s *predictScratch, idx []int) float64 {
	rows := s.rows
	for k, a := range p.factors {
		rows[k] = a.Row(idx[k])
	}
	return predictWithRows(p.core, rows, s.buf)
}

// minBatchParallel is the batch size below which the goroutine fan-out costs
// more than it saves and PredictBatch runs serially.
const minBatchParallel = 64

// PredictBatch reconstructs every multi-index in idxs and returns the
// predictions in matching order. Large batches are split across the
// predictor's workers (static split: per-item cost is uniform, unlike the
// skewed row updates of fitting); each worker reuses one pooled scratch for
// its whole share. Safe for concurrent use alongside Predict and other
// PredictBatch calls.
func (p *Predictor) PredictBatch(idxs [][]int) []float64 {
	for _, idx := range idxs {
		p.checkIndex(idx)
	}
	return p.predictBatch(idxs)
}

// PredictBatchChecked is PredictBatch for untrusted input: every index is
// validated up front and the first malformed one is reported as a wrapped
// ErrBadIndex naming its position, instead of a panic. Validation happens
// exactly once — the scoring pass trusts it — so checked batches cost the
// same as PredictBatch.
func (p *Predictor) PredictBatchChecked(idxs [][]int) ([]float64, error) {
	for i, idx := range idxs {
		if err := p.ValidateIndex(idx); err != nil {
			return nil, fmt.Errorf("item %d: %w", i, err)
		}
	}
	return p.predictBatch(idxs), nil
}

// predictBatch is the shared scoring pass; indices must already be
// validated.
func (p *Predictor) predictBatch(idxs [][]int) []float64 {
	out := make([]float64, len(idxs))
	n := len(idxs)
	if n == 0 {
		return out
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minBatchParallel {
		s := p.pool.Get().(*predictScratch)
		for i, idx := range idxs {
			out[i] = p.predictInto(s, idx)
		}
		p.pool.Put(s)
		return out
	}

	scratches := make([]*predictScratch, workers)
	for t := range scratches {
		scratches[t] = p.pool.Get().(*predictScratch)
	}
	runIndexed(workers, ScheduleStatic, n, func(tid, i int) {
		out[i] = p.predictInto(scratches[tid], idxs[i])
	})
	for _, s := range scratches {
		p.pool.Put(s)
	}
	return out
}

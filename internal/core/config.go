// Package core implements the paper's primary contribution: P-Tucker, a
// scalable Tucker factorization for sparse tensors based on alternating least
// squares with a fully parallel row-wise update rule (Algorithms 2 and 3),
// together with its two time-optimized variants, P-Tucker-Cache
// (memoization of intermediate products, Algorithm 3 lines 1-4/16-19) and
// P-Tucker-Approx (truncation of "noisy" core entries by partial
// reconstruction error, Algorithm 4).
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/tensor"
)

// Method selects which member of the P-Tucker family runs.
type Method int

const (
	// PTucker is the default memory-optimized algorithm: O(T·J²)
	// intermediate memory, O(N·I·J³ + N²·|Ω|·Jᴺ) time per iteration.
	PTucker Method = iota
	// PTuckerCache trades memory for speed: it caches the per-(entry, core
	// cell) products in the table Pres (O(|Ω|·|G|) memory) so δ updates cost
	// O(1) instead of O(N), giving O(N·I·J³ + N·|Ω|·Jᴺ) time.
	PTuckerCache
	// PTuckerApprox truncates the top-p fraction of core entries ranked by
	// partial reconstruction error R(β) after every iteration, shrinking |G|
	// and therefore per-iteration time, at a small accuracy cost.
	PTuckerApprox
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case PTucker:
		return "P-Tucker"
	case PTuckerCache:
		return "P-Tucker-Cache"
	case PTuckerApprox:
		return "P-Tucker-Approx"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// known reports whether m names one of the three methods.
func (m Method) known() bool { return m >= PTucker && m <= PTuckerApprox }

// Scheduling selects how factor-matrix rows are distributed over threads
// (Section III-D). Dynamic scheduling corrects the per-row workload imbalance
// caused by skewed |Ω(n)[in]| and is the paper's default; Static is the
// "naive parallelization" it is compared against (Section IV-D).
type Scheduling int

const (
	// ScheduleDynamic hands out fixed-size chunks of rows from a shared
	// atomic counter, the goroutine analog of OpenMP schedule(dynamic).
	ScheduleDynamic Scheduling = iota
	// ScheduleStatic pre-splits rows into T contiguous blocks.
	ScheduleStatic
)

// String names the scheduling policy.
func (s Scheduling) String() string {
	if s == ScheduleStatic {
		return "static"
	}
	return "dynamic"
}

// known reports whether s names one of the two policies.
func (s Scheduling) known() bool { return s == ScheduleDynamic || s == ScheduleStatic }

// Config holds the hyper-parameters of a factorization run. The zero value
// is not usable; fill Ranks and call Validate, or use Defaults.
type Config struct {
	// Ranks are the core tensor dimensionalities J1..JN; len(Ranks) must
	// equal the input tensor order.
	Ranks []int
	// Lambda is the L2 regularization weight λ of Eq. (6). The paper's
	// default is 0.01.
	Lambda float64
	// MaxIters bounds the ALS iterations. The paper's default is 20.
	MaxIters int
	// Tol stops iteration when the relative change of the reconstruction
	// error between iterations drops below it. Zero disables the check and
	// runs exactly MaxIters iterations.
	Tol float64
	// Threads is the worker count T. Zero means runtime.GOMAXPROCS(0).
	Threads int
	// Method selects P-Tucker, P-Tucker-Cache, or P-Tucker-Approx.
	Method Method
	// TruncationRate is the per-iteration fraction p of live core entries
	// removed by P-Tucker-Approx (0 < p < 1). The paper's default is 0.2.
	TruncationRate float64
	// Scheduling selects the row distribution policy.
	Scheduling Scheduling
	// Seed drives the random initialization of factors and core; runs with
	// equal seeds are bit-for-bit reproducible.
	Seed int64
	// Sparsify, when positive, prunes low-responsibility core entries after
	// the QR finalization (VeST-style; see PAPERS.md): live entries are
	// ranked by partial reconstruction error R(β) (Eq. 13, most-hurtful
	// first) and the largest prune count whose reconstruction error stays
	// within (1+Sparsify)× the pre-prune error is removed. The budget is
	// checked against SparsifyHoldout when set, otherwise against the
	// training set. The value is the relative RMSE-degradation budget — 0.05
	// allows a 5% error increase. Zero disables pruning. Fitter.Refit runs
	// the same pruning, so background refits of a sparsified model re-prune.
	Sparsify float64
	// SparsifyHoldout optionally supplies the held-out set the Sparsify
	// budget is checked against, so pruning is gated on generalization
	// rather than training fit. Like OnIteration it is fit-time input, not
	// model data: it is never serialized, and a snapshot/loaded model's
	// config carries nil. Its order must match the training tensor's and no
	// mode may exceed the training tensor's dimensionality.
	SparsifyHoldout *tensor.Coord
	// OnIteration, when non-nil, is called after every ALS iteration with
	// that iteration's statistics — the observability hook for streaming
	// progress, custom stopping rules, and checkpoint triggers. Returning
	// ErrStopIteration ends the fit cleanly after the current iteration:
	// the model is still finalized (QR + core rotation) and returned with a
	// nil error, so a caller can stop on its own criterion and SaveModel
	// the result. Any other error aborts the fit and is returned wrapped.
	// The hook runs on the fitting goroutine between iterations (no factor
	// updates are concurrent with it), so long callbacks extend iteration
	// wall-clock time.
	OnIteration func(IterStats) error
}

// Defaults returns the paper's default configuration for the given core
// ranks: λ=0.01, 20 iterations, p=0.2, dynamic scheduling, all cores.
func Defaults(ranks []int) Config {
	r := make([]int, len(ranks))
	copy(r, ranks)
	return Config{
		Ranks:          r,
		Lambda:         0.01,
		MaxIters:       20,
		Tol:            1e-4,
		Threads:        0,
		Method:         PTucker,
		TruncationRate: 0.2,
		Scheduling:     ScheduleDynamic,
	}
}

// ErrStopIteration is the sentinel an OnIteration hook returns to stop the
// fit early without signalling failure, in the spirit of fs.SkipDir: the
// decomposition finalizes the factors fitted so far and returns the model
// with a nil error.
var ErrStopIteration = errors.New("core: stop iteration")

// Errors returned by Validate and Decompose.
var (
	ErrNoRanks        = errors.New("core: config has no ranks")
	ErrBadRank        = errors.New("core: ranks must be positive")
	ErrBadLambda      = errors.New("core: lambda must be finite and non-negative")
	ErrBadIters       = errors.New("core: max iterations must be positive")
	ErrBadTol         = errors.New("core: tolerance must be finite and non-negative")
	ErrBadTruncation  = errors.New("core: truncation rate must be finite and lie in (0,1)")
	ErrOrderMismatch  = errors.New("core: tensor order does not match number of ranks")
	ErrEmptyTensor    = errors.New("core: tensor has no observed entries")
	ErrRankExceedsDim = errors.New("core: rank exceeds the matching tensor dimensionality")
	ErrBadSparsify    = errors.New("core: invalid sparsify option")
	ErrBadMethod      = errors.New("core: unknown method")
	ErrBadScheduling  = errors.New("core: unknown scheduling policy")
)

// Validate checks the configuration against a tensor of the given shape and
// returns a normalized copy with a zero Threads resolved to its default. It
// is pure: the receiver — including its Ranks slice — is never modified, so
// a caller's Config can be reused and compared across fits without surprise
// rewrites. Every float knob must be finite: a NaN slips past any range
// comparison, and configs also arrive inside model files (ResumeFitter).
// Method and Scheduling must name a defined value; an unknown one would
// otherwise run as plain P-Tucker under dynamic scheduling.
func (c Config) Validate(dims []int) (Config, error) {
	if len(c.Ranks) == 0 {
		return c, ErrNoRanks
	}
	if len(c.Ranks) != len(dims) {
		return c, fmt.Errorf("%w: order %d vs %d ranks", ErrOrderMismatch, len(dims), len(c.Ranks))
	}
	for n, j := range c.Ranks {
		if j <= 0 {
			return c, fmt.Errorf("%w: J%d = %d", ErrBadRank, n+1, j)
		}
		if j > dims[n] {
			return c, fmt.Errorf("%w: J%d = %d > I%d = %d", ErrRankExceedsDim, n+1, j, n+1, dims[n])
		}
	}
	if !c.Method.known() {
		return c, fmt.Errorf("%w: %v", ErrBadMethod, c.Method)
	}
	if !c.Scheduling.known() {
		return c, fmt.Errorf("%w: Scheduling(%d)", ErrBadScheduling, int(c.Scheduling))
	}
	if !finite(c.Lambda) || c.Lambda < 0 {
		return c, fmt.Errorf("%w: %v", ErrBadLambda, c.Lambda)
	}
	if c.MaxIters <= 0 {
		return c, fmt.Errorf("%w: %d", ErrBadIters, c.MaxIters)
	}
	if !finite(c.Tol) || c.Tol < 0 {
		return c, fmt.Errorf("%w: %v", ErrBadTol, c.Tol)
	}
	if !finite(c.TruncationRate) || c.Method == PTuckerApprox && (c.TruncationRate <= 0 || c.TruncationRate >= 1) {
		return c, fmt.Errorf("%w: p = %v", ErrBadTruncation, c.TruncationRate)
	}
	if !finite(c.Sparsify) || c.Sparsify < 0 {
		return c, fmt.Errorf("%w: budget %v must be finite and non-negative", ErrBadSparsify, c.Sparsify)
	}
	if h := c.SparsifyHoldout; h != nil {
		if h.Order() != len(dims) {
			return c, fmt.Errorf("%w: holdout has order %d, tensor has %d", ErrBadSparsify, h.Order(), len(dims))
		}
		for k := range dims {
			if h.Dim(k) > dims[k] {
				return c, fmt.Errorf("%w: holdout mode %d has dimension %d but the tensor covers only %d",
					ErrBadSparsify, k, h.Dim(k), dims[k])
			}
		}
	}
	c.Ranks = append([]int(nil), c.Ranks...)
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

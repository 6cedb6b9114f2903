package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tensor"
)

// errObserveInternal marks observe failures that are the server's fault —
// the handler answers 500, not 400.
var errObserveInternal = errors.New("serve: internal observe failure")

// online is the server's mutable fitting state: a Fitter resumed from the
// serving snapshot that absorbs /v1/observe traffic. The Fitter itself is
// not concurrent-safe; mutations happen under mu. A background refit takes
// the serving fitter for its whole compute without holding mu and leaves
// fitter nil, so the next observe resumes a stand-in from the served snapshot
// and carries on exactly as between refits — plan, journal, apply, publish.
// When the refit returns, its catch-up replays what the stand-in applied
// into the refit's fitter, which then serves again.
type online struct {
	mu      sync.Mutex
	fitter  *core.Fitter // nil: the next observe resumes one from the served snapshot
	pending int          // observations accepted since the last refit

	// refitting tracks the single in-flight background refit, from its
	// trigger until its compaction is done; refits and compactions are both
	// gated on it, so the stand-in's partial training set never reaches
	// either. refitCancel lets a reload abort an abandoned compute within one
	// ALS iteration instead of letting it burn cores to produce a discarded
	// result.
	refitting   bool
	refitCancel context.CancelFunc

	// standIn is true while a refit computes: each batch an observe applies
	// meanwhile is also logged in backlog, in journal order, for the
	// refit's catch-up.
	standIn bool
	backlog []store.Record

	// gen counts superseding events (reloads). Off-lock data-dir writers
	// (compaction) capture it with their inputs; the generation check under
	// Server.durMu keeps a compaction captured before a reload from
	// overwriting the re-based directory. A refit captures it at its trigger
	// and abandons its result when a reload moved it on.
	gen int64
}

// --- request/response shapes ---

type observeRequest struct {
	Observations []core.Observation `json:"observations"`
}

type foldResult struct {
	Mode  int `json:"mode"`
	Index int `json:"index"`
	NNZ   int `json:"nnz"`
}

type observeResponse struct {
	Appended       int          `json:"appended"`
	Folded         []foldResult `json:"folded,omitempty"`
	Dims           []int        `json:"dims"`
	Pending        int          `json:"pending"`
	RefitTriggered bool         `json:"refit_triggered,omitempty"`
}

// handleObserve is POST /v1/observe: append observations to the online
// training set, fold brand-new indices in as fresh factor rows, and
// atomically publish the grown model — in-flight predictions finish on the
// snapshot they started with, the same discipline as /v1/reload. With a data
// directory configured, every accepted batch is journaled before it is
// applied, so a crash replays it. When Options.RefitAfter observations have
// accumulated, a background warm refit is triggered and its result swapped
// in the same way; batches arriving during the refit apply at once, not
// after it.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	s.met.requests("observe").Add(1)
	var req observeRequest
	if !s.post(w, r, "observe", &req) {
		return
	}
	if len(req.Observations) == 0 {
		s.badRequest(w, "observe", fmt.Errorf("no observations"))
		return
	}
	resp, err := s.observe(r.Context(), req.Observations)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, errObserveInternal):
		s.met.errors("observe").Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// The timeout middleware already answered 503; nothing was applied.
		s.met.errors("observe").Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	default:
		s.badRequest(w, "observe", err)
	}
}

// observe validates, journals, applies, and publishes one batch of
// observations.
func (s *Server) observe(ctx context.Context, obs []core.Observation) (*observeResponse, error) {
	o := &s.online
	o.mu.Lock()
	defer o.mu.Unlock()

	// The lock may have been held for a while; if the request's deadline
	// passed meanwhile the client was already told 503 — applying now would
	// make a retry double-count the observations, so the batch is dropped
	// whole instead.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.fitter == nil {
		// First observe since startup, a reload, or a refit trigger: resume
		// from exactly what is being served.
		f, err := s.resumeFitter(s.snapshot().model)
		if err != nil {
			return nil, fmt.Errorf("%w: resume fitter: %v", errObserveInternal, err)
		}
		o.fitter = f
	}
	f := o.fitter

	// Plan first (pure, against a simulated shape), apply second: a request
	// with any unplaceable observation is rejected whole, so a 400 never
	// leaves the model half-updated.
	plan, err := planObservations(f.Dims(), obs)
	if err != nil {
		return nil, err
	}

	// Journal before applying: once the batch mutates the fitter it must be
	// recoverable, so a journal failure rejects the batch untouched.
	seq, err := s.journalAppend(obs)
	if err != nil {
		return nil, err
	}

	resp, err := s.applyPlan(f, plan, true)
	if err != nil {
		return nil, err
	}
	s.met.observations.Add(int64(len(obs)))
	if o.standIn {
		o.backlog = append(o.backlog, store.Record{Seq: seq, Observations: obs})
	}

	// Publish grown models: predictions and recommendations for folded-in
	// rows work the moment this returns. Append-only batches change nothing
	// a predictor can see (they take effect at the next refit), so the
	// current snapshot — and its file provenance on /healthz — stays put.
	if len(resp.Folded) > 0 {
		s.install(f.Snapshot())
	}
	// The record is applied; replication may now stream it (the snapshot
	// store above happens first, still under mu, so a bootstrap capture
	// always pairs the sequence with a model that reflects it).
	if seq > 0 {
		s.repl.advance(seq)
	}

	o.pending += len(obs)
	resp.Dims = f.Dims()
	if s.opts.RefitAfter > 0 && o.pending >= s.opts.RefitAfter && !o.refitting {
		s.triggerRefit()
		resp.RefitTriggered = true
	}
	// Size-triggered journal compaction (no refit): checked after the refit
	// trigger so a batch that just started a refit defers to that refit's own
	// compaction instead of racing it.
	s.maybeCompactBySize(f)
	resp.Pending = o.pending
	return resp, nil
}

// resumeFitter wraps m in a Fitter configured for this server: the model's
// own config, with Options.Sparsify overriding the pruning budget and the
// held-out set (when loaded) attached as the budget's scoring set — so
// background refits of a sparsified deployment re-prune, gated on
// generalization when a holdout is available. Threads is reset to 0 (this
// host's GOMAXPROCS): the count a model file carries was the writing host's,
// and it sizes every refit's per-thread buffers.
func (s *Server) resumeFitter(m *core.Model) (*core.Fitter, error) {
	cfg := m.Config
	cfg.Threads = 0
	if s.opts.Sparsify > 0 {
		cfg.Sparsify = s.opts.Sparsify
	}
	if cfg.Sparsify > 0 && s.holdout != nil {
		cfg.SparsifyHoldout = s.holdout
	}
	// Surface refit progress on /metrics: OnIteration runs between ALS
	// iterations on the refit goroutine, so the gauges track the in-flight
	// refit live. (It is fit-time input, never serialized, so a resumed
	// model always needs it re-attached here.)
	cfg.OnIteration = func(st core.IterStats) error {
		s.met.refitIter.Store(int64(st.Iter))
		s.met.refitFitError.Store(math.Float64bits(st.Error))
		return nil
	}
	return core.ResumeFitter(m, cfg)
}

// triggerRefit hands the serving fitter to a background warm refit. The
// caller holds online.mu and has already checked that no refit is in
// flight; pending resets because the refit will absorb it. The served
// snapshot reflects the handed-over fitter, so the stand-in the next observe
// resumes from it starts where the refit's catch-up will.
func (s *Server) triggerRefit() {
	o := &s.online
	f := o.fitter
	o.fitter = nil
	o.refitting = true
	o.standIn = true
	absorbed := o.pending
	o.pending = 0
	s.met.refitState.Store(refitFitting)
	s.met.refitIter.Store(0)
	s.event(slog.LevelInfo, "refit started", "observations", absorbed, "dims", fmt.Sprint(f.Dims()))
	// The refit's context chains off the server lifetime (Close aborts
	// it) and is additionally cancellable by a superseding reload.
	rctx, cancel := context.WithCancel(s.life)
	o.refitCancel = cancel
	go s.backgroundRefit(rctx, f, o.gen, cancel)
}

// applyPlan runs one planned batch against the fitter; the caller holds
// online.mu (or is the single-threaded startup replay). live=false
// suppresses the traffic counters during replay and catch-up. On an
// (unreachable if the plan is sound) apply failure, whatever did fold is
// published so the served snapshot never diverges from the fitter, and the
// fault is reported as the server's own (500, not 400).
func (s *Server) applyPlan(f *core.Fitter, plan *obsPlan, live bool) (*observeResponse, error) {
	resp := &observeResponse{Appended: len(plan.appends)}
	for _, g := range plan.folds {
		t0 := time.Now()
		if _, err := f.FoldIn(g.mode, g.obs); err != nil {
			if len(resp.Folded) > 0 {
				s.install(f.Snapshot())
			}
			return nil, fmt.Errorf("%w: fold-in mode %d: %v", errObserveInternal, g.mode, err)
		}
		resp.Folded = append(resp.Folded, foldResult{Mode: g.mode, Index: g.index, NNZ: len(g.obs)})
		if live {
			s.met.foldIns.Add(1)
			s.met.foldInDur.ObserveSince(t0)
		}
	}
	if len(plan.appends) > 0 {
		if err := f.Observe(plan.appends); err != nil {
			if len(resp.Folded) > 0 {
				s.install(f.Snapshot())
			}
			return nil, fmt.Errorf("%w: append: %v", errObserveInternal, err)
		}
	}
	return resp, nil
}

// replayed tallies what one replay applied.
type replayed struct{ records, observations, folds int }

// replay applies journal records to f, in order, through the plan/apply path
// live observes take, skipping records below from (a training snapshot or a
// replica model already holds them). It counts nothing as live traffic and
// leaves publishing to the caller, which publishes once at the end; it stops
// at the first record that cannot be applied. records has the shape of
// store.Journal.Replay.
func (s *Server) replay(f *core.Fitter, from uint64, records func(func(store.Record) error) error) (replayed, error) {
	var n replayed
	err := records(func(rec store.Record) error {
		if rec.Seq < from {
			return nil
		}
		plan, err := planObservations(f.Dims(), rec.Observations)
		if err != nil {
			return fmt.Errorf("journal record %d: %w", rec.Seq, err)
		}
		resp, err := s.applyPlan(f, plan, false)
		if err != nil {
			return fmt.Errorf("journal record %d: %w", rec.Seq, err)
		}
		n.records++
		n.observations += len(rec.Observations)
		n.folds += len(resp.Folded)
		return nil
	})
	return n, err
}

// backgroundRefit runs a warm-started Refit over everything the fitter has
// accumulated, catches it up with the batches the stand-in applied
// meanwhile, and publishes the result once. It owns the fitter for the
// compute but does NOT hold online.mu — observes go to the stand-in instead
// of blocking, and prediction traffic is unaffected as always. After the
// publish it compacts the journal into a fresh snapshot. If a reload
// replaced the online state while the refit ran, the refit is abandoned —
// the reloaded model wins. The refit runs under the server's lifetime
// context, so Close stops it within one ALS iteration instead of letting it
// outlive the server.
func (s *Server) backgroundRefit(ctx context.Context, f *core.Fitter, gen int64, cancel context.CancelFunc) {
	defer cancel()
	t0 := time.Now()
	o := &s.online
	m, err := f.Refit(ctx, nil)

	o.mu.Lock()
	if o.gen != gen {
		// A reload superseded this refit; it already dropped the backlog
		// along with the online state.
		o.refitting = false
		o.refitCancel = nil
		s.met.refitState.Store(refitIdle)
		o.mu.Unlock()
		s.event(slog.LevelWarn, "refit abandoned", "reason", "superseded by reload", "duration", time.Since(t0))
		return
	}
	refitOK := err == nil
	if refitOK {
		s.met.refits.Add(1)
		s.met.refitState.Store(refitPublishing)
	} else if !errors.Is(err, context.Canceled) {
		s.met.refitErrors.Add(1)
	}
	refitErr := err

	// Catch up under mu: replay the backlog into the refit's fitter in
	// journal order, re-solving each folded row against the refit's factors,
	// then let that fitter serve again; the stand-in is dropped with its
	// partial training set. Every batch already applied cleanly to the
	// stand-in, which started from this fitter's shape, so a failure here is
	// unreachable; it is reported rather than wedging the refit.
	backlog := o.backlog
	caught, cerr := s.replay(f, 0, func(apply func(store.Record) error) error {
		for _, rec := range backlog {
			if err := apply(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr != nil {
		s.met.errors("observe").Add(1)
		s.event(slog.LevelError, "refit catch-up failed", "error", cerr)
	}
	o.fitter, o.standIn, o.backlog = f, false, nil

	var final *core.Model
	if refitOK || caught.folds > 0 {
		final = m
		if !refitOK || caught.folds > 0 {
			final = f.Snapshot()
		}
		s.install(final)
	}
	if refitOK {
		// The refit result is not derivable from the journal: followers
		// tailing the old generation must re-bootstrap. (A failed refit
		// whose catch-up folded rows is journal-derived — no bump.)
		s.repl.bumpGen()
	}

	// Capture what compaction needs while observes are blocked on mu, so
	// the journal cannot move: a deep copy of the training set and the exact
	// sequence it covers. The heavy work — holdout scoring, model save,
	// snapshot write — then runs off the lock; records appended meanwhile
	// have later sequences and survive the journal rotation.
	var compactX *tensor.Coord
	var covered uint64
	if refitOK && s.dir != nil {
		compactX = f.TrainingSet()
		covered = s.journal.LastSeq()
	}
	o.mu.Unlock()

	if final != nil {
		s.updateHoldout(final)
	}
	if compactX != nil {
		s.compact(final, compactX, covered, gen)
	}

	o.mu.Lock()
	o.refitting = false
	o.refitCancel = nil
	s.met.refitState.Store(refitIdle)
	o.mu.Unlock()

	elapsed := time.Since(t0)
	switch {
	case refitOK:
		s.met.refitLastSecs.Store(math.Float64bits(elapsed.Seconds()))
		s.event(slog.LevelInfo, "refit published", "duration", elapsed,
			"iterations", s.met.refitIter.Load(), "caught_up_folds", caught.folds,
			"core_nnz", final.Core.NNZ())
	case errors.Is(refitErr, context.Canceled):
		// The server is closing; the model keeps serving as-is.
		s.event(slog.LevelInfo, "refit cancelled", "duration", elapsed)
	default:
		// The inconsistency fix: a failed refit used to bump a counter and
		// say nothing. The fitter keeps serving its pre-refit state.
		s.event(slog.LevelError, "refit failed", "error", refitErr, "duration", elapsed)
	}
}

// install publishes m as the serving snapshot. The empty path records that
// the model was derived in memory (fold-in or refit), not read from a file.
func (s *Server) install(m *core.Model) {
	s.cur.Store(newSnapshot(m, "", s.opts.Workers, s.now()))
}

// --- observation planning ---

type foldGroup struct {
	mode  int
	index int
	obs   []core.Observation
}

type obsPlan struct {
	folds   []foldGroup
	appends []core.Observation
}

// planObservations partitions a request's observations into fold-in groups
// (one per brand-new row, in application order) and plain appends, against a
// simulated copy of dims — no model state is touched. Rules:
//
//   - An observation whose coordinates all address existing (or
//     earlier-folded) rows is an append.
//   - A new row enters as mode's next slice (index == current dim); all the
//     request's observations for it whose other coordinates exist by then
//     form its fold-in group.
//   - Chains are allowed: an observation pairing a new user with a new item
//     defers until one of the two rows is folded, then joins the other's
//     group (or becomes an append if both folds beat it).
//
// Any observation that can never be placed — a gap in the new indices, a
// wrong-order index — fails the whole batch.
func planObservations(dims []int, obs []core.Observation) (*obsPlan, error) {
	n := len(dims)
	sim := append([]int(nil), dims...)
	plan := &obsPlan{}

	remaining := make([]int, 0, len(obs))
	for i, o := range obs {
		if len(o.Index) != n {
			return nil, fmt.Errorf("observation %d: index has %d modes, model has %d", i, len(o.Index), n)
		}
		for k, c := range o.Index {
			if c < 0 {
				return nil, fmt.Errorf("observation %d: negative index %d in mode %d", i, c, k)
			}
		}
		remaining = append(remaining, i)
	}

	inRange := func(idx []int, skipMode int) bool {
		for k, c := range idx {
			if k != skipMode && c >= sim[k] {
				return false
			}
		}
		return true
	}

	for len(remaining) > 0 {
		progress := false

		// Everything fully addressable now is an append.
		next := remaining[:0]
		for _, i := range remaining {
			if inRange(obs[i].Index, -1) {
				plan.appends = append(plan.appends, obs[i])
				progress = true
				continue
			}
			next = append(next, i)
		}
		remaining = next

		// Fold the lowest mode whose next slice has a complete group.
		for mode := 0; mode < n; mode++ {
			var g []core.Observation
			var keep []int
			for _, i := range remaining {
				o := obs[i]
				if o.Index[mode] == sim[mode] && inRange(o.Index, mode) {
					g = append(g, o)
					continue
				}
				keep = append(keep, i)
			}
			if len(g) == 0 {
				continue
			}
			plan.folds = append(plan.folds, foldGroup{mode: mode, index: sim[mode], obs: g})
			sim[mode]++
			remaining = keep
			progress = true
			break
		}

		if !progress {
			i := remaining[0]
			return nil, fmt.Errorf("observation %d: index %v cannot be placed: new rows must extend a mode contiguously (next new slice per mode: %v)",
				i, obs[i].Index, sim)
		}
	}
	return plan, nil
}

package serve

import (
	"crypto/subtle"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Durability wiring. With Options.DataDir set, the server keeps three
// artifacts in the directory (see package store):
//
//   - observations.ptkj — every accepted /v1/observe batch, journaled before
//     it is applied;
//   - training.ptkt — the accumulated training set, snapshotted at each
//     compaction with the journal sequence it covers;
//   - model.ptkm — the persisted base model, written at each compaction and
//     at reload re-bases. When present it supersedes Options.ModelPath at
//     startup: the data directory holds the newest durable state.
//
// Startup replays the journal's uncovered records through the same
// plan/apply path live traffic takes. Observation application draws no
// randomness, so a process killed mid-stream and restarted serves
// bit-identical predictions to one that never crashed. After a successful
// background refit the journal is compacted: model and training set are
// persisted, and the journal is rotated empty (sequence numbers continue, so
// a crash between the two commits cannot double-apply).

// initDurable opens the data directory's journal, restores the online
// fitter from the training sidecar, and replays uncovered journal records.
// Called once from New, after the initial snapshot is installed; s.dir is
// already set (the initial model may have come from it).
func (s *Server) initDurable() error {
	if s.dir == nil {
		return nil
	}
	if s.dir.HasFollowerState() {
		return fmt.Errorf("serve: data dir %s belongs to a replication follower; a primary cannot start over it", s.dir.Path())
	}
	m := s.snapshot().model
	j, err := store.OpenJournal(s.dir.JournalPath(), m.Order(), s.opts.JournalSync)
	if err != nil {
		return err
	}
	// Replication identity: a fresh epoch every start (a restart may have
	// lost journal-tail records under a relaxed fsync policy, so followers
	// must re-bootstrap rather than trust continuity), generation 1 for
	// this process's first model.
	epoch, err := s.dir.NextEpoch()
	if err != nil {
		j.Close()
		return err
	}
	s.repl.epoch = epoch
	s.repl.gen.Store(1)
	if j.Recovered > 0 {
		s.event(slog.LevelWarn, "journal recovery dropped torn tail",
			"bytes", j.Recovered, "detail", "crash mid-write; every intact record replays")
	}
	// Fsync latency flows into the histogram from every append path —
	// SyncAlways appends, the SyncInterval flusher, and explicit Syncs alike.
	j.ObserveSync(s.met.journalFsyncDur.ObserveDuration)

	f, err := s.resumeFitter(m)
	if err != nil {
		j.Close()
		return fmt.Errorf("serve: resume fitter for replay: %w", err)
	}
	x, covered, err := s.dir.TrainingSnapshot()
	if err != nil {
		j.Close()
		return err
	}
	if x != nil {
		if err := f.AttachTrainingSet(x); err != nil {
			j.Close()
			return fmt.Errorf("serve: attach training snapshot: %w", err)
		}
	}

	n, err := s.replay(f, covered+1, j.Replay)
	if err != nil {
		j.Close()
		return fmt.Errorf("serve: %w", err)
	}

	s.journal = j
	s.online.fitter = f
	// Replayed observations were never refitted; they count toward the next
	// RefitAfter trigger like the live traffic they were.
	s.online.pending = n.observations
	s.durLastCovered = covered
	// Every surviving record is now reflected in the fitter (covered ones
	// via the training snapshot's model, the rest via the replay above).
	s.repl.appliedSeq.Store(j.LastSeq())
	if n.folds > 0 {
		s.install(f.Snapshot())
	}
	s.met.journalReplayed.Store(int64(n.records))
	if n.records > 0 {
		s.event(slog.LevelInfo, "journal replayed",
			"records", n.records, "observations", n.observations, "folds", n.folds, "covered", covered)
	}
	// Surviving records restart their age clock here: the journal does not
	// persist append times, so "older than CompactAge" is measured from this
	// boot for anything that was already on disk.
	if j.Len() > 0 {
		s.oldestUncovered.Store(s.now().UnixNano())
	}
	// A replay that alone reached the refit threshold means the crash (or
	// shutdown) interrupted a refit the live traffic had already earned;
	// retrigger it now instead of waiting for one more observe to tip it
	// over. The refit's own compaction supersedes a size-triggered one, and
	// startup stops being single-threaded here, so this path returns without
	// the unlocked compaction check below.
	if s.opts.RefitAfter > 0 && n.observations >= s.opts.RefitAfter {
		s.event(slog.LevelInfo, "resuming interrupted refit after replay",
			"observations", n.observations, "threshold", s.opts.RefitAfter)
		s.online.mu.Lock()
		s.triggerRefit()
		s.online.mu.Unlock()
		return nil
	}
	// A process restarted with an already-oversized journal (say it crashed
	// repeatedly before ever compacting) compacts right away instead of
	// waiting for the next observe. New is still single-threaded here.
	s.maybeCompactBySize(f)
	return nil
}

// journalAppend records one accepted batch and returns its assigned
// sequence; a nil journal (no data dir) is a no-op returning 0. The caller
// holds online.mu, so appends are totally ordered exactly as they are
// applied.
func (s *Server) journalAppend(obs []core.Observation) (uint64, error) {
	if s.journal == nil {
		return 0, nil
	}
	t0 := time.Now()
	seq, err := s.journal.Append(obs)
	if err != nil {
		return 0, fmt.Errorf("%w: journal: %v", errObserveInternal, err)
	}
	s.met.journalAppends.Add(1)
	s.met.journalAppendDur.ObserveSince(t0)
	// First uncovered record since the last compaction: start its age clock.
	s.oldestUncovered.CompareAndSwap(0, s.now().UnixNano())
	return seq, nil
}

// compact persists the post-refit state — model first, then the training
// snapshot + journal rotation as one CompactThrough — so a restart resumes
// from the refit instead of replaying the journal over the old base. It
// runs OFF the online lock: x is a deep copy covering exactly the records
// with Seq ≤ covered, and records appended while the writes run have later
// sequences and survive the rotation, so observes never stall behind
// compaction I/O. Failures are not fatal: the journal still holds every
// record, and replay over the previous snapshot reconstructs the same state.
func (s *Server) compact(m *core.Model, x *tensor.Coord, covered uint64, gen int64) {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if gen < s.durLastGen {
		// A reload re-based the directory after this compaction's inputs
		// were captured; writing them now would resurrect the superseded
		// state on the next restart.
		return
	}
	if covered < s.durLastCovered {
		// A compaction covering more of the journal already committed (a
		// size-triggered pass racing a refit's, in either order). Writing
		// this older capture would pair a training snapshot that lacks
		// records covered..durLastCovered with a journal that already
		// rotated them out — observations lost on the next replay.
		return
	}
	t0 := time.Now()
	if err := core.SaveModel(s.dir.ModelPath(), m); err != nil {
		s.event(slog.LevelError, "compaction failed",
			"stage", "persist model", "error", err, "detail", "journal kept; will replay on restart")
		s.met.compactionErrors.Add(1)
		return
	}
	if err := s.journal.CompactThrough(s.dir.TensorPath(), x, covered); err != nil {
		s.event(slog.LevelError, "compaction failed",
			"stage", "rotate journal", "error", err, "detail", "journal kept; will replay on restart")
		s.met.compactionErrors.Add(1)
		return
	}
	s.durLastCovered = covered
	s.met.compactions.Add(1)
	s.event(slog.LevelInfo, "journal compacted", "covered", covered, "duration", time.Since(t0))
	// Reset the age clock: clear first, then re-arm if records appended while
	// the writes ran are already waiting. An append racing this sequence
	// either arms the cleared clock itself (its CAS from 0 wins) or is seen
	// by the Len check — the clock can land a moment late, never stay stale.
	s.oldestUncovered.Store(0)
	if s.journal.Len() > 0 {
		s.oldestUncovered.CompareAndSwap(0, s.now().UnixNano())
	}
}

// maybeCompactBySize starts a background journal compaction — without a
// refit — once the journal file exceeds Options.CompactBytes. It closes the
// unbounded-journal gap for servers running with refits disabled; see
// compactInBackground. The caller holds online.mu (or is the
// single-threaded startup).
func (s *Server) maybeCompactBySize(f *core.Fitter) {
	if s.dir != nil && s.opts.CompactBytes > 0 && s.journal.Size() >= s.opts.CompactBytes {
		s.compactInBackground(f)
	}
}

// compactInBackground is the one capture behind the size and the age
// trigger, which only decide when to call it: the fitter's current grown
// model, a deep copy of its training set (the same covered-sequence container
// a refit's compaction uses) and the journal sequence they cover, taken
// under online.mu so they are consistent with each other. The writes run off
// the lock, and the covered records rotate out of the journal; a restart then
// loads the persisted model and replays only what arrived after the capture —
// bit-identical state, no refit required. A concurrent refit's compaction is
// ordered by durMu and the covered-sequence guard in compact.
//
// Nothing is captured while a refit is in flight: its own compaction, which
// also persists the refit's better model, is moments away, and until its
// catch-up the serving fitter is a stand-in holding only the batches since
// the trigger. Nor is anything captured without a fitter, with an empty
// journal (it is all header), or while another capture's writes still run
// (compactBusy).
func (s *Server) compactInBackground(f *core.Fitter) {
	if f == nil || s.online.refitting || s.journal.Len() == 0 || !s.compactBusy.CompareAndSwap(false, true) {
		return
	}
	m := f.Snapshot()
	x := f.TrainingSet()
	covered := s.journal.LastSeq()
	gen := s.online.gen
	go func() {
		defer s.compactBusy.Store(false)
		s.compact(m, x, covered, gen)
	}()
}

// ageCompactLoop drives CompactAge: a ticker at a fraction of the bound
// checks the oldest-uncovered clock until the server closes. Started by New
// only when a DataDir and a CompactAge are both configured.
func (s *Server) ageCompactLoop() {
	interval := s.opts.CompactAge / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.life.Done():
			return
		case <-t.C:
			s.compactByAge()
		}
	}
}

// compactByAge starts a background compaction (see compactInBackground)
// once the oldest uncovered journal record has waited longer than
// Options.CompactAge.
func (s *Server) compactByAge() {
	armed := s.oldestUncovered.Load()
	if armed == 0 || s.now().Sub(time.Unix(0, armed)) < s.opts.CompactAge {
		return
	}
	s.online.mu.Lock()
	defer s.online.mu.Unlock()
	s.compactInBackground(s.online.fitter)
}

// rebaseDurable resets the durable state around a committed reload: the
// journaled observations are superseded (a reload drops the online state,
// so a restart must not replay them), the training sidecar no longer
// describes the new model, and the new model becomes the persisted base.
// The ordering keeps every crash-exposed state consistent: journal first
// (worst case: the old base without its observations — exactly what the
// reload discarded anyway), sidecar second, model last (the commit). A
// failure mid-way is logged and counted, never propagated: the reload has
// already happened in memory, and aborting here could not un-happen it. The
// journal is poisoned instead — mixing pre-reload records (or an old base
// model) with records validated against the reloaded model would leave a
// directory whose replay cannot succeed, so further observes are refused
// (500) until an operator restarts or a later reload re-bases cleanly. The
// caller holds online.mu (so observes cannot journal a new-state record
// into the journal this is about to reset) and has bumped online.gen; the
// generation is recorded under durMu so an in-flight compaction captured
// before this reload skips its now-superseded write.
func (s *Server) rebaseDurable(m *core.Model, gen int64) {
	if s.dir == nil {
		return
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	s.durLastGen = gen
	// The reset discards everything journaled so far; record its sequence so
	// a stale compaction capture cannot re-cover rotated records.
	s.durLastCovered = s.journal.LastSeq()
	err := s.journal.Reset()
	// The reset discarded every journaled record; nothing uncovered remains
	// to age (the caller holds online.mu, so no observe can append yet).
	// The applied sequence holds at the journal tail — sequences continue
	// across the rotation, and followers re-bootstrap on the generation
	// bump regardless.
	s.repl.appliedSeq.Store(s.journal.LastSeq())
	s.oldestUncovered.Store(0)
	if err == nil {
		err = s.dir.RemoveTrainingTensor()
	}
	if err == nil {
		err = core.SaveModel(s.dir.ModelPath(), m)
	}
	if err != nil {
		s.event(slog.LevelError, "reload re-base failed", "error", err,
			"detail", "refusing further observes (journal poisoned) so the data dir cannot mix generations")
		s.met.rebaseErrors.Add(1)
		s.journal.Poison(err)
		return
	}
	s.event(slog.LevelInfo, "data dir re-based", "model", s.dir.ModelPath())
}

// --- held-out RMSE tracking ---

// loadHoldout loads the held-out tensor (text or binary, auto-detected)
// without scoring it; New scores the served model once startup replay has
// settled, so /metrics reports RMSE from the first scrape. Loading early
// lets resumed fitters attach the holdout as the Sparsify scoring set.
func (s *Server) loadHoldout() error {
	if s.opts.HoldoutPath == "" {
		return nil
	}
	m := s.snapshot().model
	x, err := tensor.ReadFile(s.opts.HoldoutPath, m.Order(), nil)
	if err != nil {
		return fmt.Errorf("serve: holdout: %w", err)
	}
	s.holdout = x
	return nil
}

// updateHoldout rescores the held-out set against m and publishes the gauge.
// Called with the initial model, after every refit swap, and after reloads.
func (s *Server) updateHoldout(m *core.Model) {
	if s.holdout == nil {
		return
	}
	s.met.holdoutRMSE.Store(math.Float64bits(m.RMSE(s.holdout)))
	s.met.holdoutSet.Store(true)
}

// --- bearer-token auth ---

// requireAuth guards a mutating endpoint with the configured bearer token:
// requests must carry "Authorization: Bearer <token>" or are answered 401.
// Read-only endpoints stay open — the first slice of serving auth covers the
// calls that can change the model. A server without a token passes handlers
// through untouched.
func (s *Server) requireAuth(h http.Handler) http.Handler {
	if s.opts.AuthToken == "" {
		return h
	}
	want := []byte("Bearer " + s.opts.AuthToken)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			s.met.authFailures.Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="ptucker"`)
			writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "missing or invalid bearer token"})
			return
		}
		h.ServeHTTP(w, r)
	})
}

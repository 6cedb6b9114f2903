package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/replicate"
	"repro/internal/store"
)

// Replication wiring (see package replicate for the protocol).
//
// Primary side: /v1/journal/bootstrap ships the served model and the journal
// sequence it covers; /v1/journal long-polls record frames. Both are bounded
// by the applied sequence — the highest journal record reflected in the
// served model. An observe journals, applies, publishes and advances it under
// online.mu, during a background refit too (the batch goes to a stand-in
// fitter), so a primary holds no journaled-but-unapplied records outside
// that critical section and followers receive every record at once. The
// stream identity is (epoch, gen): epoch is persisted and bumped at every
// primary startup (a restart under a relaxed fsync policy may have lost
// journal-tail records, so followers must never trust a restarted primary's
// continuity), and gen counts in-memory model replacements that bypass the
// journal — reloads and background-refit publishes. Followers seeing either
// change re-bootstrap.
//
// Follower side: the replicate.Follower run loop drives a server-owned
// Applier. The follower's fitter is mutated only by that loop; predictions
// read atomically swapped snapshots exactly as on a primary. With a DataDir
// the follower keeps a local copy of the stream — replica model container
// (model + covered seq in one atomic file) plus a journal created at the
// primary's covered sequence, so local appends reproduce the primary's
// sequence numbers — and resumes from it across restarts without
// re-downloading the model.

// replState carries the replication identity and progress shared between
// request handlers and the observe/refit paths.
type replState struct {
	// epoch is the persisted primary process epoch (0 = replication
	// unavailable: no data dir, or follower mode). Written once during
	// startup, read-only afterwards.
	epoch uint64
	// gen counts model replacements that bypass the journal (reloads,
	// refit publishes). Starts at 1 so the zero Identity is never valid.
	gen atomic.Uint64
	// appliedSeq is the highest journal sequence reflected in the fitter
	// (and therefore in the served snapshot).
	appliedSeq atomic.Uint64
	// notify is a close-and-replace broadcast: long-polling stream
	// handlers wait on the current channel, and every applied-sequence or
	// generation advance swaps in a fresh one and closes the old. No
	// mutex, so it stays outside the server's lock hierarchy.
	notify atomic.Pointer[chan struct{}]

	// fol is the follower-side state (nil on a primary).
	fol *followerState
}

func (r *replState) initNotify() {
	ch := make(chan struct{})
	r.notify.Store(&ch)
}

// wake re-arms the broadcast channel and wakes every waiting stream handler.
func (r *replState) wake() {
	ch := make(chan struct{})
	old := r.notify.Swap(&ch)
	if old != nil {
		close(*old)
	}
}

// bumpGen invalidates the current stream identity (the model changed without
// journal records) and wakes waiters so they answer 410 promptly.
func (r *replState) bumpGen() {
	r.gen.Add(1)
	r.wake()
}

// advance publishes a newly applied journal sequence and wakes waiters.
func (r *replState) advance(seq uint64) {
	r.appliedSeq.Store(seq)
	r.wake()
}

// followerState is the tailing loop's handles. Fields are either owned
// exclusively by the run goroutine (fitter via online.fitter, journal
// writes) or atomic.
type followerState struct {
	client  *replicate.Client
	journal *store.Journal // local stream copy (nil without a DataDir)
	// lastAdvance is the UnixNano time the follower last applied a record
	// or confirmed being caught up; replica lag is measured from it.
	lastAdvance atomic.Int64
	// primaryLast mirrors the primary's applied sequence from the latest
	// completed poll.
	primaryLast atomic.Uint64
	// failed is set when the run loop exits on a fatal error; /healthz
	// reports it so the replica is ejected rather than serving a model
	// that silently stopped converging.
	failed atomic.Bool
	// done closes when the run loop has exited (Close waits for it before
	// closing the local journal).
	done chan struct{}
}

func (s *Server) isFollower() bool { return s.opts.Follow != "" }

// AppliedSeq reports the highest journal sequence reflected in the served
// model: on a durable primary, how far the journal has been applied; on a
// follower, how far it has replayed its primary's stream. Zero when the
// server is neither (no replication in play).
func (s *Server) AppliedSeq() uint64 { return s.repl.appliedSeq.Load() }

// replicaLag is how long ago the follower last confirmed progress. A
// caught-up follower hears from its primary once per poll window, so healthy
// lag oscillates between 0 and PollWait; MaxLag must sit above that.
func (s *Server) replicaLag() time.Duration {
	f := s.repl.fol
	if f == nil {
		return 0
	}
	return s.now().Sub(time.Unix(0, f.lastAdvance.Load()))
}

// replSample feeds the /metrics handler the replication gauges.
type replSample struct {
	role          string // "", "primary", "follower"
	appliedSeq    uint64
	lagSeconds    float64
	streamClients int64
}

func (s *Server) replSample() replSample {
	switch {
	case s.isFollower():
		return replSample{
			role:       "follower",
			appliedSeq: s.repl.appliedSeq.Load(),
			lagSeconds: s.replicaLag().Seconds(),
		}
	case s.repl.epoch != 0:
		return replSample{
			role:          "primary",
			appliedSeq:    s.repl.appliedSeq.Load(),
			streamClients: s.met.streamClients.Load(),
		}
	default:
		return replSample{}
	}
}

// --- primary: stream handlers ---

const (
	// maxStreamWait caps the long-poll window a client may ask for.
	maxStreamWait = 30 * time.Second
	// maxStreamChunk bounds one response's frame bytes (the chunk always
	// includes at least one whole record, however large).
	maxStreamChunk = 1 << 20
)

// identity returns the primary's current stream identity.
func (s *Server) identity() replicate.Identity {
	return replicate.Identity{Epoch: s.repl.epoch, Gen: s.repl.gen.Load()}
}

// replHeaders stamps the identity and journal bounds on a stream response.
func (s *Server) replHeaders(w http.ResponseWriter, id replicate.Identity, base, last uint64) {
	h := w.Header()
	h.Set(replicate.HeaderEpoch, strconv.FormatUint(id.Epoch, 10))
	h.Set(replicate.HeaderGen, strconv.FormatUint(id.Gen, 10))
	h.Set(replicate.HeaderBaseSeq, strconv.FormatUint(base, 10))
	h.Set(replicate.HeaderLastSeq, strconv.FormatUint(last, 10))
}

// replAvailable answers false (and the request) when this server cannot
// serve the replication endpoints.
func (s *Server) replAvailable(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return false
	}
	if s.journal == nil || s.repl.epoch == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "replication requires a durable primary (-data-dir)"})
		return false
	}
	return true
}

// handleJournalBootstrap is GET /v1/journal/bootstrap: the served model plus
// the journal sequence it covers, under the current identity.
func (s *Server) handleJournalBootstrap(w http.ResponseWriter, r *http.Request) {
	if !s.replAvailable(w, r) {
		return
	}
	// Capture under online.mu: the observe path journals, applies, installs,
	// and advances the applied sequence under the same lock, so the snapshot
	// and the sequence here are two views of one state — mid-refit too, when
	// the snapshot is the stand-in's.
	o := &s.online
	o.mu.Lock()
	snap := s.snapshot()
	covered := s.repl.appliedSeq.Load()
	id := s.identity()
	o.mu.Unlock()

	h := w.Header()
	h.Set("Content-Type", replicate.ModelContentType)
	h.Set(replicate.HeaderEpoch, strconv.FormatUint(id.Epoch, 10))
	h.Set(replicate.HeaderGen, strconv.FormatUint(id.Gen, 10))
	h.Set(replicate.HeaderCoveredSeq, strconv.FormatUint(covered, 10))
	w.WriteHeader(http.StatusOK)
	// The snapshot model is immutable (the fitter works on its own state),
	// so serialization safely runs off the lock.
	if _, err := snap.model.WriteTo(w); err != nil {
		// Headers are gone; all we can do is cut the connection short so
		// the client sees a truncated body, not a valid-looking model.
		s.event(slog.LevelWarn, "bootstrap stream interrupted", "error", err,
			"request_id", r.Header.Get(obs.RequestIDHeader))
	}
	s.met.bootstrapsServed.Add(1)
}

// handleJournalStream is GET /v1/journal: long-polled record frames after a
// client-supplied sequence, bounded by the applied sequence.
func (s *Server) handleJournalStream(w http.ResponseWriter, r *http.Request) {
	if !s.replAvailable(w, r) {
		return
	}
	q := r.URL.Query()
	after, err := queryUint(q, "after")
	if err != nil {
		s.badRequest(w, "journal", err)
		return
	}
	epoch, err := queryUint(q, "epoch")
	if err != nil {
		s.badRequest(w, "journal", err)
		return
	}
	gen, err := queryUint(q, "gen")
	if err != nil {
		s.badRequest(w, "journal", err)
		return
	}
	wait := replicate.DefaultPollWait
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.badRequest(w, "journal", fmt.Errorf("bad wait %q", v))
			return
		}
		wait = min(d, maxStreamWait)
	}
	want := replicate.Identity{Epoch: epoch, Gen: gen}

	s.met.streamClients.Add(1)
	defer s.met.streamClients.Add(-1)

	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		// Load the broadcast channel before checking state: an advance
		// landing between the check and the wait closes this channel, so
		// the wait wakes instead of sleeping through it.
		ch := *s.repl.notify.Load()

		id := s.identity()
		applied := s.repl.appliedSeq.Load()
		base := s.journal.BaseSeq()
		if id != want {
			s.replHeaders(w, id, base, applied)
			writeJSON(w, http.StatusGone, errorResponse{
				Error: fmt.Sprintf("stream identity is %s, not %s; re-bootstrap", id, want)})
			return
		}
		if after < base || after > applied {
			s.replHeaders(w, id, base, applied)
			writeJSON(w, http.StatusGone, errorResponse{
				Error: fmt.Sprintf("seq %d is outside the streamable window (%d, %d]; re-bootstrap", after, base, applied)})
			return
		}
		if after < applied {
			frames, n, _, err := s.journal.StreamChunk(after, applied, maxStreamChunk)
			if err != nil {
				if errors.Is(err, store.ErrBadJournal) {
					// A compaction rotated the records away between the
					// bounds check and the read.
					s.replHeaders(w, id, s.journal.BaseSeq(), applied)
					writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
					return
				}
				s.met.errors("journal").Add(1)
				writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
				return
			}
			if n > 0 {
				s.replHeaders(w, id, base, applied)
				w.Header().Set("Content-Type", replicate.StreamContentType)
				w.WriteHeader(http.StatusOK)
				if _, err := w.Write(frames); err == nil {
					s.met.streamRecords.Add(int64(n))
					s.met.streamBytes.Add(int64(len(frames)))
				}
				return
			}
		}
		// Caught up: hold the poll open until something advances, the wait
		// window closes, or either side goes away.
		select {
		case <-ch:
		case <-deadline.C:
			s.replHeaders(w, id, base, applied)
			w.Header().Set("Content-Type", replicate.StreamContentType)
			w.WriteHeader(http.StatusOK)
			return
		case <-r.Context().Done():
			return
		case <-s.life.Done():
			s.replHeaders(w, id, base, applied)
			w.Header().Set("Content-Type", replicate.StreamContentType)
			w.WriteHeader(http.StatusOK)
			return
		}
	}
}

func queryUint(q url.Values, name string) (uint64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad query parameter %s=%q", name, v)
	}
	return n, nil
}

// rejectOnFollower answers a write (or journal) request on a replica: 403
// with a Location hint naming the only process that can take it.
func (s *Server) rejectOnFollower() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.writesRejected.Add(1)
		w.Header().Set("Location", s.opts.Follow+r.URL.Path)
		writeJSON(w, http.StatusForbidden, errorResponse{
			Error: fmt.Sprintf("this is a read replica; send %s to the primary at %s", r.URL.Path, s.opts.Follow)})
	})
}

// --- follower: startup, resume, and the Applier ---

// bootstrapAttempts bounds the synchronous startup bootstrap: a follower
// that cannot reach its primary at all fails fast (supervisors restart it)
// instead of serving nothing indefinitely.
const bootstrapAttempts = 5

// initFollower brings up follower mode: resume from the local data
// directory when it holds a consistent replica state, bootstrap from the
// primary otherwise, then start the tailing loop.
func (s *Server) initFollower() error {
	if s.opts.ModelPath != "" || s.opts.Model != nil {
		return errors.New("serve: a follower bootstraps its model from the primary; Follow excludes ModelPath/Model")
	}
	if s.opts.RefitAfter != 0 {
		return errors.New("serve: followers do not refit (the primary's refits re-bootstrap them); Follow excludes RefitAfter")
	}
	if s.opts.CompactAge != 0 {
		return errors.New("serve: CompactAge is a primary-side option; a follower's local journal compacts by CompactBytes")
	}
	if _, err := url.Parse(s.opts.Follow); err != nil {
		return fmt.Errorf("serve: bad Follow URL: %w", err)
	}
	fol := &followerState{
		client: &replicate.Client{
			Primary:  s.opts.Follow,
			Token:    s.opts.AuthToken,
			PollWait: s.opts.PollWait,
			// Every bootstrap/poll carries a fresh correlation ID, so a
			// follower-side fetch joins up with the primary's access log.
			RequestID: obs.NewRequestID,
		},
		done: make(chan struct{}),
	}
	s.repl.fol = fol

	if s.opts.DataDir != "" {
		dir, err := store.OpenDir(s.opts.DataDir)
		if err != nil {
			return err
		}
		if dir.HasModel() && !dir.HasFollowerState() {
			return fmt.Errorf("serve: data dir %s belongs to a primary; refusing to tail over it", s.opts.DataDir)
		}
		s.dir = dir
	}

	id, resumed := s.resumeReplica()
	if !resumed {
		bs, err := s.bootstrapBlocking()
		if err != nil {
			return err
		}
		if err := s.replicaRebase(bs); err != nil {
			return err
		}
		id = bs.Identity
	}

	run := &replicate.Follower{
		Client:   fol.client,
		Applier:  (*replicaApplier)(s),
		Identity: id,
		Order:    s.snapshot().order,
		Logf: func(format string, args ...interface{}) {
			s.event(slog.LevelInfo, fmt.Sprintf(format, args...), "component", "replicate")
		},
	}
	go func() {
		defer close(fol.done)
		if err := run.Run(s.life); err != nil {
			fol.failed.Store(true)
			s.event(slog.LevelError, "replication stopped", "error", err,
				"frozen_at_seq", s.repl.appliedSeq.Load(), "detail", "restart to resume")
		}
	}()
	return nil
}

// resumeReplica tries to restore follower state from the local data
// directory: the replica model container plus the local journal replayed
// through plan/apply. Any inconsistency falls back to a fresh bootstrap —
// losing nothing but the download.
func (s *Server) resumeReplica() (replicate.Identity, bool) {
	if s.dir == nil || !s.dir.HasFollowerState() {
		return replicate.Identity{}, false
	}
	fail := func(err error) (replicate.Identity, bool) {
		s.event(slog.LevelWarn, "local replica state unusable", "error", err, "detail", "re-bootstrapping")
		return replicate.Identity{}, false
	}
	st, ok, err := s.dir.LoadFollowerState()
	if err != nil || !ok {
		return fail(err)
	}
	m, covered, err := s.dir.LoadReplicaModel()
	if err != nil {
		return fail(err)
	}
	j, err := store.OpenJournal(s.dir.JournalPath(), m.Order(), s.opts.JournalSync)
	if err != nil {
		return fail(err)
	}
	if j.Recovered > 0 {
		s.event(slog.LevelWarn, "replica journal recovery dropped torn tail",
			"bytes", j.Recovered, "detail", "the intact records replay")
	}
	j.ObserveSync(s.met.journalFsyncDur.ObserveDuration)
	// The model must sit inside the journal's window: at or past the base
	// (records below the model's coverage may have been compacted away) and
	// at or before the tail (a model ahead of the journal cannot happen in
	// any crash ordering — it means mixed-up files).
	if covered < j.BaseSeq() || covered > j.LastSeq() {
		j.Close()
		return fail(fmt.Errorf("replica model covers seq %d, journal holds (%d, %d]", covered, j.BaseSeq(), j.LastSeq()))
	}
	f, err := s.resumeFitter(m)
	if err != nil {
		j.Close()
		return fail(err)
	}
	n, err := s.replay(f, covered+1, j.Replay)
	if err != nil {
		j.Close()
		return fail(err)
	}
	s.repl.fol.journal = j
	s.online.fitter = f
	s.cur.Store(newSnapshot(f.Snapshot(), s.opts.Follow, s.opts.Workers, s.now()))
	s.repl.appliedSeq.Store(j.LastSeq())
	s.repl.fol.lastAdvance.Store(s.now().UnixNano())
	s.event(slog.LevelInfo, "resumed replica from local state",
		"seq", j.LastSeq(), "replayed", n.records, "primary", s.opts.Follow)
	return replicate.Identity{Epoch: st.Epoch, Gen: st.Gen}, true
}

// bootstrapBlocking fetches the initial bootstrap synchronously, with
// bounded jittered retries, so New returns a server that can actually
// answer predictions.
func (s *Server) bootstrapBlocking() (*replicate.Bootstrap, error) {
	var lastErr error
	for attempt := 1; attempt <= bootstrapAttempts; attempt++ {
		bs, err := s.repl.fol.client.Bootstrap(s.life)
		if err == nil {
			return bs, nil
		}
		lastErr = err
		if attempt < bootstrapAttempts {
			s.event(slog.LevelWarn, "bootstrap failed",
				"primary", s.opts.Follow, "error", err, "attempt", attempt, "retries", bootstrapAttempts-1)
			select {
			case <-s.life.Done():
				return nil, ErrServerClosed
			case <-time.After(replicate.Backoff(s.opts.Follow, attempt)):
			}
		}
	}
	return nil, fmt.Errorf("serve: bootstrap from %s: %w", s.opts.Follow, lastErr)
}

// replicaRebase installs a bootstrap as the follower's whole state: fitter,
// snapshot, and (when durable) the local replica files. The on-disk commit
// order makes every crash recoverable: the state file is cleared first, so
// no crash can leave it endorsing mismatched artifacts, and written last
// once model + journal agree.
func (s *Server) replicaRebase(bs *replicate.Bootstrap) error {
	f, err := s.resumeFitter(bs.Model)
	if err != nil {
		return fmt.Errorf("serve: resume bootstrapped model: %w", err)
	}
	fol := s.repl.fol
	if s.dir != nil {
		if err := s.dir.ClearFollowerState(); err != nil {
			return fmt.Errorf("serve: clear replica state: %w", err)
		}
		if err := s.dir.SaveReplicaModel(bs.Model, bs.Covered); err != nil {
			return err
		}
		if fol.journal != nil {
			_ = fol.journal.Close()
		}
		j, err := store.CreateJournal(s.dir.JournalPath(), bs.Model.Order(), bs.Covered, s.opts.JournalSync)
		if err != nil {
			return err
		}
		j.ObserveSync(s.met.journalFsyncDur.ObserveDuration)
		fol.journal = j
		if err := s.dir.SaveFollowerState(store.FollowerState{Epoch: bs.Identity.Epoch, Gen: bs.Identity.Gen}); err != nil {
			return err
		}
	}
	o := &s.online
	o.mu.Lock()
	o.fitter = f
	s.cur.Store(newSnapshot(bs.Model, s.opts.Follow, s.opts.Workers, s.now()))
	s.repl.appliedSeq.Store(bs.Covered)
	o.mu.Unlock()
	fol.lastAdvance.Store(s.now().UnixNano())
	s.met.replicaBootstraps.Add(1)
	s.event(slog.LevelInfo, "replica bootstrapped",
		"primary_epoch", bs.Identity.Epoch, "primary_gen", bs.Identity.Gen, "covered", bs.Covered)
	s.updateHoldout(bs.Model)
	return nil
}

// replicaApplier implements replicate.Applier over the server. Only the
// follower run goroutine calls it, strictly sequentially.
type replicaApplier Server

func (a *replicaApplier) srv() *Server { return (*Server)(a) }

func (a *replicaApplier) Rebase(bs *replicate.Bootstrap) error {
	return a.srv().replicaRebase(bs)
}

func (a *replicaApplier) Apply(rec store.Record) error {
	s := a.srv()
	fol := s.repl.fol
	t0 := time.Now()
	// Copy-journal-before-apply, the primary's own discipline: a crash
	// after the append replays the record on restart; a crash before it
	// re-fetches it from the primary.
	if fol.journal != nil {
		seq, err := fol.journal.Append(rec.Observations)
		if err != nil {
			return fmt.Errorf("local journal: %w", err)
		}
		if seq != rec.Seq {
			return fmt.Errorf("local journal assigned seq %d to primary record %d", seq, rec.Seq)
		}
	}
	o := &s.online
	o.mu.Lock()
	f := o.fitter
	plan, err := planObservations(f.Dims(), rec.Observations)
	if err == nil {
		var resp *observeResponse
		resp, err = s.applyPlan(f, plan, true)
		if err == nil && len(resp.Folded) > 0 {
			s.install(f.Snapshot())
		}
	}
	if err == nil {
		s.repl.appliedSeq.Store(rec.Seq)
		s.met.observations.Add(int64(len(rec.Observations)))
	}
	o.mu.Unlock()
	if err != nil {
		return err
	}
	fol.lastAdvance.Store(s.now().UnixNano())
	s.met.replicaRecords.Add(1)
	s.met.replicaApplyDur.ObserveSince(t0)

	// Local compaction: fold the replica journal into the model container
	// once it outgrows CompactBytes. Synchronous and single-threaded (this
	// goroutine is the only journal writer); the container commits the
	// model and its covered sequence atomically, so any crash ordering
	// resumes cleanly.
	if s.opts.CompactBytes > 0 && fol.journal != nil &&
		fol.journal.Size() >= s.opts.CompactBytes {
		covered := rec.Seq
		if err := s.dir.SaveReplicaModel(f.Snapshot(), covered); err != nil {
			s.event(slog.LevelError, "replica compaction failed", "stage", "save model",
				"error", err, "detail", "journal kept; will replay on restart")
			s.met.compactionErrors.Add(1)
		} else if err := fol.journal.ResetThrough(covered); err != nil {
			s.event(slog.LevelError, "replica compaction failed", "stage", "rotate journal",
				"error", err, "detail", "journal kept; will replay on restart")
			s.met.compactionErrors.Add(1)
		} else {
			s.met.compactions.Add(1)
			s.event(slog.LevelInfo, "replica journal compacted", "covered", covered)
		}
	}
	return nil
}

func (a *replicaApplier) AppliedSeq() uint64 {
	return a.srv().repl.appliedSeq.Load()
}

func (a *replicaApplier) CaughtUp(primaryLast uint64) {
	s := a.srv()
	fol := s.repl.fol
	fol.primaryLast.Store(primaryLast)
	if s.repl.appliedSeq.Load() >= primaryLast {
		fol.lastAdvance.Store(s.now().UnixNano())
	}
}

// ensure interface satisfaction at compile time.
var _ replicate.Applier = (*replicaApplier)(nil)

// Package serve puts a fitted P-Tucker model behind a socket: an HTTP JSON
// API over a core.Predictor / core.Recommender pair, with atomic hot model
// reload.
//
// Endpoints:
//
//	POST /v1/predict        {"index":[i1,...,iN]}            → {"value":v}
//	POST /v1/predict-batch  {"indexes":[[...],[...]]}        → {"values":[...]}
//	POST /v1/recommend      {"query":[...],"mode":m,"k":K,"exclude":[...]}
//	                                                         → {"recs":[{"index":i,"score":s},...]}
//	POST /v1/observe        {"observations":[{"index":[...],"value":v},...]}
//	                                                         → {"appended":a,"folded":[...],"dims":[...]}
//	POST /v1/reload         {"model":"path"} (path optional) → {"model":...,"loaded_at":...}
//	GET  /healthz                                            → {"status":"ok",...}
//	GET  /metrics                                            → Prometheus text format
//
// The served model lives in an atomic.Pointer snapshot. A reload (HTTP or
// SIGHUP, see cmd/ptucker-serve) loads and validates the new model off to
// the side, then swaps the pointer; requests that already grabbed the old
// snapshot finish on it untouched, so a reload never drops or corrupts
// in-flight work. Malformed input is answered with 400 via the predictor's
// non-panicking PredictChecked/ValidateIndex paths — a bad request can not
// crash the process.
//
// /v1/predict scores its cell on the request goroutine. Cells share no work
// (each is reconstructed from its own factor rows and the core), so single
// predictions are not batched: concurrency comes from the HTTP server itself.
//
// The model also learns online: /v1/observe appends new observations,
// folds brand-new indices (cold-start users, new items) in as fresh factor
// rows via the row-wise solve of Eq. 4, and atomically publishes the grown
// snapshot; once Options.RefitAfter observations accumulate, a background
// warm-started refit rebalances the whole model and is swapped in the same
// way. Observes arriving during a refit never block behind it: the refit
// takes the serving fitter, and they apply to a stand-in resumed from the
// served snapshot — journaled, folded and published at once, as between
// refits. When the refit returns, those batches replay into its fitter in
// journal order, and the result is published once. Every /v1/* endpoint is
// bounded by a request-body size limit (413) and a per-request timeout
// (503), and Options.AuthToken puts the mutating endpoints behind a bearer
// token (401).
//
// With Options.DataDir the server is durable: accepted observations are
// journaled before they are applied, the journal is replayed on startup
// (a killed process restarts bit-identical to one that never crashed), and
// successful refits compact journal + training set + model into the
// directory — see durable.go and package store.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/replicate"
	"repro/internal/store"
	"repro/internal/tensor"
)

// snapshot bundles everything derived from one loaded model. It is immutable
// after construction; the server swaps whole snapshots, never fields. The
// model itself is retained (never mutated) so the online-learning path can
// resume fitting from exactly what is being served.
//
// The predictor shares the model's factors and core rather than cloning them
// (NewPredictorShared): every model a snapshot wraps is frozen — loaded from
// a file, exported by Fitter.Snapshot, or handed over via Options.Model — so
// the copy would buy nothing, and for mmap-backed models it would pull the
// whole file onto the heap and defeat zero-copy serving.
type snapshot struct {
	model    *core.Model
	pred     *core.Predictor
	rec      *core.Recommender
	path     string // file the model came from ("" if derived in memory)
	loadedAt time.Time
	order    int
	dims     []int
	coreNNZ  int // live core entries — the sparsification observable
}

func newSnapshot(m *core.Model, path string, workers int, now time.Time) *snapshot {
	p := core.NewPredictorShared(m)
	if workers > 0 {
		p = p.WithWorkers(workers)
	}
	return &snapshot{
		model:    m,
		pred:     p,
		rec:      p.Recommender(),
		path:     path,
		loadedAt: now,
		order:    p.Order(),
		dims:     p.Dims(),
		coreNNZ:  m.Core.NNZ(),
	}
}

// Options configures a Server.
type Options struct {
	// ModelPath is the model file to serve and the default source for
	// reloads. Required unless Model is set.
	ModelPath string
	// Model, when non-nil, is served directly (tests, embedded use);
	// ModelPath then only names the default reload source. The server takes
	// ownership: the caller must not mutate the model after New (the serving
	// snapshot aliases it, and online fitting resumes from it).
	Model *core.Model
	// Workers is the PredictBatch fan-out (0 = GOMAXPROCS).
	Workers int
	// RefitAfter triggers a background warm refit (and snapshot swap) once
	// that many observations have arrived via /v1/observe since the last
	// refit. 0 disables automatic refits; fold-ins still publish immediately.
	// A startup replay that alone reaches the threshold retriggers the refit
	// the crash interrupted.
	RefitAfter int
	// Sparsify overrides the served model's Config.Sparsify for background
	// refits: refit results are pruned under this relative RMSE-degradation
	// budget (see core.Config.Sparsify). When a holdout is configured
	// (HoldoutPath), the budget is checked against it, gating pruning on
	// generalization. 0 keeps whatever budget the model was fitted with.
	Sparsify float64
	// MaxBodyBytes caps the request body size on every /v1/* endpoint;
	// larger bodies are answered 413. 0 means DefaultMaxBody, negative
	// disables the limit.
	MaxBodyBytes int64
	// Timeout bounds the handling of every /v1/* request; requests that
	// exceed it are answered 503. 0 means DefaultTimeout, negative disables
	// the limit.
	Timeout time.Duration
	// DataDir enables durability: every /v1/observe batch is journaled
	// before it is applied, the journal is replayed on startup (crash
	// recovery), and successful refits compact it into model + training-set
	// snapshots. When the directory already holds a persisted model, that
	// model supersedes ModelPath/Model at startup — the data directory is
	// the newest durable state. Empty disables durability.
	DataDir string
	// CompactBytes triggers a journal compaction — without a refit — once
	// the journal file grows past this many bytes: the current grown model
	// and the accumulated training set are snapshotted into the data dir
	// and the covered records are rotated out. This bounds the journal of a
	// server running with refits disabled (RefitAfter 0). 0 disables
	// size-triggered compaction; ignored without a DataDir.
	CompactBytes int64
	// CompactAge bounds how long an uncovered journal record may wait for a
	// compaction, wall-clock: a background ticker compacts (same capture as
	// CompactBytes, no refit) once the oldest record not yet covered by a
	// snapshot is older than this. It bounds restart replay time for a
	// low-traffic server whose journal never crosses CompactBytes. Append
	// times are not persisted in the journal, so after a restart the
	// surviving records' age is measured from the restart. 0 disables
	// age-triggered compaction; ignored without a DataDir.
	CompactAge time.Duration
	// JournalSync selects the journal fsync policy (store.SyncAlways,
	// SyncBatch with an interval, SyncNone). The zero value is SyncBatch at
	// store.DefaultSyncInterval.
	JournalSync store.SyncPolicy
	// HoldoutPath names a held-out test tensor (text or binary format,
	// auto-detected); when set, /metrics reports the served model's RMSE
	// over it, re-scored after every refit and reload.
	HoldoutPath string
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on the mutating endpoints (/v1/observe, /v1/reload) and the
	// replication endpoints (/v1/journal, /v1/journal/bootstrap); requests
	// without it are answered 401. Read-only endpoints stay open. A
	// follower sends the same token to its primary on the stream.
	AuthToken string
	// Follow turns the server into a read replica of the primary at this
	// base URL (e.g. "http://primary:8080"): it bootstraps the primary's
	// model over HTTP, tails the primary's journal stream, and replays
	// every record through the same plan/apply path — serving
	// /v1/predict and /v1/recommend bit-identically to a caught-up
	// primary while rejecting writes (403 with a Location hint). With a
	// DataDir the follower persists what it applied and resumes from its
	// local sequence after a restart; without one it re-bootstraps. Empty
	// runs the normal (primary) mode.
	Follow string
	// MaxLag, on a follower, turns /healthz unready (503 "stale") once the
	// replica has not confirmed being caught up with its primary for this
	// long — so load balancers eject stale replicas instead of letting
	// them serve drifted predictions. It must comfortably exceed PollWait
	// (a caught-up follower only hears from the primary once per poll
	// window). 0 reports lag without ever going unready.
	MaxLag time.Duration
	// PollWait is the long-poll window a follower asks of its primary (how
	// long an empty poll is held open waiting for fresh records); 0 uses
	// replicate.DefaultPollWait.
	PollWait time.Duration
	// Logger receives the server's structured log stream: per-request
	// access lines at Debug, lifecycle events (reloads, refits,
	// compactions, replication) at Info and up. Nil uses slog.Default().
	// Build one from the -log-format/-log-level flags via obs.NewLogger.
	Logger *slog.Logger
	// SlowRequest escalates the access-log line of any request that ran at
	// least this long to Warn with full detail (request ID, endpoint,
	// status, duration) regardless of log level, so tail latencies are
	// diagnosable without Debug-level volume. 0 disables.
	SlowRequest time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/, guarded by the same
	// bearer token as the mutating endpoints (AuthToken). Profiles expose
	// internals (and the CPU profile costs real time), so the mount is
	// opt-in and should not be enabled without a token off-localhost.
	Pprof bool
	// Mmap serves model files from read-only memory mappings when the file
	// and platform allow it (v4 format, little-endian 64-bit unix): the factor
	// matrices and core entries alias the mapping, so opening costs
	// O(metadata) and the heap never holds a copy of the model payload. Files
	// the mapper cannot serve (old versions, big-endian hosts, non-unix
	// builds) silently fall back to the heap loader; corrupt files fail
	// either way. Mapped sources stay mapped until the Server closes — the
	// online paths clone before mutating, so a mapped snapshot is never
	// written through.
	Mmap bool
}

// DefaultMaxBody is the request-body cap when Options.MaxBodyBytes is 0.
const DefaultMaxBody int64 = 1 << 20

// DefaultTimeout is the per-request bound when Options.Timeout is 0.
const DefaultTimeout = 30 * time.Second

// ErrServerClosed is returned by work that Close cut short, such as a
// follower's bootstrap retries.
var ErrServerClosed = errors.New("serve: server closed")

// Server is the HTTP serving layer over one hot-swappable model snapshot.
// All methods are safe for concurrent use.
//
// The package's mutexes form a single documented hierarchy, declared by the
// directive below (outermost first) and enforced statically by ptucker-vet's
// lockorder analyzer: a goroutine may only acquire locks left-to-right, and
// must not take one while holding anything to its right.
//
//ptlint:lock-order Registry.mu > tenant.mu > Server.reloadMu > online.mu > Server.durMu > Server.srcMu
type Server struct {
	opts Options

	cur atomic.Pointer[snapshot]
	met metrics

	// online is the /v1/observe fitting state; see online.go. After the
	// initial snapshot, every snapshot store happens under online.mu, so a
	// reload and a background refit cannot interleave their swaps.
	online online

	// reloadMu serializes reloads so two concurrent /v1/reload calls cannot
	// interleave load-then-swap and resurrect an older model.
	reloadMu sync.Mutex

	// maxBody and timeout are the resolved hardening knobs (0 = disabled).
	maxBody int64
	timeout time.Duration

	// log is the resolved structured logger (never nil) and slowReq the
	// resolved slow-request threshold; see accesslog.go.
	log     *slog.Logger
	slowReq time.Duration

	// dir and journal are the durability handles (nil without a DataDir);
	// holdout is the held-out RMSE tensor (nil without a HoldoutPath).
	dir     *store.Dir
	journal *store.Journal
	holdout *tensor.Coord

	// watchMod/watchSize snapshot ModelPath's stat at construction time, so
	// a durable server's watcher can detect a deploy that lands during the
	// startup window (model load + journal replay) instead of arming past it.
	watchMod  time.Time
	watchSize int64

	// durMu serializes data-dir writers that may overlap (a reload re-base
	// under online.mu vs. an off-lock post-refit compaction); durLastGen is
	// the online.gen of the last applied write, so a compaction captured
	// before a reload cannot overwrite the re-based directory, and
	// durLastCovered is the highest journal sequence a committed write
	// covered, so a compaction captured earlier (size-triggered racing a
	// refit's) cannot roll the training snapshot back. durMu is the innermost
	// lock of the hierarchy documented on Server.
	durMu          sync.Mutex
	durLastGen     int64
	durLastCovered uint64

	// compactBusy admits one size- or age-triggered compaction at a time;
	// see maybeCompactBySize and compactByAge.
	compactBusy atomic.Bool

	// srcMu guards srcs, the model sources opened over the server's lifetime
	// (Options.Mmap). Retired sources stay mapped until Close — in-flight
	// requests may still hold snapshots over them, and read-only mappings are
	// page-cache-cheap — so Close is the single unmap point. srcMu is a leaf
	// lock (innermost in the hierarchy above).
	srcMu sync.Mutex
	srcs  []*store.ModelSource

	// repl is the replication state: stream identity and applied-sequence
	// tracking on a primary, the tailing loop's handles on a follower. See
	// replication.go.
	repl replState

	// oldestUncovered is the UnixNano wall-clock time the oldest journal
	// record not yet covered by a compaction was appended (0 = journal fully
	// covered). Appends arm it (CAS from 0), compactions and re-bases clear
	// or re-arm it, and the CompactAge ticker compares it against the bound.
	oldestUncovered atomic.Int64

	// life is the server's lifetime context; Close cancels it, stopping a
	// background refit within one ALS iteration.
	life     context.Context
	lifeStop context.CancelFunc

	// now is the clock, swappable in tests.
	now func() time.Time
}

// New builds a Server from opts, loading the model from ModelPath unless a
// Model is supplied directly. The returned server is ready to serve; call
// Close when done to stop its background work and release the journal.
func New(opts Options) (*Server, error) {
	s := &Server{opts: opts, now: time.Now}
	s.log = opts.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.slowReq = opts.SlowRequest
	// Histograms are allocated eagerly: the fold-in and journal paths record
	// into them before any HTTP request could have lazily initialized them.
	s.met.init()
	s.life, s.lifeStop = context.WithCancel(context.Background())
	switch {
	case opts.MaxBodyBytes == 0:
		s.maxBody = DefaultMaxBody
	case opts.MaxBodyBytes > 0:
		s.maxBody = opts.MaxBodyBytes
	}
	switch {
	case opts.Timeout == 0:
		s.timeout = DefaultTimeout
	case opts.Timeout > 0:
		s.timeout = opts.Timeout
	}
	s.repl.initNotify()

	// Follower mode replaces the whole model-resolution and durability
	// startup below: the model comes from the primary (or the local replica
	// state), and the only journal is the local copy of the primary's.
	if opts.Follow != "" {
		if err := s.initFollower(); err != nil {
			return nil, err
		}
		return s, nil
	}

	// Resolve the durable state first: a data directory with a persisted
	// model (written by a compaction or a reload re-base) supersedes the
	// configured model — it is the newest durable state, including whatever
	// the process learned online before it last went down.
	if opts.DataDir != "" {
		dir, err := store.OpenDir(opts.DataDir)
		if err != nil {
			return nil, err
		}
		s.dir = dir
		// Captured before the (possibly slow) load+replay below: a deploy
		// over ModelPath landing mid-startup changes the stat the watcher
		// arms with, so WatchModel still notices it.
		s.watchSize = -1
		if opts.ModelPath != "" {
			if fi, err := os.Stat(opts.ModelPath); err == nil {
				s.watchMod, s.watchSize = fi.ModTime(), fi.Size()
			}
		}
	}

	m := opts.Model
	// srcPath is the provenance of the initial snapshot: "" when the model
	// was handed over in memory (ModelPath, if set, is then only the
	// default reload source — that file was never read).
	srcPath := ""
	switch {
	case s.dir != nil && s.dir.HasModel():
		var err error
		m, err = s.openModel(s.dir.ModelPath())
		if err != nil {
			return nil, fmt.Errorf("serve: data dir model: %w", err)
		}
		srcPath = s.dir.ModelPath()
	case m == nil:
		if opts.ModelPath == "" {
			return nil, errors.New("serve: Options needs a ModelPath or a Model")
		}
		var err error
		m, err = s.openModel(opts.ModelPath)
		if err != nil {
			return nil, err
		}
		srcPath = opts.ModelPath
	}
	s.cur.Store(newSnapshot(m, srcPath, opts.Workers, s.now()))

	// The holdout loads before the journal replay: resumed fitters attach it
	// as the Sparsify budget's scoring set, and replay may resume one.
	if err := s.loadHoldout(); err != nil {
		return nil, err
	}
	// Crash recovery: open the journal and replay uncovered records through
	// the live plan/apply path.
	if err := s.initDurable(); err != nil {
		return nil, err
	}
	// Score the model actually being served — after replay, which may have
	// grown it beyond what was loaded from disk.
	s.updateHoldout(s.snapshot().model)

	// Age-bounded compaction: a ticker (stopped by Close via s.life) keeps
	// restart replay time bounded even when traffic never crosses
	// CompactBytes.
	if s.dir != nil && opts.CompactAge > 0 {
		go s.ageCompactLoop()
	}
	return s, nil
}

// openModel loads a model file through the configured source strategy:
// Options.Mmap maps it read-only (falling back to the heap loader for
// streams the mapper cannot serve), otherwise it heap-decodes. Opened
// sources are retained on the server and released together at Close.
func (s *Server) openModel(path string) (*core.Model, error) {
	if !s.opts.Mmap {
		return core.LoadModel(path)
	}
	src, err := store.OpenModel(path, true)
	if err != nil {
		return nil, err
	}
	s.srcMu.Lock()
	s.srcs = append(s.srcs, src)
	s.srcMu.Unlock()
	return src.Model(), nil
}

// MappedBytes reports how many bytes of model files this server currently
// serves out of read-only memory mappings (0 without Options.Mmap or after
// heap fallbacks). Mappings accumulate across reloads until Close.
func (s *Server) MappedBytes() int64 {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	var n int64
	for _, src := range s.srcs {
		n += src.MappedBytes()
	}
	return n
}

// closeSources unmaps every model source opened over the server's lifetime.
func (s *Server) closeSources() {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	for _, src := range s.srcs {
		_ = src.Close()
	}
	s.srcs = nil
}

// snapshot returns the current model snapshot; callers use one snapshot for
// the whole request so a concurrent reload cannot mix models mid-answer.
func (s *Server) snapshot() *snapshot { return s.cur.Load() }

// Reload loads a model from path (or from the server's configured ModelPath
// when path is empty) and atomically swaps it in. In-flight requests finish
// on the snapshot they started with. On any error the old model keeps
// serving.
func (s *Server) Reload(path string) error {
	_, err := s.reload(path)
	return err
}

// reload is Reload returning the snapshot this call installed, so the
// /v1/reload response describes the caller's own swap even when another
// reload lands immediately after.
func (s *Server) reload(path string) (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	src := path
	if src == "" {
		src = s.opts.ModelPath
	}
	if src == "" {
		return nil, errors.New("serve: no model path to reload from")
	}
	m, err := s.openModel(src)
	if err != nil {
		return nil, err
	}
	snap := newSnapshot(m, src, s.opts.Workers, s.now())

	// Swap and drop the online fitting state under one lock: the loaded
	// model supersedes anything observed so far, and holding online.mu
	// means an in-flight background refit either published before this swap
	// or notices the reset and abandons its (now stale) result. Its backlog
	// goes too — those batches belong to the dropped state.
	// The durable re-base happens after the swap is committed: if it fails,
	// the reload still stands in memory, and the data directory keeps the
	// previous mutually-consistent state (old base + old journal), so a
	// crash merely restarts pre-reload — far better than wiping journaled
	// observations for a reload that never happened.
	o := &s.online
	o.mu.Lock()
	s.cur.Store(snap)
	o.fitter = nil
	o.pending = 0
	o.gen++
	// The reloaded model is not derivable from the journal: followers
	// tailing the old generation must re-bootstrap.
	s.repl.bumpGen()
	if o.refitCancel != nil {
		// Abort an in-flight refit's compute (it runs on the abandoned
		// fitter and its result would be discarded anyway).
		o.refitCancel()
	}
	o.standIn, o.backlog = false, nil
	s.rebaseDurable(m, o.gen)
	o.mu.Unlock()

	s.updateHoldout(m)
	s.met.reloads.Add(1)
	s.event(slog.LevelInfo, "model reloaded", "model", snap.path, "dims", fmt.Sprint(snap.dims))
	return snap, nil
}

// Close cancels any background refit (it aborts within one ALS iteration),
// stops a follower's tailing loop, flushes and closes the journal, and
// unmaps the model files. Idempotent. Shut the http.Server down first, so no
// handler still reads a snapshot, then Close.
func (s *Server) Close() {
	s.lifeStop()
	if f := s.repl.fol; f != nil {
		// The tailing loop exits on the cancelled lifetime context; only
		// then is its local journal safe to close (the loop is its only
		// writer).
		<-f.done
		if f.journal != nil {
			_ = f.journal.Close()
		}
	}
	if s.journal != nil {
		// Quiesce observes (and any refit end-phase) before the final flush,
		// so nothing appends to a closed journal.
		s.online.mu.Lock()
		_ = s.journal.Close()
		s.online.mu.Unlock()
	}
	// Unmap last: the HTTP server is down (the documented Close contract), so
	// no request still reads a mapping.
	s.closeSources()
}

// Handler returns the route table as an http.Handler, suitable for
// http.Server or httptest. Every /v1/* route is wrapped in the per-request
// timeout (Options.Timeout); /healthz and /metrics stay unbounded so probes
// keep answering even when the serving path is saturated.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/predict", s.instrument("predict", s.withTimeout(s.handlePredict)))
	mux.Handle("/v1/predict-batch", s.instrument("predict-batch", s.withTimeout(s.handlePredictBatch)))
	mux.Handle("/v1/recommend", s.instrument("recommend", s.withTimeout(s.handleRecommend)))
	if s.isFollower() {
		// A replica's model history belongs to its primary: writes here
		// would silently diverge, so they are refused with a hint at the
		// one address that can take them. The journal endpoints are
		// refused too — replicas do not re-share the stream.
		mux.Handle("/v1/observe", s.instrument("observe", s.rejectOnFollower()))
		mux.Handle("/v1/reload", s.instrument("reload", s.rejectOnFollower()))
		mux.Handle(replicate.StreamPath, s.instrument("journal", s.rejectOnFollower()))
		mux.Handle(replicate.BootstrapPath, s.instrument("bootstrap", s.rejectOnFollower()))
	} else {
		mux.Handle("/v1/observe", s.instrument("observe", s.requireAuth(s.withTimeout(s.handleObserve))))
		mux.Handle("/v1/reload", s.instrument("reload", s.requireAuth(s.withTimeout(s.handleReload))))
		// The stream endpoint long-polls by design, so it is mounted
		// without the per-request timeout; its own wait window bounds it.
		mux.Handle(replicate.StreamPath, s.instrument("journal", s.requireAuth(http.HandlerFunc(s.handleJournalStream))))
		mux.Handle(replicate.BootstrapPath, s.instrument("bootstrap", s.requireAuth(http.HandlerFunc(s.handleJournalBootstrap))))
	}
	mux.Handle("/healthz", s.instrument("healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("/metrics", s.instrument("metrics", s.met.handler(s.snapshot, s.replSample, s.MappedBytes)))
	if s.opts.Pprof {
		// The profiling endpoints sit behind the same bearer token as the
		// mutating endpoints: profiles leak internals and the CPU profile
		// costs real wall-clock, so anonymous access is not acceptable
		// once a token is configured.
		pp := http.NewServeMux()
		pp.HandleFunc("/debug/pprof/", pprof.Index)
		pp.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pp.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pp.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pp.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/pprof/", s.instrument("pprof", s.requireAuth(pp)))
	}
	return mux
}

// --- request/response shapes ---

type predictRequest struct {
	Index []int `json:"index"`
}

type predictResponse struct {
	Value float64 `json:"value"`
}

type predictBatchRequest struct {
	Indexes [][]int `json:"indexes"`
}

type predictBatchResponse struct {
	Values []float64 `json:"values"`
}

type recommendRequest struct {
	Query []int `json:"query"`
	Mode  int   `json:"mode"`
	K     int   `json:"k"`
	// Exclude lists free-mode indices to omit from the ranking — typically
	// the items the user already rated, so recommendations don't echo the
	// training data. Out-of-range entries are ignored.
	Exclude []int `json:"exclude"`
}

type recommendResponse struct {
	Recs []core.Rec `json:"recs"`
}

type reloadRequest struct {
	Model string `json:"model"`
}

type statusResponse struct {
	Status   string `json:"status"`
	Model    string `json:"model,omitempty"`
	Order    int    `json:"order"`
	Dims     []int  `json:"dims"`
	LoadedAt string `json:"loaded_at"`
	// Replication fields. Role is "primary" (replication available) or
	// "follower"; both sides report the highest journal sequence applied.
	// A follower names its primary and its staleness: LagSeconds is how
	// long ago it last confirmed being caught up (or applied a record).
	Role       string   `json:"role,omitempty"`
	Primary    string   `json:"primary,omitempty"`
	AppliedSeq uint64   `json:"applied_seq,omitempty"`
	LagSeconds *float64 `json:"lag_seconds,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.met.requests("predict").Add(1)
	var req predictRequest
	if !s.post(w, r, "predict", &req) {
		return
	}
	v, err := s.snapshot().pred.PredictChecked(req.Index)
	if err != nil {
		s.badRequest(w, "predict", err)
		return
	}
	s.met.predictions.Add(1)
	writeJSON(w, http.StatusOK, predictResponse{Value: v})
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	s.met.requests("predict-batch").Add(1)
	var req predictBatchRequest
	if !s.post(w, r, "predict-batch", &req) {
		return
	}
	snap := s.snapshot()
	vals, err := snap.pred.PredictBatchChecked(req.Indexes)
	if err != nil {
		s.badRequest(w, "predict-batch", err)
		return
	}
	s.met.predictions.Add(int64(len(vals)))
	writeJSON(w, http.StatusOK, predictBatchResponse{Values: vals})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	s.met.requests("recommend").Add(1)
	var req recommendRequest
	if !s.post(w, r, "recommend", &req) {
		return
	}
	snap := s.snapshot()
	recs, err := snap.rec.TopKExcluding(req.Query, req.Mode, req.K, req.Exclude)
	if err != nil {
		s.badRequest(w, "recommend", err)
		return
	}
	writeJSON(w, http.StatusOK, recommendResponse{Recs: recs})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.met.requests("reload").Add(1)
	var req reloadRequest
	if !s.post(w, r, "reload", &req) {
		return
	}
	snap, err := s.reload(req.Model)
	if err != nil {
		s.met.errors("reload").Add(1)
		// Any failure to load a path the request named — missing,
		// unreadable, not a model file — is the caller's mistake (400),
		// as is asking to reload a server that has no model path at all
		// (served from memory; no such request can succeed). Failures of
		// the server's own configured model path are genuine 5xx so
		// operators can alert on them.
		status := http.StatusInternalServerError
		if req.Model != "" || s.opts.ModelPath == "" {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, statusResponse{
		Status:   "reloaded",
		Model:    snap.path,
		Order:    snap.order,
		Dims:     snap.dims,
		LoadedAt: snap.loadedAt.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	snap := s.snapshot()
	resp := statusResponse{
		Status:   "ok",
		Model:    snap.path,
		Order:    snap.order,
		Dims:     snap.dims,
		LoadedAt: snap.loadedAt.UTC().Format(time.RFC3339Nano),
	}
	status := http.StatusOK
	switch {
	case s.isFollower():
		resp.Role = "follower"
		resp.Primary = s.opts.Follow
		resp.AppliedSeq = s.repl.appliedSeq.Load()
		lag := s.replicaLag().Seconds()
		resp.LagSeconds = &lag
		// A stale replica reports unready so load balancers stop routing
		// reads to predictions the primary has moved past.
		if s.opts.MaxLag > 0 && lag > s.opts.MaxLag.Seconds() {
			resp.Status = "stale"
			status = http.StatusServiceUnavailable
		}
		if s.repl.fol.failed.Load() {
			resp.Status = "replication-failed"
			status = http.StatusServiceUnavailable
		}
	case s.repl.epoch != 0:
		resp.Role = "primary"
		resp.AppliedSeq = s.repl.appliedSeq.Load()
	}
	writeJSON(w, status, resp)
}

// --- plumbing ---

// post enforces the method, applies the body-size limit, decodes the JSON
// body into dst, and answers the request itself on failure — 413 for an
// oversized body, 400 for everything else malformed. It reports whether the
// handler should continue.
func (s *Server) post(w http.ResponseWriter, r *http.Request, endpoint string, dst interface{}) bool {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return false
	}
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.met.errors(endpoint).Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return false
		}
		s.badRequest(w, endpoint, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) badRequest(w http.ResponseWriter, endpoint string, err error) {
	s.met.errors(endpoint).Add(1)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Command ptucker-serve puts a saved P-Tucker model (a .ptkm file written by
// `ptucker -save` or ptucker.SaveModel) behind an HTTP JSON API.
//
// Endpoints: POST /v1/predict, /v1/predict-batch, /v1/recommend,
// /v1/observe, /v1/reload; GET /healthz, /metrics. See `go doc
// repro/internal/serve` for the request and response shapes.
//
// The model is hot-swappable: POST /v1/reload (optionally naming a new model
// file), send SIGHUP, or run with -watch to poll the -model file and reload
// whenever it changes; in-flight requests finish on the snapshot they
// started with. The model also learns online: POST /v1/observe appends
// observations and folds brand-new indices in as fresh factor rows, and
// -refit-after N triggers a background warm refit every N observations.
//
// Each /v1/predict call is scored on its own request goroutine; -workers sets
// the fan-out inside a /v1/predict-batch request.
//
// With -data-dir the process is durable: every accepted observe batch is
// journaled (fsync policy: -journal-sync) before it is applied, the journal
// is replayed on startup so a crash loses nothing, and a successful refit
// compacts journal + training set + model into the directory — which then
// supersedes -model on the next start. -compact-bytes N additionally
// compacts (snapshotting the grown model and training set without a refit)
// whenever the journal outgrows N bytes, so a server running without
// -refit-after keeps a bounded journal; -compact-age D does the same on a
// wall-clock bound, compacting once the oldest unsnapshotted record is older
// than D, so a low-traffic server's restart replay stays short too.
// -auth-token guards the mutating
// endpoints with a bearer token; -holdout reports held-out RMSE on /metrics
// across refits. Request bodies are capped at -max-body bytes (413) and each
// request is bounded by -timeout (503). SIGINT/SIGTERM drain the listener
// gracefully before exiting.
//
// Observability: structured logs go to stderr (-log-format text|json,
// -log-level debug|info|warn|error); every request carries an
// X-Ptucker-Request-Id correlation header (caller-supplied or generated)
// echoed on the response and logged on the access line; -slow-request D
// escalates requests slower than D to warn level; -pprof mounts
// net/http/pprof under /debug/pprof/, guarded by -auth-token when set.
// /metrics exposes per-endpoint latency histograms, journal fsync/append
// latency, refit state gauges, and runtime gauges — see the README's
// Observability section for the full reference.
//
// With -models-dir the process serves many named models at once: every
// subdirectory holding a model.ptkm becomes a durable tenant (the
// subdirectory is its data dir — journal, compactions, holdout.tns) and
// every bare <name>.ptkm file a read-mostly tenant. Requests route by path
// prefix (/m/<name>/v1/predict) or the X-Ptucker-Model header; tenants load
// lazily on first touch and, with -mmap, serve straight from read-only file
// mappings — -max-mapped-bytes bounds the total, evicting the least-
// recently-touched tenant when crossed. GET /healthz lists every tenant's
// load state and GET /metrics merges all loaded tenants' families under
// per-model labels. -mmap also works in single-model mode.
//
// With -follow the process runs as a read replica instead: it bootstraps
// its model from the primary at the given URL, tails the primary's journal
// stream (GET /v1/journal), and replays every observation through the same
// plan/apply path — serving /v1/predict and /v1/recommend bit-identically
// to a caught-up primary while answering writes with 403 and a Location
// hint at the primary. A replica with -data-dir keeps a local copy of the
// stream and resumes from it across restarts; -max-lag turns /healthz 503
// once the replica goes stale so load balancers eject it. The primary needs
// -data-dir (the journal is the replication log) and, when -auth-token is
// set, the follower sends the same token on the stream.
//
// Usage:
//
//	ptucker-serve -model model.ptkm -addr :8080 -refit-after 1000 -watch 5s
//	ptucker-serve -model model.ptkm -data-dir ./data -journal-sync always \
//	    -auth-token $TOKEN -holdout test.tns
//	ptucker-serve -follow http://primary:8080 -addr :8081 -data-dir ./replica \
//	    -auth-token $TOKEN -max-lag 30s
//	ptucker-serve -models-dir ./models -mmap -max-mapped-bytes 2147483648
//	curl -s localhost:8080/m/movies/v1/predict -d '{"index":[3,7,1]}'
//	curl -s localhost:8080/v1/predict -d '{"index":[3,7,1]}'
//	curl -s localhost:8080/v1/recommend -d '{"query":[3,0,1],"mode":1,"k":10,"exclude":[7]}'
//	curl -s localhost:8080/v1/observe -d '{"observations":[{"index":[50,7,1],"value":0.9}]}'
//	curl -s -X POST localhost:8080/v1/reload -d '{}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		model       = flag.String("model", "", "saved model file to serve (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "PredictBatch worker goroutines (0 = GOMAXPROCS)")
		refitAfter  = flag.Int("refit-after", 0, "background warm refit after this many /v1/observe observations (0 disables)")
		sparsify    = flag.Float64("sparsify", 0, "prune refit results' core entries within this relative error budget (0 keeps the model's own setting; checked on -holdout when set)")
		maxBody     = flag.Int64("max-body", serve.DefaultMaxBody, "max request body bytes on /v1/* (larger bodies get 413; <0 disables)")
		timeout     = flag.Duration("timeout", serve.DefaultTimeout, "per-request handling bound on /v1/* (exceeded requests get 503; <0 disables)")
		watch       = flag.Duration("watch", 0, "poll the -model file at this interval and hot-reload on change (0 disables)")
		dataDir     = flag.String("data-dir", "", "durability directory: journal observes, replay on startup, compact after refits (empty disables)")
		compactB    = flag.Int64("compact-bytes", 0, "compact the journal (snapshot model + training set, no refit) once it exceeds this many bytes (0 disables; needs -data-dir)")
		compactAge  = flag.Duration("compact-age", 0, "compact the journal once its oldest uncovered record is older than this wall-clock age (0 disables; needs -data-dir)")
		journalSync = flag.String("journal-sync", "batch", "journal fsync policy: always, none, batch, or a batching interval like 250ms")
		holdout     = flag.String("holdout", "", "held-out test tensor (text or binary); RMSE is reported on /metrics across refits")
		authToken   = flag.String("auth-token", "", "bearer token required on mutating and replication endpoints; empty leaves them open (a follower sends it to its primary)")
		follow      = flag.String("follow", "", "run as a read replica of the primary at this base URL (bootstraps the model from it, tails its journal, rejects writes); excludes -model")
		maxLag      = flag.Duration("max-lag", 0, "follower /healthz goes 503 once the replica has not confirmed being caught up for this long (0 reports lag but stays ready; needs -follow)")
		logFormat   = flag.String("log-format", "text", "structured log output format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (access-log lines are debug)")
		slowReq     = flag.Duration("slow-request", 0, "log requests slower than this at warn level with full detail (0 disables)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (guarded by -auth-token when set)")
		mmapOn      = flag.Bool("mmap", false, "serve model files from read-only memory mappings (zero-copy open; pre-v4 files and non-unix builds fall back to the heap loader)")
		modelsDir   = flag.String("models-dir", "", "multi-model mode: serve every model in this directory as a named tenant routed by /m/<name>/ or the X-Ptucker-Model header (subdirectories holding model.ptkm are durable tenants, bare <name>.ptkm files are read-mostly); excludes -model/-follow/-data-dir/-holdout/-watch")
		maxMapped   = flag.Int64("max-mapped-bytes", 0, "evict least-recently-touched tenant models once total mapped bytes exceed this (0 = unbounded; needs -models-dir)")
	)
	flag.Parse()
	if *modelsDir == "" && *follow == "" && *model == "" {
		fmt.Fprintln(os.Stderr, "ptucker-serve: -model is required (or -follow to run as a replica, or -models-dir for multi-model serving)")
		flag.Usage()
		os.Exit(2)
	}
	syncPolicy, err := store.ParseSyncPolicy(*journalSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptucker-serve: -journal-sync: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptucker-serve: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *compactB > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ptucker-serve: -compact-bytes needs -data-dir")
		os.Exit(2)
	}
	if *compactAge > 0 && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "ptucker-serve: -compact-age needs -data-dir")
		os.Exit(2)
	}
	if *follow != "" {
		incompatible := []struct {
			name string
			set  bool
		}{
			{"-model", *model != ""},
			{"-refit-after", *refitAfter != 0},
			{"-compact-age", *compactAge != 0},
			{"-watch", *watch != 0},
		}
		for _, f := range incompatible {
			if f.set {
				fmt.Fprintf(os.Stderr, "ptucker-serve: %s cannot be combined with -follow (a replica's model comes from its primary)\n", f.name)
				os.Exit(2)
			}
		}
	}
	if *maxLag > 0 && *follow == "" {
		fmt.Fprintln(os.Stderr, "ptucker-serve: -max-lag needs -follow")
		os.Exit(2)
	}
	if *maxMapped > 0 && *modelsDir == "" {
		fmt.Fprintln(os.Stderr, "ptucker-serve: -max-mapped-bytes needs -models-dir")
		os.Exit(2)
	}
	if *modelsDir != "" {
		incompatible := []struct {
			name string
			set  bool
		}{
			{"-model", *model != ""},
			{"-follow", *follow != ""},
			{"-data-dir", *dataDir != ""}, // per-tenant data dirs live inside -models-dir
			{"-holdout", *holdout != ""},  // per-tenant holdouts live inside each tenant dir
			{"-watch", *watch != 0},       // reload tenants via /m/<name>/v1/reload
			{"-max-lag", *maxLag != 0},
		}
		for _, f := range incompatible {
			if f.set {
				fmt.Fprintf(os.Stderr, "ptucker-serve: %s cannot be combined with -models-dir\n", f.name)
				os.Exit(2)
			}
		}
	}

	base := serve.Options{
		ModelPath:    *model,
		Follow:       *follow,
		MaxLag:       *maxLag,
		Workers:      *workers,
		RefitAfter:   *refitAfter,
		Sparsify:     *sparsify,
		MaxBodyBytes: *maxBody,
		Timeout:      *timeout,
		DataDir:      *dataDir,
		CompactBytes: *compactB,
		CompactAge:   *compactAge,
		JournalSync:  syncPolicy,
		HoldoutPath:  *holdout,
		AuthToken:    *authToken,
		Logger:       logger,
		SlowRequest:  *slowReq,
		Pprof:        *pprofOn,
		Mmap:         *mmapOn,
	}

	// Multi-model mode: one process, many named tenants, lazy loads, and an
	// LRU mapped-bytes budget. Single-model lifecycle features that assume
	// exactly one model (SIGHUP reload-all, -watch) stay out of this mode;
	// each tenant reloads through its own /m/<name>/v1/reload.
	var (
		handler http.Handler
		closeFn func()
		s       *serve.Server // nil in multi-model mode
	)
	if *modelsDir != "" {
		reg, err := serve.NewRegistry(serve.RegistryOptions{
			ModelsDir:      *modelsDir,
			MaxMappedBytes: *maxMapped,
			Base:           base,
		})
		if err != nil {
			logger.Error("startup failed", "error", err)
			os.Exit(1)
		}
		handler, closeFn = reg.Handler(), reg.Close
	} else {
		srv, err := serve.New(base)
		if err != nil {
			logger.Error("startup failed", "error", err)
			os.Exit(1)
		}
		s, handler, closeFn = srv, srv.Handler(), srv.Close
		if *dataDir != "" {
			logger.Info("durable data dir open", "dir", *dataDir, "journal_sync", syncPolicy.Mode.String())
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	// SIGHUP hot-reloads the -model file; the first SIGINT/SIGTERM drains
	// the listener, a second one kills the process the usual way.
	if s != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := s.Reload(""); err != nil {
					logger.Warn("SIGHUP reload failed", "error", err, "detail", "still serving the old model")
					continue
				}
				logger.Info("SIGHUP reloaded model", "model", *model)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -watch: deploy-by-copying-a-file; the poller hot-reloads on mtime/size
	// change with the same snapshot-swap discipline as /v1/reload and SIGHUP.
	if *watch > 0 && s != nil {
		go func() {
			if err := s.WatchModel(ctx, *watch); err != nil && ctx.Err() == nil {
				logger.Error("model watcher stopped", "error", err)
			}
		}()
		logger.Info("watching model file", "model", *model, "interval", *watch)
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		stop() // restore default signal handling: a second signal is fatal
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "error", err)
		}
	}()

	source := *model
	switch {
	case *follow != "":
		source = "replica of " + *follow
	case *modelsDir != "":
		source = "models dir " + *modelsDir
	}
	logger.Info("serving", "source", source, "addr", *addr,
		"workers", *workers, "mmap", *mmapOn, "pprof", *pprofOn)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	}
	// ListenAndServe returns the moment Shutdown begins; wait for the drain
	// to finish before closing the server, so no handler still reads a
	// snapshot when the journal closes and the model files are unmapped.
	<-shutdownDone
	closeFn()
	logger.Info("bye")
}

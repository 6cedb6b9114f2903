package serve

import (
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	expo "repro/internal/metrics"
)

// endpoints is the fixed label set of the per-endpoint counters.
var endpoints = []string{"predict", "predict-batch", "recommend", "observe", "reload", "journal"}

// histEndpoints is the fixed label set of the request-duration histogram:
// the counter endpoints plus the probe, bootstrap, and pprof routes. Fixed
// sets keep the scrape cardinality bounded no matter what clients request.
var histEndpoints = append([]string{"bootstrap", "healthz", "metrics", "pprof"}, endpoints...)

// Refit lifecycle states exposed by ptucker_refit_state.
const (
	refitIdle int64 = iota
	refitFitting
	refitPublishing
)

// metrics holds the server's counters. The zero value is ready to use; the
// per-endpoint maps are built once on first touch and read-only afterwards,
// so the hot path is a map lookup plus an atomic add.
type metrics struct {
	once sync.Once
	req  map[string]*atomic.Int64
	errs map[string]*atomic.Int64

	predictions  atomic.Int64 // cells scored, all paths
	reloads      atomic.Int64 // successful model swaps
	observations atomic.Int64 // observations accepted via /v1/observe
	foldIns      atomic.Int64 // new rows folded into the served model
	refits       atomic.Int64 // background warm refits published
	refitErrors  atomic.Int64 // background refits that failed
	timeouts     atomic.Int64 // requests cut off by the per-request timeout

	journalAppends   atomic.Int64 // batches journaled to the data dir
	journalReplayed  atomic.Int64 // journal records replayed at startup
	compactions      atomic.Int64 // journal compactions completed
	compactionErrors atomic.Int64 // compactions that failed (journal kept)
	rebaseErrors     atomic.Int64 // reload re-bases that failed to persist
	authFailures     atomic.Int64 // mutating requests rejected with 401

	// Replication: the primary's stream service and the follower's
	// tailing progress (see replication.go).
	streamClients     atomic.Int64 // journal-stream polls currently being served
	streamRecords     atomic.Int64 // journal records shipped to followers
	streamBytes       atomic.Int64 // journal frame bytes shipped to followers
	bootstrapsServed  atomic.Int64 // bootstrap models shipped to followers
	replicaBootstraps atomic.Int64 // times this follower (re-)bootstrapped
	replicaRecords    atomic.Int64 // journal records this follower applied
	writesRejected    atomic.Int64 // writes refused because this is a replica

	holdoutSet  atomic.Bool   // a held-out set is configured and scored
	holdoutRMSE atomic.Uint64 // float64 bits of the latest held-out RMSE

	// Refit lifecycle gauges: state machine position, the in-flight refit's
	// latest ALS iteration and fit error (fed by Config.OnIteration), and
	// the wall-clock seconds of the last published refit.
	refitState    atomic.Int64
	refitIter     atomic.Int64
	refitFitError atomic.Uint64 // float64 bits
	refitLastSecs atomic.Uint64 // float64 bits

	// Latency histograms (lock-free; see internal/metrics). reqDur is keyed
	// by histEndpoints and populated by init; the rest record one duration
	// family each.
	reqDur           map[string]*expo.Histogram
	journalAppendDur *expo.Histogram
	journalFsyncDur  *expo.Histogram
	foldInDur        *expo.Histogram
	replicaApplyDur  *expo.Histogram
}

func (m *metrics) init() {
	m.once.Do(func() {
		m.req = make(map[string]*atomic.Int64, len(endpoints))
		m.errs = make(map[string]*atomic.Int64, len(endpoints))
		for _, e := range endpoints {
			m.req[e] = new(atomic.Int64)
			m.errs[e] = new(atomic.Int64)
		}
		m.reqDur = make(map[string]*expo.Histogram, len(histEndpoints))
		for _, e := range histEndpoints {
			m.reqDur[e] = expo.NewDurationHistogram()
		}
		m.journalAppendDur = expo.NewDurationHistogram()
		m.journalFsyncDur = expo.NewDurationHistogram()
		m.foldInDur = expo.NewDurationHistogram()
		m.replicaApplyDur = expo.NewDurationHistogram()
	})
}

// duration returns the request-duration histogram for endpoint (nil for an
// endpoint outside the fixed label set).
func (m *metrics) duration(endpoint string) *expo.Histogram {
	m.init()
	return m.reqDur[endpoint]
}

// requests returns the request counter for endpoint.
func (m *metrics) requests(endpoint string) *atomic.Int64 {
	m.init()
	return m.req[endpoint]
}

// errors returns the error counter for endpoint.
func (m *metrics) errors(endpoint string) *atomic.Int64 {
	m.init()
	return m.errs[endpoint]
}

// handler renders the counters in the Prometheus text exposition format,
// plus gauges describing the current snapshot. repl samples the replication
// role and progress; mapped samples the bytes of model files served from
// memory mappings.
func (m *metrics) handler(snap func() *snapshot, repl func() replSample, mapped func() int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		e := expo.NewExpo(w)
		m.render(e, snap, repl, mapped)
		renderRuntime(e)
	}
}

// render writes every server-scoped family into e — all the counters,
// histograms, and model gauges, but not the process-wide runtime block.
// The split is what multi-model serving builds on: a registry renders each
// tenant through render under its own constant model label, then appends
// the runtime families once for the whole process (see registry.go).
func (m *metrics) render(e *expo.Expo, snap func() *snapshot, repl func() replSample, mapped func() int64) {
	m.init()

	labels := append([]string(nil), endpoints...)
	sort.Strings(labels)
	byEndpoint := func(counters map[string]*atomic.Int64) func(func(string, int64)) {
		return func(sample func(string, int64)) {
			for _, l := range labels {
				sample(l, counters[l].Load())
			}
		}
	}
	e.CounterVec("ptucker_requests_total", "Requests received, by endpoint.", "endpoint", byEndpoint(m.req))
	e.CounterVec("ptucker_errors_total", "Requests answered with an error, by endpoint.", "endpoint", byEndpoint(m.errs))
	histLabels := append([]string(nil), histEndpoints...)
	sort.Strings(histLabels)
	e.HistogramVec("ptucker_request_duration_seconds", "Wall-clock request latency, by endpoint.", "endpoint",
		func(sample func(string, *expo.Histogram)) {
			for _, l := range histLabels {
				sample(l, m.reqDur[l])
			}
		})
	e.Counter("ptucker_predictions_total", "Tensor cells scored across all paths.", m.predictions.Load())
	e.Counter("ptucker_reloads_total", "Successful model reloads.", m.reloads.Load())
	e.Counter("ptucker_observations_total", "Observations accepted via /v1/observe.", m.observations.Load())
	e.Counter("ptucker_foldins_total", "New rows folded into the served model.", m.foldIns.Load())
	e.Counter("ptucker_refits_total", "Background warm refits published.", m.refits.Load())
	e.Counter("ptucker_refit_errors_total", "Background warm refits that failed.", m.refitErrors.Load())
	e.GaugeInt("ptucker_refit_state", "Background refit lifecycle: 0 idle, 1 fitting, 2 publishing.", m.refitState.Load())
	e.GaugeInt("ptucker_refit_iteration", "Latest ALS iteration completed by the in-flight (or last) background refit.", m.refitIter.Load())
	e.Gauge("ptucker_refit_fit_error", "Training reconstruction error at the refit's latest completed iteration.", math.Float64frombits(m.refitFitError.Load()))
	e.Gauge("ptucker_refit_last_duration_seconds", "Wall-clock seconds the last published background refit took.", math.Float64frombits(m.refitLastSecs.Load()))
	e.Counter("ptucker_request_timeouts_total", "Requests cut off by the per-request timeout.", m.timeouts.Load())
	e.Counter("ptucker_journal_appends_total", "Observation batches journaled to the data directory.", m.journalAppends.Load())
	e.Histogram("ptucker_journal_append_duration_seconds", "Wall-clock seconds per journal append (encode + write + any inline fsync).", m.journalAppendDur)
	e.Histogram("ptucker_journal_fsync_duration_seconds", "Wall-clock seconds per journal fsync, across all sync policies.", m.journalFsyncDur)
	e.Histogram("ptucker_foldin_duration_seconds", "Wall-clock seconds per cold-start fold-in solve on the live path.", m.foldInDur)
	e.GaugeInt("ptucker_journal_replayed_records", "Journal records replayed at the last startup.", m.journalReplayed.Load())
	e.Counter("ptucker_journal_compactions_total", "Journal compactions into model + training snapshots.", m.compactions.Load())
	e.Counter("ptucker_journal_compaction_errors_total", "Compactions that failed (journal kept for replay).", m.compactionErrors.Load())
	e.Counter("ptucker_rebase_errors_total", "Reload re-bases that failed to persist (data dir may restart pre-reload).", m.rebaseErrors.Load())
	e.Counter("ptucker_auth_failures_total", "Mutating requests rejected for a missing or invalid bearer token.", m.authFailures.Load())
	if rs := repl(); rs.role != "" {
		switch rs.role {
		case "primary":
			e.GaugeInt("ptucker_journal_stream_clients", "Journal-stream polls currently held open by followers.", rs.streamClients)
			e.Counter("ptucker_journal_stream_records_total", "Journal records shipped to followers.", m.streamRecords.Load())
			e.Counter("ptucker_journal_stream_bytes_total", "Journal frame bytes shipped to followers.", m.streamBytes.Load())
			e.Counter("ptucker_journal_bootstraps_served_total", "Bootstrap models shipped to followers.", m.bootstrapsServed.Load())
			e.GaugeInt("ptucker_primary_applied_seq", "Highest journal sequence applied to the primary's model.", int64(rs.appliedSeq))
		case "follower":
			e.Gauge("ptucker_replica_lag_seconds", "Seconds since this replica last applied a record or confirmed being caught up.", rs.lagSeconds)
			e.GaugeInt("ptucker_replica_applied_seq", "Highest primary journal sequence applied to this replica.", int64(rs.appliedSeq))
			e.Counter("ptucker_replica_bootstraps_total", "Times this replica bootstrapped (or re-bootstrapped) from its primary.", m.replicaBootstraps.Load())
			e.Counter("ptucker_replica_records_applied_total", "Primary journal records applied by this replica.", m.replicaRecords.Load())
			e.Histogram("ptucker_replica_apply_duration_seconds", "Wall-clock seconds this replica spent journaling and applying one streamed record.", m.replicaApplyDur)
			e.Counter("ptucker_replica_writes_rejected_total", "Write requests refused because this process is a read replica.", m.writesRejected.Load())
		}
	}
	if m.holdoutSet.Load() {
		e.Gauge("ptucker_holdout_rmse", "RMSE of the served model over the held-out set, re-scored after refits and reloads.", math.Float64frombits(m.holdoutRMSE.Load()))
	}

	s := snap()
	e.GaugeInt("ptucker_model_loaded_timestamp_seconds", "Unix time the serving snapshot was installed.", s.loadedAt.Unix())
	e.GaugeInt("ptucker_model_order", "Tensor order of the served model.", int64(s.order))
	e.GaugeInt("ptucker_model_core_nnz", "Live core-tensor entries of the served model (drops under Approx truncation and Sparsify pruning).", int64(s.coreNNZ))
	e.GaugeInt("ptucker_model_mapped_bytes", "Bytes of model files this server serves out of read-only memory mappings (0 when heap-loaded).", mapped())
}

// renderRuntime writes the process-wide runtime families, sampled at scrape
// time. A single-tenant scrape appends them after render; a multi-tenant
// scrape emits them once for the whole process, not once per model.
func renderRuntime(e *expo.Expo) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.GaugeInt("ptucker_goroutines", "Goroutines currently live in this process.", int64(runtime.NumGoroutine()))
	e.GaugeInt("ptucker_heap_alloc_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).", int64(ms.HeapAlloc))
	e.CounterFloat("ptucker_gc_pause_seconds_total", "Cumulative seconds the process spent in GC stop-the-world pauses.", float64(ms.PauseTotalNs)/1e9)
	e.Counter("ptucker_gc_cycles_total", "Completed GC cycles.", int64(ms.NumGC))
}

// Command ptucker-loadgen is a closed-loop load generator for ptucker-serve:
// a fixed number of connections each issue one request at a time — predict,
// predict-batch, recommend, or observe, in a configurable ratio — for a
// fixed duration, and the run is summarized as JSON: sustained QPS plus
// p50/p95/p99 latency, a full latency histogram (the serve layer's
// exponential duration buckets, in milliseconds), and the server-echoed
// X-Ptucker-Request-Id of the slowest request per operation — paste that ID
// into the server's log search to see the slow request's access-log line.
//
// Closed-loop means throughput is what the server actually sustains with
// -conns concurrent clients (each waits for its answer before sending the
// next request): the server scores each request on its own goroutine, so QPS
// grows with -conns until the server's cores saturate.
//
// The target's shape is discovered from /healthz; request indices are drawn
// uniformly from the advertised dims with a deterministic seed, so two runs
// against the same model issue the same queries. Observe requests append new
// values to existing cells only (never new rows), so the model's shape stays
// stable for the read traffic.
//
// With -replicas the read mix spreads round-robin across the primary and the
// listed follower addresses while writes (the observe mix) go only to the
// primary — a replication-aware harness: the per-target breakdown in the
// report shows whether reads scale linearly across the replica set. -token
// sends the primary's bearer token on observe requests.
//
// With -models the generator targets a multi-model server (ptucker-serve
// -models-dir): each tenant's shape is discovered from /m/<name>/healthz,
// and every request carries the X-Ptucker-Model header, round-robining
// across the listed tenants — mixed multi-tenant load in one run. -models
// and -replicas are mutually exclusive.
//
// Usage:
//
//	ptucker-loadgen -addr http://localhost:8080 -conns 64 -duration 30s \
//	    -mix predict=8,batch=1,recommend=1 -batch-size 32 -k 10 -out report.json
//	ptucker-loadgen -addr http://primary:8080 -replicas http://r1:8081,http://r2:8082 \
//	    -mix predict=16,recommend=2,observe=1 -token $TOKEN
//	ptucker-loadgen -addr http://localhost:8080 -models movies,music,books \
//	    -mix predict=8,batch=1,recommend=1,observe=1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// config is one load-generation run, separated from flag parsing so tests
// can drive runs in-process.
type config struct {
	Addr      string        // base URL of the primary (takes writes and reads)
	Replicas  []string      // follower base URLs; the read mix spreads over Addr + Replicas
	Models    []string      // tenant names on a multi-model server; requests round-robin across them (excludes Replicas)
	Token     string        // bearer token sent on observe requests (the primary's -auth-token)
	Conns     int           // concurrent closed-loop connections
	Duration  time.Duration // how long to generate load
	Mix       string        // weighted op mix, e.g. "predict=8,batch=1,recommend=1,observe=1"
	BatchSize int           // indices per predict-batch request
	K         int           // top-K size per recommend request
	Seed      int64         // RNG seed (per-connection streams derive from it)
	Timeout   time.Duration // per-request client timeout
}

// opNames are the generator's operations; mix weights refer to these.
// observe is the single write op: it always targets the primary.
var opNames = []string{"predict", "batch", "recommend", "observe"}

const opObserve = 3

// opReport summarizes one operation's latency distribution.
type opReport struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// SlowestRequestID is the server-echoed X-Ptucker-Request-Id of the
	// slowest successful request, correlating the report's MaxMs with the
	// server's own access-log line for that request.
	SlowestRequestID string `json:"slowest_request_id,omitempty"`
	// Histogram is the full latency distribution over the serve layer's
	// exponential duration buckets.
	Histogram *histReport `json:"histogram,omitempty"`
}

// histReport is a latency histogram: Counts[i] holds the requests with
// latency ≤ BoundsMs[i] (and > the previous bound — non-cumulative, unlike
// Prometheus exposition); the final extra element counts overflows past the
// last bound.
type histReport struct {
	BoundsMs []float64 `json:"bounds_ms"`
	Counts   []uint64  `json:"counts"`
}

// histogramOf buckets a latency series (nanoseconds) into the same
// exponential bounds the server's request-duration histograms use.
func histogramOf(latsNs []int64) *histReport {
	h := metrics.NewDurationHistogram()
	for _, ns := range latsNs {
		h.Observe(float64(ns) / 1e9)
	}
	s := h.Snapshot()
	hr := &histReport{BoundsMs: make([]float64, len(s.Bounds)), Counts: s.Counts}
	for i, b := range s.Bounds {
		hr.BoundsMs[i] = b * 1e3
	}
	return hr
}

// targetReport is one server's share of the run: its sustained QPS and
// per-op latency, so read scaling across replicas is measurable per box.
type targetReport struct {
	Requests int64                `json:"requests"`
	Errors   int64                `json:"errors"`
	QPS      float64              `json:"qps"`
	Ops      map[string]*opReport `json:"ops"`
}

// report is the run summary, marshaled as the tool's JSON output.
type report struct {
	Addr        string               `json:"addr"`
	Replicas    []string             `json:"replicas,omitempty"`
	Models      []string             `json:"models,omitempty"`
	Connections int                  `json:"connections"`
	DurationSec float64              `json:"duration_seconds"`
	Requests    int64                `json:"requests"`
	Errors      int64                `json:"errors"`
	QPS         float64              `json:"qps"`
	Ops         map[string]*opReport `json:"ops"`
	// Targets breaks the run down per server (keyed by base URL) when
	// replicas are configured.
	Targets map[string]*targetReport `json:"targets,omitempty"`
}

// connStats is one connection's private tally, merged after the run so the
// hot loop shares nothing. Series are indexed [target][op].
type connStats struct {
	count  [][4]int64
	errors [][4]int64
	lats   [][4][]int64 // nanoseconds
	maxLat [][4]int64   // slowest successful request, nanoseconds
	maxID  [][4]string  // its server-echoed request ID
}

func newConnStats(targets int) *connStats {
	return &connStats{
		count:  make([][4]int64, targets),
		errors: make([][4]int64, targets),
		lats:   make([][4][]int64, targets),
		maxLat: make([][4]int64, targets),
		maxID:  make([][4]string, targets),
	}
}

// parseMix reads "predict=8,batch=1,recommend=1,observe=1" into per-op
// weights. Ops omitted from the string get weight 0; at least one weight
// must be positive.
func parseMix(mix string) ([4]float64, error) {
	var w [4]float64
	total := 0.0
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return w, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || v < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for i, name := range opNames {
			if strings.TrimSpace(kv[0]) == name {
				w[i] = v
				found = true
				break
			}
		}
		if !found {
			return w, fmt.Errorf("unknown op %q (want predict, batch, recommend, or observe)", kv[0])
		}
		total += v
	}
	if total <= 0 {
		return w, fmt.Errorf("mix %q has no positive weight", mix)
	}
	return w, nil
}

// pickOp samples an operation index from the cumulative weights.
func pickOp(rng *rand.Rand, cum [4]float64) int {
	r := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if r < c {
			return i
		}
	}
	return len(cum) - 1
}

// healthResponse is the slice of /healthz the generator needs.
type healthResponse struct {
	Dims []int `json:"dims"`
}

// discoverDims asks /healthz for the served model's shape.
func discoverDims(client *http.Client, addr string) ([]int, error) {
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if len(h.Dims) == 0 {
		return nil, fmt.Errorf("healthz: server advertises no dims")
	}
	for k, d := range h.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("healthz: mode %d has dimension %d", k, d)
		}
	}
	return h.Dims, nil
}

// run executes one closed-loop load generation against cfg.Addr (+ replicas).
func run(cfg config) (*report, error) {
	if cfg.Conns <= 0 {
		return nil, fmt.Errorf("loadgen: need at least one connection")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive duration")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	weights, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	var cum [4]float64
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}

	if len(cfg.Models) > 0 && len(cfg.Replicas) > 0 {
		return nil, fmt.Errorf("loadgen: -models and -replicas cannot be combined")
	}

	// Target 0 is the primary; reads round-robin over all targets, writes
	// stick to 0.
	targets := append([]string{cfg.Addr}, cfg.Replicas...)

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Conns * len(targets),
			MaxIdleConnsPerHost: cfg.Conns,
		},
	}
	// The shape comes from the primary — the write authority; replicas
	// converge to it. On a multi-model server every tenant has its own shape,
	// discovered through its path prefix; the per-request round-robin then
	// routes via the model header against a tenant-matched generator.
	var dims []int
	dimsByModel := make(map[string][]int, len(cfg.Models))
	if len(cfg.Models) > 0 {
		for _, name := range cfg.Models {
			d, err := discoverDims(client, cfg.Addr+"/m/"+name)
			if err != nil {
				return nil, fmt.Errorf("model %s: %w", name, err)
			}
			dimsByModel[name] = d
		}
	} else {
		var err error
		dims, err = discoverDims(client, cfg.Addr)
		if err != nil {
			return nil, err
		}
	}

	stats := make([]*connStats, cfg.Conns)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conns; c++ {
		st := newConnStats(len(targets))
		stats[c] = st
		wg.Add(1)
		go func(conn int, st *connStats) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(conn)*7919))
			gen := requestGen{rng: rng, dims: dims, batch: cfg.BatchSize, k: cfg.K}
			// One generator per tenant: each model has its own shape, so
			// indices must come from the generator matching the routed model.
			gens := make(map[string]*requestGen, len(cfg.Models))
			for _, name := range cfg.Models {
				gens[name] = &requestGen{rng: rng, dims: dimsByModel[name], batch: cfg.BatchSize, k: cfg.K}
			}
			rr := conn // stagger the round-robin start across connections
			mr := conn // independent round-robin over models
			for time.Now().Before(deadline) {
				op := pickOp(rng, cum)
				ti := 0
				if op != opObserve && len(targets) > 1 {
					ti = rr % len(targets)
					rr++
				}
				model := ""
				g := &gen
				if len(cfg.Models) > 0 {
					model = cfg.Models[mr%len(cfg.Models)]
					mr++
					g = gens[model]
				}
				path, body := g.next(op)
				token := ""
				if op == opObserve {
					token = cfg.Token
				}
				t0 := time.Now()
				ok, reqID := post(client, targets[ti]+path, body, token, model)
				lat := time.Since(t0)
				st.count[ti][op]++
				if !ok {
					st.errors[ti][op]++
					continue
				}
				ns := lat.Nanoseconds()
				st.lats[ti][op] = append(st.lats[ti][op], ns)
				if ns > st.maxLat[ti][op] {
					st.maxLat[ti][op] = ns
					st.maxID[ti][op] = reqID
				}
			}
		}(c, st)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{
		Addr:        cfg.Addr,
		Replicas:    cfg.Replicas,
		Models:      cfg.Models,
		Connections: cfg.Conns,
		DurationSec: elapsed.Seconds(),
		Ops:         make(map[string]*opReport, len(opNames)),
	}
	if len(targets) > 1 {
		rep.Targets = make(map[string]*targetReport, len(targets))
	}
	summarize := func(ti int) *targetReport {
		tr := &targetReport{Ops: make(map[string]*opReport, len(opNames))}
		for i, name := range opNames {
			var merged []int64
			op := &opReport{}
			var slowest int64
			for _, st := range stats {
				op.Count += st.count[ti][i]
				op.Errors += st.errors[ti][i]
				merged = append(merged, st.lats[ti][i]...)
				if st.maxLat[ti][i] > slowest {
					slowest = st.maxLat[ti][i]
					op.SlowestRequestID = st.maxID[ti][i]
				}
			}
			if op.Count == 0 {
				continue
			}
			sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
			op.P50Ms = percentileMs(merged, 0.50)
			op.P95Ms = percentileMs(merged, 0.95)
			op.P99Ms = percentileMs(merged, 0.99)
			if n := len(merged); n > 0 {
				op.MaxMs = float64(merged[n-1]) / 1e6
			}
			op.Histogram = histogramOf(merged)
			tr.Ops[name] = op
			tr.Requests += op.Count
			tr.Errors += op.Errors
		}
		if elapsed.Seconds() > 0 {
			tr.QPS = float64(tr.Requests-tr.Errors) / elapsed.Seconds()
		}
		return tr
	}
	for ti, addr := range targets {
		tr := summarize(ti)
		if rep.Targets != nil {
			rep.Targets[addr] = tr
		}
		rep.Requests += tr.Requests
		rep.Errors += tr.Errors
		for name, op := range tr.Ops {
			agg, ok := rep.Ops[name]
			if !ok {
				copyOp := *op
				if op.Histogram != nil {
					// Deep-copy the histogram: the aggregate keeps summing
					// into it and must not corrupt the per-target report.
					copyOp.Histogram = &histReport{
						BoundsMs: op.Histogram.BoundsMs,
						Counts:   append([]uint64(nil), op.Histogram.Counts...),
					}
				}
				rep.Ops[name] = &copyOp
				continue
			}
			// Aggregate counts exactly; approximate the combined quantiles
			// by the worst target's (conservative for an SLO check).
			agg.Count += op.Count
			agg.Errors += op.Errors
			agg.P50Ms = maxf(agg.P50Ms, op.P50Ms)
			agg.P95Ms = maxf(agg.P95Ms, op.P95Ms)
			if op.MaxMs > agg.MaxMs {
				agg.SlowestRequestID = op.SlowestRequestID
			}
			agg.P99Ms = maxf(agg.P99Ms, op.P99Ms)
			agg.MaxMs = maxf(agg.MaxMs, op.MaxMs)
			if agg.Histogram != nil && op.Histogram != nil {
				for bi, c := range op.Histogram.Counts {
					agg.Histogram.Counts[bi] += c
				}
			}
		}
	}
	if rep.DurationSec > 0 {
		rep.QPS = float64(rep.Requests-rep.Errors) / rep.DurationSec
	}
	return rep, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// percentileMs reads the q-th quantile (nearest-rank on a sorted series) in
// milliseconds.
func percentileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

// requestGen builds random valid request bodies against the served shape.
type requestGen struct {
	rng   *rand.Rand
	dims  []int
	batch int
	k     int
}

func (g *requestGen) index() []int {
	idx := make([]int, len(g.dims))
	for k, d := range g.dims {
		idx[k] = g.rng.Intn(d)
	}
	return idx
}

// next returns the endpoint path and JSON body for one request of op.
func (g *requestGen) next(op int) (string, []byte) {
	switch op {
	case 0:
		body, _ := json.Marshal(struct {
			Index []int `json:"index"`
		}{g.index()})
		return "/v1/predict", body
	case 1:
		idxs := make([][]int, g.batch)
		for i := range idxs {
			idxs[i] = g.index()
		}
		body, _ := json.Marshal(struct {
			Indexes [][]int `json:"indexes"`
		}{idxs})
		return "/v1/predict-batch", body
	case opObserve:
		// Appends to existing cells only: indices stay inside the
		// advertised dims, so the shape the read traffic was generated
		// against never shifts under it.
		type obs struct {
			Index []int   `json:"index"`
			Value float64 `json:"value"`
		}
		batch := make([]obs, 4)
		for i := range batch {
			batch[i] = obs{Index: g.index(), Value: g.rng.Float64()}
		}
		body, _ := json.Marshal(struct {
			Observations []obs `json:"observations"`
		}{batch})
		return "/v1/observe", body
	default:
		q := g.index()
		mode := g.rng.Intn(len(g.dims))
		body, _ := json.Marshal(struct {
			Query []int `json:"query"`
			Mode  int   `json:"mode"`
			K     int   `json:"k"`
		}{q, mode, g.k})
		return "/v1/recommend", body
	}
}

// post issues one request and reports success plus the server-echoed
// request ID. A non-empty model routes the request on a multi-model server
// via the X-Ptucker-Model header. The body is drained so the transport can
// reuse the connection — essential for closed-loop throughput.
func post(client *http.Client, url string, body []byte, token, model string) (bool, string) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, ""
	}
	req.Header.Set("Content-Type", "application/json")
	if model != "" {
		req.Header.Set("X-Ptucker-Model", model)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, ""
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, resp.Header.Get(obs.RequestIDHeader)
}

// parseReplicas splits a comma-separated list (-replicas URLs or -models
// names) into trimmed entries.
func parseReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		if r != "" {
			out = append(out, r)
		}
	}
	return out
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "base URL of the primary ptucker-serve instance")
		replicas = flag.String("replicas", "", "comma-separated follower base URLs; the read mix spreads across primary + replicas, writes stay on the primary")
		models   = flag.String("models", "", "comma-separated tenant names on a multi-model server; requests round-robin across them via the X-Ptucker-Model header")
		token    = flag.String("token", "", "bearer token sent on observe requests (the primary's -auth-token)")
		conns    = flag.Int("conns", 32, "concurrent closed-loop connections")
		duration = flag.Duration("duration", 30*time.Second, "how long to generate load")
		mix      = flag.String("mix", "predict=8,batch=1,recommend=1", "weighted op mix (predict, batch, recommend, observe)")
		batch    = flag.Int("batch-size", 16, "indices per predict-batch request")
		k        = flag.Int("k", 10, "top-K per recommend request")
		seed     = flag.Int64("seed", 1, "RNG seed (per-connection streams derive from it)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		out      = flag.String("out", "", "write the JSON report here instead of stdout")
		failErrs = flag.Bool("fail-on-errors", false, "exit non-zero if any request errored")
	)
	flag.Parse()

	rep, err := run(config{
		Addr:      strings.TrimRight(*addr, "/"),
		Replicas:  parseReplicas(*replicas),
		Models:    parseReplicas(*models),
		Token:     *token,
		Conns:     *conns,
		Duration:  *duration,
		Mix:       *mix,
		BatchSize: *batch,
		K:         *k,
		Seed:      *seed,
		Timeout:   *timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptucker-loadgen: %v\n", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptucker-loadgen: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ptucker-loadgen: %v\n", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if *failErrs && rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "ptucker-loadgen: %d of %d requests errored\n", rep.Errors, rep.Requests)
		os.Exit(1)
	}
}

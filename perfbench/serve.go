package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

const (
	serveConns     = 2     // closed-loop connections (= nproc of the reference box)
	roundOps       = 12000 // requests a round sends, before the fold-in checks
	warmupOps      = 100   // untimed predicts per connection after start-up
	backlogRecords = 10000 // observe batches in the journal a server starts over
	minRounds      = 3     // fewest server rounds a run measures
)

// obsBatch is one observe batch of the backlog: an append, or a fold-in of
// a new user.
type obsBatch struct {
	obs  []core.Observation
	fold bool
}

// request is one op with its encoded body and the answer the served model
// must give (reads only; observes are checked by their fold-in result).
type request struct {
	op   op
	body []byte
	want any // float64, []float64, []core.Rec, or the folded user id
}

// serveSetup is everything a serve-mixed round starts from; it is built
// once per run and identical for every round.
type serveSetup struct {
	model    string // served model file (mapped by the server)
	backlog  string // pristine journal backlog
	scripts  [serveConns][]request
	replayed *core.Fitter // in-process replay after the backlog and the scripts
	afterLog *core.Model  // served model after the backlog replay
	order    int
	tmpRoot  string
	serveBin string
}

// newServeSetup generates the backlog and the request scripts of a seed and
// computes every expected answer by replaying the same batches in process
// with ResumeFitter and FoldIn.
func newServeSetup(opts options, cache *inputCache) (*serveSetup, error) {
	modelPath, err := cache.servedModel()
	if err != nil {
		return nil, err
	}
	m, err := core.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	dims := make([]int, m.Order())
	for k, a := range m.Factors {
		dims[k] = a.Rows()
	}
	users, items := popularity(0), popularity(1)

	brng := rand.New(rand.NewSource(opts.seed ^ 0xbac4))
	bgen := newOpGen(brng, dims, newPowerLaw(brng, users).next, newPowerLaw(brng, items).next)
	batches := make([]obsBatch, backlogRecords)
	for i := range batches {
		o := bgen.observe()
		batches[i] = obsBatch{obs: o.obs, fold: o.kind == opFoldIn}
	}
	backlog, err := cache.backlogFile(batches)
	if err != nil {
		return nil, err
	}

	cfg := m.Config
	f, err := core.ResumeFitter(m, cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		if b.fold {
			_, err = f.FoldIn(foldMode, b.obs)
		} else {
			err = f.Observe(b.obs)
		}
		if err != nil {
			return nil, fmt.Errorf("backlog replay: %w", err)
		}
	}
	afterLog := f.Snapshot()
	base := core.NewPredictor(afterLog)

	// Reads and appends stay on the rows that exist at start-up; fold-ins
	// continue the user ids after the backlog's. Fold-ins all go to
	// connection 0, in order, each followed by a predict of the new user.
	rrng := rand.New(rand.NewSource(opts.seed ^ 0x7e9))
	gen := newOpGen(rrng, dims, newPowerLaw(rrng, users).next, newPowerLaw(rrng, items).next)
	gen.nextUser = bgen.nextUser
	s := &serveSetup{model: modelPath, backlog: backlog, replayed: f, afterLog: afterLog, order: m.Order(),
		tmpRoot: opts.dir("tmp"), serveBin: filepath.Join(opts.dir("bin"), "ptucker-serve")}
	pred := base
	conn := 0
	for i := 0; i < roundOps; i++ {
		o := gen.next()
		if o.kind == opFoldIn {
			u, err := f.FoldIn(foldMode, o.obs)
			if err != nil {
				return nil, fmt.Errorf("fold-in replay: %w", err)
			}
			pred = core.NewPredictor(f.Snapshot())
			check := op{kind: opPredict, index: append([]int(nil), o.obs[0].Index...)}
			fold, err := newRequest(o, nil)
			if err != nil {
				return nil, err
			}
			fold.want = u
			read, err := newRequest(check, pred)
			if err != nil {
				return nil, err
			}
			s.scripts[0] = append(s.scripts[0], fold, read)
			continue
		}
		p := base
		if conn == 0 {
			p = pred
		}
		r, err := newRequest(o, p)
		if err != nil {
			return nil, err
		}
		s.scripts[conn] = append(s.scripts[conn], r)
		conn = 1 - conn
	}
	return s, nil
}

// newRequest encodes o and, for a read, records its expected answer from p.
func newRequest(o op, p *core.Predictor) (request, error) {
	r := request{op: o}
	var body any
	switch o.kind {
	case opPredict:
		body = map[string]any{"index": o.index}
		r.want = p.Predict(o.index)
	case opBatch:
		body = map[string]any{"indexes": o.indexes}
		r.want = p.PredictBatch(o.indexes)
	case opRecommend:
		body = map[string]any{"query": o.query, "mode": recMode, "k": recK, "exclude": o.exclude}
		recs, err := p.Recommender().TopKExcluding(o.query, recMode, recK, o.exclude)
		if err != nil {
			return r, err
		}
		r.want = recs
	case opObserve, opFoldIn:
		body = map[string]any{"observations": o.obs}
	}
	b, err := json.Marshal(body)
	r.body = b
	return r, err
}

// check compares a 200 answer with the expected one, bit for bit.
func (r request) check(body []byte) error {
	switch want := r.want.(type) {
	case float64:
		var got struct{ Value float64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if math.Float64bits(got.Value) != math.Float64bits(want) {
			return fmt.Errorf("predict %v = %v, in-process replay gives %v", r.op.index, got.Value, want)
		}
	case []float64:
		var got struct{ Values []float64 }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Values) != len(want) {
			return fmt.Errorf("predict-batch answered %d values, want %d", len(got.Values), len(want))
		}
		for i := range want {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("predict-batch item %d = %v, in-process replay gives %v", i, got.Values[i], want[i])
			}
		}
	case []core.Rec:
		var got struct{ Recs []core.Rec }
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Recs) != len(want) {
			return fmt.Errorf("recommend answered %d items, want %d", len(got.Recs), len(want))
		}
		for i := range want {
			if got.Recs[i].Index != want[i].Index || math.Float64bits(got.Recs[i].Score) != math.Float64bits(want[i].Score) {
				return fmt.Errorf("recommend rank %d = %+v, in-process replay gives %+v", i, got.Recs[i], want[i])
			}
		}
	case int:
		var got struct {
			Folded []struct{ Mode, Index int }
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Folded) != 1 || got.Folded[0].Mode != foldMode || got.Folded[0].Index != want {
			return fmt.Errorf("fold-in answered %s, want user %d folded", body, want)
		}
	}
	return nil
}

// roundResult is what one server round measured.
type roundResult struct {
	setupS float64
	rssMB  float64
	timedS float64
	lat    [numOpKinds][]float64 // client latency, seconds
	before scrape
	after  scrape
	traced bool
}

// runRound starts a fresh ptucker-serve over a fresh copy of the backlog,
// waits until /healthz answers, sends the scripts over serveConns
// closed-loop connections, and stops the server. Every request is one op;
// a non-200 answer, a transport error or a wrong answer fails it.
func (s *serveSetup) runRound(round int, traced bool, o *outcome, tr *tracer) (*roundResult, error) {
	if err := os.MkdirAll(s.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(s.tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	data := filepath.Join(dir, "data")
	if err := os.Mkdir(data, 0o755); err != nil {
		return nil, err
	}
	if err := copyFile(s.backlog, filepath.Join(data, store.JournalFile)); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
	defer client.CloseIdleConnections()

	rr := &roundResult{traced: traced}
	rootSpan := tr.begin("serve.round", 0)
	defer tr.end(rootSpan)

	sp := tr.begin("serve.start", rootSpan)
	cmd := exec.Command(s.serveBin, "-model", s.model, "-mmap", "-data-dir", data, "-addr", addr, "-log-level", "warn")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ptucker-serve: %w", err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	if err := waitReady(client, base, 60*time.Second); err != nil {
		return nil, err
	}
	rr.setupS = time.Since(start).Seconds()
	tr.end(sp)

	warm := 0
	for _, r := range s.scripts[1] {
		if warm == warmupOps*serveConns {
			break
		}
		if r.op.kind == opPredict {
			if _, _, err := post(client, base, r, ""); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			warm++
		}
	}

	if rr.before, err = scrapeMetrics(client, base, tr, rootSpan, "serve.scrape.before"); err != nil {
		return nil, err
	}
	replayed := rr.before["ptucker_journal_replayed_records"]
	o.attempted++
	if replayed != backlogRecords {
		o.fail("round %d: server replayed %v journal records, backlog holds %d", round, replayed, backlogRecords)
	}

	// The client's own garbage collector stays off while requests are
	// timed, so the load generator's GC pauses never land on the server's
	// latencies; a round allocates far less than the memory it would need.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	phase := tr.begin("serve.timed", rootSpan)
	var (
		wg     sync.WaitGroup
		bodies [serveConns][][]byte
		lat    [serveConns][]float64
		status [serveConns][]int
		errs   [serveConns][]error
	)
	t0 := time.Now()
	for c := 0; c < serveConns; c++ {
		c := c
		script := s.scripts[c]
		bodies[c] = make([][]byte, len(script))
		lat[c] = make([]float64, len(script))
		status[c] = make([]int, len(script))
		errs[c] = make([]error, len(script))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range script {
				id := ""
				if traced {
					id = "r" + strconv.Itoa(round) + "-c" + strconv.Itoa(c) + "-" + strconv.Itoa(i)
				}
				q0 := time.Now()
				status[c][i], bodies[c][i], errs[c][i] = post(client, base, r, id)
				q1 := time.Now()
				lat[c][i] = q1.Sub(q0).Seconds()
				if traced {
					tr.add(span{Name: "request." + r.op.kind.endpoint(), Parent: phase, Start: q0.UnixNano(), End: q1.UnixNano(), ReqID: id})
				}
			}
		}()
	}
	wg.Wait()
	rr.timedS = time.Since(t0).Seconds()
	tr.end(phase)
	debug.SetGCPercent(gcPercent)

	if rr.after, err = scrapeMetrics(client, base, tr, rootSpan, "serve.scrape.after"); err != nil {
		return nil, err
	}

	if rr.rssMB, err = peakRSSMB(strconv.Itoa(cmd.Process.Pid)); err != nil {
		return nil, err
	}
	sp = tr.begin("serve.stop", rootSpan)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	waitErr := cmd.Wait()
	exited = true
	tr.end(sp)
	if waitErr != nil {
		return nil, fmt.Errorf("ptucker-serve exited: %w", waitErr)
	}

	for c := 0; c < serveConns; c++ {
		for i, r := range s.scripts[c] {
			o.attempted++
			switch {
			case errs[c][i] != nil:
				o.fail("round %d conn %d request %d (%s): %v", round, c, i, r.op.kind.endpoint(), errs[c][i])
				continue
			case status[c][i] != http.StatusOK:
				o.fail("round %d conn %d request %d (%s): HTTP %d: %s", round, c, i, r.op.kind.endpoint(), status[c][i], bodies[c][i])
				continue
			}
			if err := r.check(bodies[c][i]); err != nil {
				o.fail("round %d conn %d request %d: %v", round, c, i, err)
				continue
			}
			rr.lat[r.op.kind] = append(rr.lat[r.op.kind], lat[c][i])
		}
	}
	return rr, nil
}

// post sends one request and returns the status and body. A transport
// error returns a nil body.
func post(client *http.Client, base string, r request, id string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/"+r.op.kind.endpoint(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// waitReady polls /healthz every millisecond until it answers 200.
func waitReady(client *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ptucker-serve not ready after %v: %v", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func scrapeMetrics(client *http.Client, base string, tr *tracer, parent int, name string) (scrape, error) {
	sp := tr.begin(name, parent)
	defer tr.end(sp)
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(body)
}

// freeAddr returns a loopback address with a port the kernel just handed
// out.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func runServeWorkload(opts options) (*outcome, error) {
	cache, err := openCache(opts.dir("inputs"), opts.seed)
	if err != nil {
		return nil, err
	}
	input, err := cache.tensorFile(skewSpec)
	if err != nil {
		return nil, err
	}
	if err := printStats(cache, skewSpec); err != nil {
		return nil, err
	}
	s, err := newServeSetup(opts, cache)
	if err != nil {
		return nil, err
	}
	fmt.Printf("served model: core nnz %d, dims after backlog %v; backlog %d records; %d + %d requests per round\n",
		s.afterLog.Core.NNZ(), s.replayed.Dims(), backlogRecords, len(s.scripts[0]), len(s.scripts[1]))

	var tr *tracer
	if opts.traced {
		tr = &tracer{}
	}
	o := newOutcome()
	start := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))

	var fits fitRuns
	if !opts.traced {
		// The fit metrics of serve-mixed describe the fit of the model it
		// serves: fits take the first two fifths of the budget, server
		// rounds the rest.
		fits = runFits(opts, skewSpec, input, budget*2/5, o, nil)
	}

	var rounds []*roundResult
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		traced := opts.traced && i%2 == 1
		rr, err := s.runRound(i, traced, o, tr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, rr)
	}

	if !opts.traced {
		if len(fits.plain) > 0 {
			setFitMetrics(o, fits.plain)
		}
		setServeMetrics(o, rounds)
		return o, nil
	}
	if err := s.setServeLayers(o, rounds, tr); err != nil {
		return nil, err
	}
	return o, tr.write(traceFile(opts))
}

// pooled gathers the client latencies of the given kinds over rounds.
func pooled(rounds []*roundResult, kinds ...opKind) []float64 {
	var v []float64
	for _, r := range rounds {
		for _, k := range kinds {
			v = append(v, r.lat[k]...)
		}
	}
	return v
}

// setServeMetrics reports the serving end-to-end metrics: start-up time and
// server RSS as medians over the run's rounds, and throughput and client
// latency percentiles as means over rounds of each round's value. Every
// round is a fresh server process, and a process's placement can shift all
// of its requests at once; the mean follows the mix of such rounds where a
// median would flip between them.
func setServeMetrics(o *outcome, rounds []*roundResult) {
	over := func(stat func([]float64) float64, f func(r *roundResult) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return stat(v)
	}
	perRound := func(f func(r *roundResult) float64) float64 { return over(mean, f) }
	latency := func(p float64, kinds ...opKind) float64 {
		return 1e3 * perRound(func(r *roundResult) float64 { return percentile(pooled([]*roundResult{r}, kinds...), p) })
	}
	o.set("setup_s", "s", over(median, func(r *roundResult) float64 { return r.setupS }))
	o.set("peak_rss_mb", "MiB", over(median, func(r *roundResult) float64 { return r.rssMB }))
	o.set("ops_per_s", "1/s", perRound(func(r *roundResult) float64 { return r.rate() }))
	o.set("predict_p50_ms", "ms", latency(50, opPredict))
	o.set("batch_p50_ms", "ms", latency(50, opBatch))
	o.set("recommend_p50_ms", "ms", latency(50, opRecommend))
	o.set("observe_p50_ms", "ms", latency(50, opObserve))
	o.set("foldin_p50_ms", "ms", latency(50, opFoldIn))
	o.set("read_tail_ms", "ms", latency(tailPct, opPredict, opBatch, opRecommend))
	o.set("write_tail_ms", "ms", latency(tailPct, opObserve, opFoldIn))
	reads := pooled(rounds[:1], opPredict, opBatch, opRecommend)
	writes := pooled(rounds[:1], opObserve, opFoldIn)
	fmt.Printf("%d rounds of %d reads and %d writes; per-round tails (mean over rounds): read p95 %.4g ms, p99 %.4g ms; write p95 %.4g ms, p99 %.4g ms; samples beyond p95: %d reads, %d writes\n",
		len(rounds), len(reads), len(writes),
		latency(95, opPredict, opBatch, opRecommend), latency(99, opPredict, opBatch, opRecommend),
		latency(95, opObserve, opFoldIn), latency(99, opObserve, opFoldIn),
		beyond(reads, percentile(reads, tailPct)), beyond(writes, percentile(writes, tailPct)))
}

// rate is the round's completed requests per second over its timed phase.
func (r *roundResult) rate() float64 {
	var ops float64
	for k := range r.lat {
		ops += float64(len(r.lat[k]))
	}
	return ops / r.timedS
}

// setServeLayers derives the serving per-layer metrics of a traced run from
// the traced rounds' /metrics deltas and request spans, and probes the
// layers under start-up and the read kernels in process.
func (s *serveSetup) setServeLayers(o *outcome, rounds []*roundResult, tr *tracer) error {
	var traced, plain []*roundResult
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	perRound := func(f func(r *roundResult) float64) float64 {
		v := make([]float64, len(traced))
		for i, r := range traced {
			v[i] = f(r)
		}
		return median(v)
	}
	hist := func(family, labels string, scale float64) float64 {
		return perRound(func(r *roundResult) float64 { return scale * histMean(r.before, r.after, family, labels) })
	}
	o.set("core.foldin_us", "us", hist("ptucker_foldin_duration_seconds", "", 1e6))
	o.set("store.journal_append_us", "us", hist("ptucker_journal_append_duration_seconds", "", 1e6))
	o.set("store.fsync_ms", "ms", hist("ptucker_journal_fsync_duration_seconds", "", 1e3))
	o.set("store.fsyncs", "count", perRound(func(r *roundResult) float64 {
		_, n := histDelta(r.before, r.after, "ptucker_journal_fsync_duration_seconds", "")
		return n
	}))
	o.set("store.replay_records", "count", perRound(func(r *roundResult) float64 { return r.before["ptucker_journal_replayed_records"] }))
	o.set("serve.coalesce_batch", "count", hist("ptucker_coalescer_flush_size", "{", 1))
	o.set("serve.coalesce_flush_us", "us", hist("ptucker_coalescer_flush_duration_seconds", "{", 1e6))
	o.set("serve.gc_cycles", "count", perRound(func(r *roundResult) float64 { return delta(r.before, r.after, "ptucker_gc_cycles_total") }))
	o.set("serve.gc_pause_ms", "ms", perRound(func(r *roundResult) float64 {
		return 1e3 * delta(r.before, r.after, "ptucker_gc_pause_seconds_total")
	}))
	for _, ep := range []string{"predict", "predict-batch", "recommend", "observe"} {
		labels := `{endpoint="` + ep + `"}`
		handle := hist("ptucker_request_duration_seconds", labels, 1e6)
		client := 1e6 * mean(tr.durations("request."+ep))
		o.set("serve.handle_us."+ep, "us", handle)
		o.set("serve.transport_us."+ep, "us", client-handle)
	}
	if len(plain) > 0 && len(traced) > 0 {
		rate := func(rs []*roundResult) float64 {
			v := make([]float64, len(rs))
			for i, r := range rs {
				v[i] = r.rate()
			}
			return median(v)
		}
		o.set("trace.overhead_pct", "%", 100*(rate(plain)/rate(traced)-1))
	}
	return s.serveProbes(o, tr)
}

// serveProbes times, in process and each under a span: opening the served
// model with mmap, replaying the backlog journal, Fitter.Snapshot of the
// grown model, and the read kernels replaying the run's own requests on the
// served model.
func (s *serveSetup) serveProbes(o *outcome, tr *tracer) error {
	root := tr.begin("probes", 0)
	defer tr.end(root)
	timed := func(name string, reps int, fn func() error) (float64, error) {
		d := make([]float64, reps)
		for i := range d {
			sp := tr.begin(name, root)
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			d[i] = time.Since(t0).Seconds()
			tr.end(sp)
		}
		return median(d), nil
	}
	open, err := timed("probe.store.model_open", 5, func() error {
		src, err := store.OpenModel(s.model, true)
		if err != nil {
			return err
		}
		return src.Close()
	})
	if err != nil {
		return err
	}
	o.set("store.model_open_ms", "ms", 1e3*open)

	dir, err := os.MkdirTemp(s.tmpRoot, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	copyPath := filepath.Join(dir, store.JournalFile)
	if err := copyFile(s.backlog, copyPath); err != nil {
		return err
	}
	j, err := store.OpenJournal(copyPath, s.order, store.SyncPolicy{Mode: store.SyncNone})
	if err != nil {
		return err
	}
	defer j.Close()
	replay, err := timed("probe.store.replay", 3, func() error {
		return j.Replay(func(store.Record) error { return nil })
	})
	if err != nil {
		return err
	}
	o.set("store.replay_s", "s", replay)

	snap, _ := timed("probe.core.snapshot", 5, func() error { s.replayed.Snapshot(); return nil })
	o.set("core.snapshot_ms", "ms", 1e3*snap)

	pred := core.NewPredictor(s.replayed.Snapshot())
	rec := pred.Recommender()
	var lat [numOpKinds][]float64
	sp := tr.begin("probe.core.kernels", root)
	for _, script := range s.scripts {
		for _, r := range script {
			t0 := time.Now()
			switch r.op.kind {
			case opPredict:
				sink += pred.Predict(r.op.index)
			case opBatch:
				sink += pred.PredictBatch(r.op.indexes)[0]
			case opRecommend:
				if _, err := rec.TopKExcluding(r.op.query, recMode, recK, r.op.exclude); err != nil {
					return err
				}
			default:
				continue
			}
			lat[r.op.kind] = append(lat[r.op.kind], time.Since(t0).Seconds())
		}
	}
	tr.end(sp)
	o.set("core.predict_us", "us", 1e6*mean(lat[opPredict]))
	o.set("core.batch_us", "us", 1e6*mean(lat[opBatch]))
	o.set("core.recommend_us", "us", 1e6*mean(lat[opRecommend]))
	return nil
}

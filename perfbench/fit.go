package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/tensor"
)

const (
	minFits = 3     // fewest fits a run measures, however long they take
	libOps  = 20000 // ops of the in-process serving pass after each fit
	probes  = 3     // repetitions of each traced probe (median reported)
)

// fitChildResult is what one fit child process reports to its parent.
type fitChildResult struct {
	SetupS     float64 `json:"setup_s"`
	FitS       float64 `json:"fit_s"`
	FitCPUS    float64 `json:"fit_cpu_s"`
	TestRMSE   float64 `json:"test_rmse"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Threads    int     `json:"threads"`

	Reached     bool    `json:"reached"`
	Iters       int     `json:"iters"`
	IterCoreNNZ []int   `json:"iter_core_nnz"`
	CoreNNZ     int     `json:"core_nnz"`
	Omega       int     `json:"omega"`
	Dims        []int   `json:"dims"`
	Imbalance   float64 `json:"work_imbalance"`
	InterMB     float64 `json:"intermediate_mb"`

	Lib   *libServe `json:"lib"`
	Spans []span    `json:"spans,omitempty"`
}

// fitChildMain is the body of a fit child process: set up, fit to the
// target, score, run the in-process serving pass and, when traced, the
// probes; the result goes to stdout as one JSON object.
func fitChildMain(opts options, input string) int {
	spec := plainSpec
	if opts.workload == skewSpec.name {
		spec = skewSpec
	}
	res, err := runFitChild(opts, spec, input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fit child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench fit child:", err)
		return 2
	}
	return 0
}

func runFitChild(opts options, spec workloadSpec, input string) (*fitChildResult, error) {
	var tr *tracer
	if opts.traced {
		tr = &tracer{}
	}
	heap := startHeapPeak()

	t0 := time.Now()
	sp := tr.begin("tensor.read", 0)
	x, err := tensor.ReadFile(input, spec.order, spec.dims)
	if err != nil {
		return nil, err
	}
	train, test := splitInput(x, opts.seed, spec.seenOnly)
	tr.end(sp)
	setup := time.Since(t0)
	x = nil

	cfg := spec.fitConfig(opts.threads)
	norm := train.Norm()
	var (
		stats   []core.IterStats
		hookAt  []time.Time
		reached bool
	)
	cfg.OnIteration = func(st core.IterStats) error {
		hookAt = append(hookAt, time.Now())
		stats = append(stats, st)
		if st.Error/norm <= spec.target {
			reached = true
			return core.ErrStopIteration
		}
		return nil
	}
	cpu0 := cpuSeconds()
	fitStart := time.Now()
	m, err := core.DecomposeContext(context.Background(), train, cfg)
	fitEnd := time.Now()
	cpu1 := cpuSeconds()
	if err != nil {
		return nil, err
	}
	peakHeap := heap.stop()
	peakRSS, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}

	res := &fitChildResult{
		SetupS:     setup.Seconds(),
		FitS:       fitEnd.Sub(fitStart).Seconds(),
		FitCPUS:    cpu1 - cpu0,
		PeakHeapMB: float64(peakHeap) / (1 << 20),
		PeakRSSMB:  peakRSS,
		Threads:    opts.threads,
		Reached:    reached,
		Iters:      len(stats),
		CoreNNZ:    m.Core.NNZ(),
		Omega:      train.NNZ(),
		Dims:       append([]int(nil), train.Dims()...),
		Imbalance:  maxOverMean(m.WorkPerThread),
		InterMB:    float64(m.IntermediateBytes) / (1 << 20),
		TestRMSE:   m.RMSE(test),
	}
	for _, st := range stats {
		res.IterCoreNNZ = append(res.IterCoreNNZ, st.CoreNNZ)
	}

	if tr != nil && len(stats) > 0 {
		fit := tr.add(span{Name: "fit", Start: fitStart.UnixNano(), End: fitEnd.UnixNano()})
		first := hookAt[0].Add(-stats[0].Elapsed)
		tr.add(span{Name: "fit.init", Parent: fit, Start: fitStart.UnixNano(), End: first.UnixNano()})
		for i, st := range stats {
			tr.add(span{Name: "fit.iter", Parent: fit, Start: hookAt[i].Add(-st.Elapsed).UnixNano(), End: hookAt[i].UnixNano()})
		}
		tr.add(span{Name: "fit.finalize", Parent: fit, Start: hookAt[len(hookAt)-1].UnixNano(), End: fitEnd.UnixNano()})
	}

	// Start the serving pass from a collected heap, so the fit's garbage
	// does not decide where its first GC cycles land.
	runtime.GC()
	gen := newFitOpGen(spec, opts.seed, m)
	if res.Lib, err = runLibServe(m, cfg, gen, libOps); err != nil {
		return nil, fmt.Errorf("in-process serving pass: %w", err)
	}
	if tr != nil {
		if err := fitProbes(tr, spec, train, m, medianIterCore(stats), opts.threads); err != nil {
			return nil, err
		}
		res.Spans = tr.spans
	}
	return res, nil
}

// newFitOpGen returns the op generator of a fit workload's in-process
// serving pass: power-law users and items on the skewed input, uniform rows
// on the plain one.
func newFitOpGen(spec workloadSpec, seed int64, m *core.Model) *opGen {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	dims := make([]int, m.Order())
	for k, a := range m.Factors {
		dims[k] = a.Rows()
	}
	if spec.order == len(skewDims) {
		users := newPowerLaw(rng, popularity(0))
		items := newPowerLaw(rng, popularity(1))
		return newOpGen(rng, dims, users.next, items.next)
	}
	return newOpGen(rng, dims, nil, nil)
}

// medianIterCore is the median |G| the fit's iterations worked with: the
// core size the error and truncation probes use, so subtracting them from
// the median iteration estimates the row update's own time.
func medianIterCore(stats []core.IterStats) int {
	g := make([]float64, len(stats))
	for i, st := range stats {
		g[i] = float64(st.CoreNNZ)
	}
	return int(math.Round(median(g)))
}

// fitProbes times the layers under one fit directly, each call wrapped in a
// span and repeated probes times:
//
//   - tensor.mode_index: building the inverted index over the training set;
//   - core.error_pass: ReconstructionError over the training set with a core
//     of the median iteration's |G| in the unfinalized in-fit layout;
//   - core.truncate_score: PartialErrors over the same core (Approx only);
//   - mat.qr: QRFactor of every factor matrix;
//   - core.rotate: the finalize rotation of a clone of the fitted core by the
//     R factors — RotateAll for dense fits, RotateAllSparse for truncated.
func fitProbes(tr *tracer, spec workloadSpec, train *tensor.Coord, m *core.Model, iterCore, threads int) error {
	root := tr.begin("probes", 0)
	defer tr.end(root)
	probe := func(name string, fn func()) {
		for i := 0; i < probes; i++ {
			sp := tr.begin(name, root)
			fn()
			tr.end(sp)
		}
	}
	probe("probe.tensor.mode_index", func() { _ = tensor.NewModeIndex(train) })

	g := core.NewRandomCore(spec.ranks, rand.New(rand.NewSource(fitSeed)))
	drop := make([]bool, g.NNZ())
	for e := iterCore; e < len(drop); e++ {
		drop[e] = true
	}
	g.RemoveEntries(drop) // also leaves the in-fit (unfinalized) layout
	inFit := &core.Model{Factors: m.Factors, Core: g, Config: m.Config}
	probe("probe.core.error_pass", func() { sink += inFit.ReconstructionError(train) })
	if spec.method == core.PTuckerApprox {
		probe("probe.core.truncate_score", func() {
			sink += core.PartialErrors(core.NewStateForAnalysis(train, m.Factors, g, threads))[0]
		})
	}

	rs := make([]*mat.Dense, len(m.Factors))
	var qrErr error
	probe("probe.mat.qr", func() {
		for k, a := range m.Factors {
			_, rs[k], qrErr = mat.QRFactor(a)
		}
	})
	if qrErr != nil {
		return fmt.Errorf("QR probe: %w", qrErr)
	}
	probe("probe.core.rotate", func() {
		c := m.Core.Clone()
		if spec.method == core.PTuckerApprox {
			c.RotateAllSparse(rs, c.NNZ(), core.RotationDropTol)
		} else {
			c.RotateAll(rs)
		}
	})
	return nil
}

// heapPeak samples the Go heap every heapSampleEvery until stopped and keeps
// the largest value seen.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

const (
	heapMetric      = "/memory/classes/heap/objects:bytes"
	heapSampleEvery = 5 * time.Millisecond
)

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak heap in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the peak resident set of a live process ("self" or a pid),
// in MiB: VmHWM from /proc/<pid>/status. Unlike getrusage's maxrss it
// belongs to the process's own address space alone — a child started with
// exec does not inherit the high-water mark of the process that forked it.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// dieWithParent makes the kernel kill a child process if the benchmark
// itself dies first, so an interrupted run leaves no fit or server behind.
var dieWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// spawnFit runs one fit in a fresh child process of this binary.
func spawnFit(opts options, spec workloadSpec, input string, threads int, traced bool) (*fitChildResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-fit-child", "-workload", spec.name, "-input", input,
		"-seed", strconv.FormatInt(opts.seed, 10), "-threads", strconv.Itoa(threads), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("fit child: %w", err)
	}
	var res fitChildResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("fit child output: %w", err)
	}
	return &res, nil
}

// fitRuns is every fit of a run, untraced and traced apart.
type fitRuns struct {
	plain, traced []*fitChildResult
	first         *fitChildResult // every later fit must reproduce it exactly
}

// runFits spawns fits of spec until budget has passed (at least minFits).
// When traced, fits alternate untraced and traced so the two halves measure
// the tracing overhead side by side. Every fit counts as one op: it fails
// when it errors or misses the target, and the fits of a run must agree
// exactly on test_rmse and iterations.
func runFits(opts options, spec workloadSpec, input string, budget time.Duration, o *outcome, tr *tracer) fitRuns {
	var runs fitRuns
	start := time.Now()
	for i := 0; i < minFits || time.Since(start) < budget; i++ {
		traced := opts.traced && i%2 == 1
		o.attempted++
		sp := tr.begin("fit.process", 0)
		res, err := spawnFit(opts, spec, input, opts.threads, traced)
		tr.end(sp)
		if err != nil {
			o.fail("%s fit %d: %v", spec.name, i, err)
			continue
		}
		if !res.Reached {
			o.fail("%s fit %d: missed the target %.4g within %d iterations", spec.name, i, spec.target, fitMaxIters)
			continue
		}
		if runs.first == nil {
			runs.first = res
		} else if res.TestRMSE != runs.first.TestRMSE || res.Iters != runs.first.Iters {
			o.fail("%s fit %d: test_rmse %v after %d iterations, but the first fit gave %v after %d",
				spec.name, i, res.TestRMSE, res.Iters, runs.first.TestRMSE, runs.first.Iters)
			continue
		}
		if traced {
			tr.adopt(res.Spans, sp)
			runs.traced = append(runs.traced, res)
		} else {
			runs.plain = append(runs.plain, res)
		}
	}
	return runs
}

// field collects one number from every fit.
func field(rs []*fitChildResult, f func(*fitChildResult) float64) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return v
}

// setFitMetrics reports the fit end-to-end metrics as medians over fits.
func setFitMetrics(o *outcome, rs []*fitChildResult) {
	o.set("fit_s", "s", median(field(rs, func(r *fitChildResult) float64 { return r.FitS })))
	o.set("fit_cpu_s", "s", median(field(rs, func(r *fitChildResult) float64 { return r.FitCPUS })))
	o.set("test_rmse", "rmse", median(field(rs, func(r *fitChildResult) float64 { return r.TestRMSE })))
	o.set("peak_heap_mb", "MiB", median(field(rs, func(r *fitChildResult) float64 { return r.PeakHeapMB })))
}

func runFitWorkload(opts options, spec workloadSpec) (*outcome, error) {
	cache, err := openCache(opts.dir("inputs"), opts.seed)
	if err != nil {
		return nil, err
	}
	input, err := cache.tensorFile(spec)
	if err != nil {
		return nil, err
	}
	if err := printStats(cache, spec); err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.traced {
		tr = &tracer{}
	}
	o := newOutcome()
	budget := time.Duration(opts.seconds * float64(time.Second))
	runs := runFits(opts, spec, input, budget, o, tr)
	if runs.first == nil {
		return o, nil
	}
	fmt.Printf("%d fits: %d iterations, core nnz %d of %d\n", len(runs.plain)+len(runs.traced),
		runs.first.Iters, runs.first.CoreNNZ, runs.first.IterCoreNNZ[0])
	if !opts.traced {
		rs := runs.plain
		setFitMetrics(o, rs)
		o.set("setup_s", "s", median(field(rs, func(r *fitChildResult) float64 { return r.SetupS })))
		o.set("peak_rss_mb", "MiB", median(field(rs, func(r *fitChildResult) float64 { return r.PeakRSSMB })))
		setLibMetrics(o, rs)
		return o, nil
	}

	o.attempted++
	one, err := spawnFit(opts, spec, input, 1, false)
	switch {
	case err != nil:
		o.fail("%s single-thread fit: %v", spec.name, err)
		one = nil
	case !one.Reached:
		o.fail("%s single-thread fit missed the target", spec.name)
		one = nil
	}
	setFitLayers(o, spec, runs, one, tr)
	return o, tr.write(traceFile(opts))
}

// setLibMetrics reports the serving end-to-end metrics of a fit workload
// from the in-process serving pass after each fit: means over fits of each
// fit's per-op percentiles. A process's own memory and CPU placement moves
// these sub-microsecond timings between two levels about a third apart, so
// a median over fits would flip between the levels from run to run; the
// mean follows the mix.
func setLibMetrics(o *outcome, rs []*fitChildResult) {
	per := func(f func(*libServe) float64) float64 {
		return mean(field(rs, func(r *fitChildResult) float64 { return f(r.Lib) }))
	}
	o.set("ops_per_s", "1/s", per(func(l *libServe) float64 { return float64(l.Ops) / l.Seconds }))
	for k, name := range map[opKind]string{opPredict: "predict_p50_ms", opBatch: "batch_p50_ms",
		opRecommend: "recommend_p50_ms", opObserve: "observe_p50_ms", opFoldIn: "foldin_p50_ms"} {
		k := k
		o.set(name, "ms", 1e3*per(func(l *libServe) float64 { return percentile(l.Lat[k], 50) }))
	}
	o.set("read_tail_ms", "ms", 1e3*per(func(l *libServe) float64 {
		return percentile(append(append(append([]float64(nil), l.Lat[opPredict]...), l.Lat[opBatch]...), l.Lat[opRecommend]...), tailPct)
	}))
	o.set("write_tail_ms", "ms", 1e3*per(func(l *libServe) float64 {
		return percentile(append(append([]float64(nil), l.Lat[opObserve]...), l.Lat[opFoldIn]...), tailPct)
	}))
}

// setFitLayers derives the per-layer metrics of a traced fit run from the
// traced fits' spans and results.
func setFitLayers(o *outcome, spec workloadSpec, runs fitRuns, one *fitChildResult, tr *tracer) {
	rs := runs.traced
	if len(rs) == 0 {
		rs = runs.plain
	}
	med := func(name string) float64 {
		d := tr.durations(name)
		if len(d) == 0 {
			return 0
		}
		return median(d)
	}
	r0 := rs[0]
	o.set("tensor.read_s", "s", med("tensor.read"))
	o.set("tensor.mode_index_s", "s", med("probe.tensor.mode_index"))
	o.set("fit.init_s", "s", med("fit.init"))
	o.set("fit.iter_s", "s", med("fit.iter"))
	o.set("fit.finalize_s", "s", med("fit.finalize"))
	o.set("fit.iters", "count", float64(r0.Iters))

	c := tableIIICost(r0.Omega, r0.Dims, spec.ranks, r0.IterCoreNNZ, spec.method == core.PTuckerApprox)
	o.set("fit.delta_gflop", "GFLOP", c.Delta/1e9)
	o.set("fit.accum_gflop", "GFLOP", c.Accum/1e9)
	o.set("fit.solve_gflop", "GFLOP", c.Solve/1e9)
	o.set("fit.error_gflop", "GFLOP", c.Error/1e9)
	o.set("fit.truncate_gflop", "GFLOP", c.Truncate/1e9)

	errPass, trunc := med("probe.core.error_pass"), med("probe.core.truncate_score")
	o.set("core.error_pass_s", "s", errPass)
	o.set("core.truncate_score_s", "s", trunc)
	o.set("fit.row_update_s", "s", med("fit.iter")-errPass-trunc)
	o.set("mat.qr_s", "s", med("probe.mat.qr"))
	o.set("core.rotate_s", "s", med("probe.core.rotate"))

	fitS := median(field(rs, func(r *fitChildResult) float64 { return r.FitS }))
	cpuS := median(field(rs, func(r *fitChildResult) float64 { return r.FitCPUS }))
	o.set("fit.cpu_util", "ratio", cpuS/(fitS*float64(r0.Threads)))
	o.set("fit.work_imbalance", "ratio", median(field(rs, func(r *fitChildResult) float64 { return r.Imbalance })))
	if one != nil {
		o.set("fit.thread_speedup", "ratio", one.FitS/fitS)
	}
	o.set("fit.core_nnz", "count", float64(r0.CoreNNZ))
	o.set("fit.intermediate_mb", "MiB", r0.InterMB)

	lib := func(f func(*libServe) float64) float64 {
		return median(field(rs, func(r *fitChildResult) float64 { return f(r.Lib) }))
	}
	o.set("core.predict_us", "us", 1e6*lib(func(l *libServe) float64 { return mean(l.Lat[opPredict]) }))
	o.set("core.batch_us", "us", 1e6*lib(func(l *libServe) float64 { return mean(l.Lat[opBatch]) }))
	o.set("core.recommend_us", "us", 1e6*lib(func(l *libServe) float64 { return mean(l.Lat[opRecommend]) }))
	o.set("core.foldin_us", "us", 1e6*lib(func(l *libServe) float64 { return mean(l.FoldS) }))
	o.set("core.snapshot_ms", "ms", 1e3*lib(func(l *libServe) float64 { return mean(l.SnapS) }))

	if len(runs.plain) > 0 && len(runs.traced) > 0 {
		base := median(field(runs.plain, func(r *fitChildResult) float64 { return r.FitS }))
		o.set("trace.overhead_pct", "%", 100*(fitS-base)/base)
	}
}

func printStats(c *inputCache, spec workloadSpec) error {
	st, err := c.stats(spec)
	if err != nil {
		return err
	}
	fmt.Printf("input %s: dims %v nnz %d max row load per mode %v\n", spec.file, st.Dims, st.NNZ, st.MaxRowLoad)
	return nil
}

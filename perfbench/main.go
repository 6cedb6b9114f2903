// Command perfbench is the repository benchmark: one seeded command that runs
// a workload of P-Tucker from outside the program and prints its end-to-end
// metrics (untraced) or its per-layer metrics (traced) as one JSON line.
//
// Workloads:
//
//	fit-plain          cold P-Tucker fits of a uniform 3-order planted tensor
//	fit-approx-skewed  cold P-Tucker-Approx fits of a power-law 4-order tensor
//	serve-mixed        a closed loop of mixed requests against ptucker-serve
//
// Usage (from the repository root; run.sh builds and calls it):
//
//	perfbench -workload fit-plain -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The command exits 1 when any correctness check failed and 2 when the
// workload could not run at all. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects what a workload run produced: ops attempted and failed,
// the failures' reasons, and the metrics it measured.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// dir returns a subdirectory of the build directory.
func (opts options) dir(name string) string { return filepath.Join(opts.build, name) }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	build    string // run.sh's output dir: bin/, inputs/, tmp/, traces/
	threads  int    // fit worker threads (nproc)
}

func main() {
	var (
		opts  options
		trace int
		child = flag.Bool("fit-child", false, "internal: run one fit in this process and report it as JSON")
		input = flag.String("input", "", "internal: the fit child's input tensor")
	)
	flag.StringVar(&opts.workload, "workload", "", "fit-plain, fit-approx-skewed or serve-mixed")
	flag.Int64Var(&opts.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opts.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&opts.build, "build", ".bench_build", "directory holding bin/ptucker-serve; inputs, temporary dirs and traces go under it too")
	flag.IntVar(&opts.threads, "threads", runtime.NumCPU(), "fit worker threads")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	opts.traced = trace == 1

	if *child {
		os.Exit(fitChildMain(opts, *input))
	}

	var (
		o   *outcome
		err error
	)
	switch opts.workload {
	case plainSpec.name:
		o, err = runFitWorkload(opts, plainSpec)
	case skewSpec.name:
		o, err = runFitWorkload(opts, skewSpec)
	case "serve-mixed":
		o, err = runServeWorkload(opts)
	default:
		err = fmt.Errorf("unknown workload %q (want fit-plain, fit-approx-skewed or serve-mixed)", opts.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	complete(o, opts.traced)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", name)
			rep.Correct = false
			m.Value = 0
			rep.Metrics[name] = m
		}
	}
	printMetrics(rep.Metrics)
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14s %s\n", n, strconv.FormatFloat(ms[n].Value, 'g', 6, 64), ms[n].Unit)
	}
}

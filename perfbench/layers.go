package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// tailPct is the percentile read_tail_ms and write_tail_ms report. Over ten
// serve-mixed runs the per-round p99 of reads and of writes spread by 0.13
// and 0.14 of its median, more than a tenth, so the tails are p95: a round
// holds about 10 900 reads and 1 200 writes, leaving 545 and 60 beyond it.
const tailPct = 95

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"fit_s", "s"}, {"fit_cpu_s", "s"}, {"test_rmse", "rmse"},
	{"peak_heap_mb", "MiB"}, {"peak_rss_mb", "MiB"}, {"ops_per_s", "1/s"},
	{"predict_p50_ms", "ms"}, {"batch_p50_ms", "ms"}, {"recommend_p50_ms", "ms"},
	{"observe_p50_ms", "ms"}, {"foldin_p50_ms", "ms"},
	{"read_tail_ms", "ms"}, {"write_tail_ms", "ms"},
}

// perLayer lists the metrics a traced run prints, on every workload; a layer
// the workload bypasses reports 0.
var perLayer = []metricDef{
	{"tensor.read_s", "s"}, {"tensor.mode_index_s", "s"},
	{"fit.init_s", "s"}, {"fit.iter_s", "s"}, {"fit.finalize_s", "s"}, {"fit.iters", "count"},
	{"fit.delta_gflop", "GFLOP"}, {"fit.accum_gflop", "GFLOP"}, {"fit.solve_gflop", "GFLOP"},
	{"fit.error_gflop", "GFLOP"}, {"fit.truncate_gflop", "GFLOP"},
	{"core.error_pass_s", "s"}, {"core.truncate_score_s", "s"}, {"fit.row_update_s", "s"},
	{"mat.qr_s", "s"}, {"core.rotate_s", "s"},
	{"fit.cpu_util", "ratio"}, {"fit.work_imbalance", "ratio"}, {"fit.thread_speedup", "ratio"},
	{"fit.core_nnz", "count"}, {"fit.intermediate_mb", "MiB"},
	{"core.predict_us", "us"}, {"core.batch_us", "us"}, {"core.recommend_us", "us"},
	{"core.foldin_us", "us"}, {"core.snapshot_ms", "ms"},
	{"store.model_open_ms", "ms"}, {"store.replay_records", "count"}, {"store.replay_s", "s"},
	{"store.journal_append_us", "us"}, {"store.fsyncs", "count"}, {"store.fsync_ms", "ms"},
	{"serve.handle_us.predict", "us"}, {"serve.handle_us.predict-batch", "us"},
	{"serve.handle_us.recommend", "us"}, {"serve.handle_us.observe", "us"},
	{"serve.transport_us.predict", "us"}, {"serve.transport_us.predict-batch", "us"},
	{"serve.transport_us.recommend", "us"}, {"serve.transport_us.observe", "us"},
	{"serve.coalesce_batch", "count"}, {"serve.coalesce_flush_us", "us"},
	{"serve.gc_cycles", "count"}, {"serve.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// complete checks o against the metric list of its mode. A traced run
// reports a bypassed layer as 0; an untraced run that misses an end-to-end
// metric is a benchmark bug, reported as NaN so the run reads incorrect.
func complete(o *outcome, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		switch {
		case !ok && traced:
			o.set(d.name, d.unit, 0)
		case !ok:
			o.set(d.name, d.unit, math.NaN())
		case m.Unit != d.unit:
			panic(fmt.Sprintf("metric %s reported in %s, declared in %s", d.name, m.Unit, d.unit))
		}
	}
}

// traceFile is where a traced run writes its spans: one file per workload,
// replaced by the next traced run.
func traceFile(opts options) string {
	return filepath.Join(opts.dir("traces"), opts.workload+".json")
}

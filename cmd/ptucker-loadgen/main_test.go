package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
)

func tinyModel(t testing.TB) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	dims := []int{20, 16, 12}
	x := tensor.NewCoord(dims)
	idx := make([]int, 3)
	for x.NNZ() < 800 {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		x.MustAppend(idx, rng.Float64())
	}
	cfg := core.Defaults([]int{3, 3, 3})
	cfg.MaxIters = 2
	cfg.Tol = 0
	cfg.Seed = 5
	m, err := core.DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scrapeMetrics fetches base/metrics, requires the exposition to parse
// clean (the parser enforces naming and histogram invariants), and requires
// every named family to be present with the expected count recorded.
func scrapeMetrics(t *testing.T, base string, wantFamilies ...string) map[string]*metrics.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s/metrics: %v", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s/metrics: status %d", base, resp.StatusCode)
	}
	fams, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s/metrics does not parse: %v", base, err)
	}
	for _, name := range wantFamilies {
		if fams[name] == nil {
			t.Errorf("scrape %s/metrics: family %s missing", base, name)
		}
	}
	return fams
}

func TestParseMix(t *testing.T) {
	w, err := parseMix("predict=8,batch=1,recommend=1")
	if err != nil {
		t.Fatal(err)
	}
	if w != [4]float64{8, 1, 1, 0} {
		t.Fatalf("weights = %v", w)
	}
	if w, err := parseMix("predict=1"); err != nil || w != [4]float64{1, 0, 0, 0} {
		t.Fatalf("predict-only mix: %v %v", w, err)
	}
	if w, err := parseMix("predict=4,observe=1"); err != nil || w != [4]float64{4, 0, 0, 1} {
		t.Fatalf("observe mix: %v %v", w, err)
	}
	for _, bad := range []string{"", "predict=0", "nope=1", "predict", "predict=-1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestParseReplicas(t *testing.T) {
	got := parseReplicas(" http://a:1/, ,http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("parseReplicas = %v", got)
	}
	if got := parseReplicas(""); got != nil {
		t.Fatalf("empty list = %v", got)
	}
}

// smokeModel builds a servable model without fitting: rows scales factor 0
// (and the .ptkm file) so the multi-tenant smoke gets tenants whose mapped
// size dominates any serving-machinery heap noise.
func smokeModel(tb testing.TB, seed int64, rows int) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	ranks := []int{4, 3, 2}
	dims := []int{rows, 256, 64}
	factors := make([]*mat.Dense, len(dims))
	for k, d := range dims {
		data := make([]float64, d*ranks[k])
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		factors[k] = mat.NewDenseData(d, ranks[k], data)
	}
	g := core.NewRandomCore(ranks, rng)
	return &core.Model{Factors: factors, Core: g, Config: core.Defaults(ranks)}
}

// TestMultiTenantSmoke is the multi-model CI gate: one registry process maps
// three tenants lazily (two bare .ptkm files plus one durable directory),
// heap stays far below the bytes served from mappings, a mixed load
// round-robins across all tenants via the model header with zero errors, and
// the merged /metrics exposition parses clean with per-model labels. CI runs
// it for 30s via MULTITENANT_SMOKE_DURATION; the default keeps local
// `go test` fast.
func TestMultiTenantSmoke(t *testing.T) {
	d := 2 * time.Second
	if env := os.Getenv("MULTITENANT_SMOKE_DURATION"); env != "" {
		parsed, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("MULTITENANT_SMOKE_DURATION=%q: %v", env, err)
		}
		d = parsed
	}

	// The bare-file tenants are big (their only heap cost should be serving
	// machinery); the durable tenant is small because a durable start clones
	// its model into the replay fitter, which is legitimate heap.
	dir := t.TempDir()
	for _, m := range []struct {
		name string
		rows int
	}{{"alpha", 65536}, {"beta", 49152}} {
		if err := core.SaveModel(filepath.Join(dir, m.name+".ptkm"), smokeModel(t, int64(m.rows), m.rows)); err != nil {
			t.Fatal(err)
		}
	}
	gdir := filepath.Join(dir, "gamma")
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(filepath.Join(gdir, store.ModelFile), smokeModel(t, 3, 4096)); err != nil {
		t.Fatal(err)
	}

	reg, err := serve.NewRegistry(serve.RegistryOptions{
		ModelsDir: dir,
		Base:      serve.Options{Mmap: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	names := []string{"alpha", "beta", "gamma"}

	// Lazy first-touch: each read maps one more tenant, growing mapped bytes,
	// while the Go heap must not grow with them — the models are served out
	// of the mappings, not decoded onto the heap.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var lastMapped int64
	for _, name := range names {
		ok, _ := post(client, ts.URL+"/v1/predict", []byte(`{"index":[0,0,0]}`), "", name)
		if !ok {
			t.Fatalf("first-touch predict on %s failed", name)
		}
		if mapped := reg.MappedBytes(); mapped > 0 && mapped <= lastMapped {
			t.Fatalf("mapped bytes did not grow loading %s: %d -> %d", name, lastMapped, mapped)
		} else {
			lastMapped = mapped
		}
	}
	if mapped := reg.MappedBytes(); mapped > 0 {
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if heapDelta := int64(after.HeapAlloc) - int64(before.HeapAlloc); heapDelta > mapped/2 {
			t.Errorf("heap grew %d bytes while mapping %d model bytes; zero-copy serving should not decode models onto the heap", heapDelta, mapped)
		}
		t.Logf("multi-tenant: %d bytes mapped across %d tenants", mapped, len(names))
	}

	rep, err := run(config{
		Addr:      ts.URL,
		Models:    names,
		Conns:     8,
		Duration:  d,
		Mix:       "predict=8,batch=1,recommend=1,observe=1",
		BatchSize: 8,
		K:         5,
		Seed:      1,
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests errored", rep.Errors, rep.Requests)
	}
	for _, name := range []string{"predict", "batch", "recommend", "observe"} {
		if op := rep.Ops[name]; op == nil || op.Count == 0 {
			t.Fatalf("op %q missing from the report: %+v", name, rep.Ops)
		}
	}

	// The merged exposition must satisfy the same contract as a single
	// server's (ParseExposition enforces it), carry the registry's own
	// families, and label every tenant's samples with its model name.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("merged /metrics does not parse: %v", err)
	}
	for _, fam := range []string{
		"ptucker_registry_models",
		"ptucker_registry_models_loaded",
		"ptucker_registry_evictions_total",
		"ptucker_registry_mapped_bytes",
		"ptucker_model_mapped_bytes",
		"ptucker_requests_total",
		"ptucker_request_duration_seconds",
		"ptucker_goroutines",
	} {
		if fams[fam] == nil {
			t.Errorf("merged /metrics: family %s missing", fam)
		}
	}
	for _, name := range names {
		if !strings.Contains(string(raw), `model="`+name+`"`) {
			t.Errorf("merged /metrics has no samples labeled model=%q", name)
		}
	}
	t.Logf("multi-tenant smoke: %d requests in %.1fs → %.0f QPS across %d models",
		rep.Requests, rep.DurationSec, rep.QPS, len(names))
}

// TestLoadgenSmoke is the CI end-to-end gate: a server over a tiny model
// takes mixed closed-loop load for the smoke window and must answer
// every request (zero errors, non-zero QPS). CI runs it for 30s via
// LOADGEN_SMOKE_DURATION; the default keeps local `go test` fast.
func TestLoadgenSmoke(t *testing.T) {
	d := 2 * time.Second
	if env := os.Getenv("LOADGEN_SMOKE_DURATION"); env != "" {
		parsed, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("LOADGEN_SMOKE_DURATION=%q: %v", env, err)
		}
		d = parsed
	}

	s, err := serve.New(serve.Options{Model: tinyModel(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := run(config{
		Addr:      ts.URL,
		Conns:     8,
		Duration:  d,
		Mix:       "predict=8,batch=1,recommend=1",
		BatchSize: 8,
		K:         5,
		Seed:      1,
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests errored", rep.Errors, rep.Requests)
	}
	if rep.QPS <= 0 {
		t.Fatalf("QPS = %v, want > 0", rep.QPS)
	}
	// Every op in the mix must have been exercised and summarized, with a
	// full latency histogram and the slowest request's correlation ID.
	for _, name := range []string{"predict", "batch", "recommend"} {
		op, ok := rep.Ops[name]
		if !ok || op.Count == 0 {
			t.Fatalf("op %q missing from the report: %+v", name, rep.Ops)
		}
		if op.P99Ms < op.P50Ms {
			t.Fatalf("op %q: p99 %vms < p50 %vms", name, op.P99Ms, op.P50Ms)
		}
		if op.Histogram == nil || len(op.Histogram.Counts) != len(op.Histogram.BoundsMs)+1 {
			t.Fatalf("op %q: malformed histogram %+v", name, op.Histogram)
		}
		var total uint64
		for _, c := range op.Histogram.Counts {
			total += c
		}
		if total != uint64(op.Count) {
			t.Fatalf("op %q: histogram counts sum to %d, want %d", name, total, op.Count)
		}
		if op.SlowestRequestID == "" {
			t.Fatalf("op %q: no slowest_request_id recorded (server should echo %d requests' IDs)", name, op.Count)
		}
	}
	// The server side of the same story: /metrics must parse clean and carry
	// the per-endpoint duration histogram and the runtime families.
	scrapeMetrics(t, ts.URL,
		"ptucker_request_duration_seconds",
		"ptucker_refit_state",
		"ptucker_goroutines",
		"ptucker_gc_pause_seconds_total")
	t.Logf("loadgen smoke: %d requests in %.1fs → %.0f QPS (predict p99 %.2fms)",
		rep.Requests, rep.DurationSec, rep.QPS, rep.Ops["predict"].P99Ms)
}

// TestReplicationSmoke is the replication end-to-end gate: a durable primary
// plus a follower bootstrapped from it take a mixed read+write load with the
// read mix spread across both targets and writes pinned to the primary. The
// report must show traffic on both targets with zero errors, and the
// follower must drain to the primary's applied sequence afterwards. CI runs
// it for 30s via REPLICATION_SMOKE_DURATION; the default keeps local
// `go test` fast.
func TestReplicationSmoke(t *testing.T) {
	d := 2 * time.Second
	if env := os.Getenv("REPLICATION_SMOKE_DURATION"); env != "" {
		parsed, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("REPLICATION_SMOKE_DURATION=%q: %v", env, err)
		}
		d = parsed
	}

	const token = "smoke-token"
	primary, err := serve.New(serve.Options{
		Model:     tinyModel(t),
		DataDir:   t.TempDir(),
		AuthToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	follower, err := serve.New(serve.Options{
		Follow:    pts.URL,
		AuthToken: token,
		PollWait:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	rep, err := run(config{
		Addr:      pts.URL,
		Replicas:  []string{fts.URL},
		Token:     token,
		Conns:     8,
		Duration:  d,
		Mix:       "predict=8,batch=1,recommend=1,observe=1",
		BatchSize: 8,
		K:         5,
		Seed:      1,
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests errored", rep.Errors, rep.Requests)
	}
	if rep.Ops["observe"] == nil || rep.Ops["observe"].Count == 0 {
		t.Fatal("no observes issued")
	}
	for _, target := range []string{pts.URL, fts.URL} {
		tr := rep.Targets[target]
		if tr == nil || tr.Requests == 0 {
			t.Fatalf("target %s got no traffic: %+v", target, rep.Targets)
		}
	}
	if obs := rep.Targets[fts.URL].Ops["observe"]; obs != nil {
		t.Fatalf("follower received %d observes; writes must stay on the primary", obs.Count)
	}

	// The follower must drain the stream: wait until its applied sequence
	// reaches the primary's.
	deadline := time.Now().Add(15 * time.Second)
	for {
		p, f := primary.AppliedSeq(), follower.AppliedSeq()
		if f >= p {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, primary at %d", f, p)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Both sides' /metrics must parse clean: the durable primary carries the
	// journal latency families, and the caught-up follower (it has applied
	// records by now) carries the apply-latency histogram.
	scrapeMetrics(t, pts.URL,
		"ptucker_request_duration_seconds",
		"ptucker_journal_append_duration_seconds",
		"ptucker_journal_fsync_duration_seconds")
	scrapeMetrics(t, fts.URL,
		"ptucker_request_duration_seconds",
		"ptucker_replica_apply_duration_seconds")
	t.Logf("replication smoke: %d requests → %.0f QPS across 2 targets, follower caught up at seq %d",
		rep.Requests, rep.QPS, follower.AppliedSeq())
}

package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tensor"
)

// observeStream builds a deterministic mixed stream of observe batches
// against the fitModel shape (20×16×12): plain appends, cold-start rows in
// mode 0 and mode 1, and chained batches touching the freshly folded rows.
func observeStream(seed int64, n int) [][]core.Observation {
	rng := rand.New(rand.NewSource(seed))
	dims := []int{20, 16, 12} // grows as rows fold in
	var stream [][]core.Observation
	for i := 0; i < n; i++ {
		var batch []core.Observation
		switch i % 4 {
		case 0, 1: // appends to existing cells
			for k := 0; k < 3+rng.Intn(3); k++ {
				batch = append(batch, core.Observation{
					Index: []int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])},
					Value: rng.Float64(),
				})
			}
		case 2: // a cold-start user: new row of mode 0
			row := dims[0]
			for k := 0; k < 3; k++ {
				batch = append(batch, core.Observation{
					Index: []int{row, rng.Intn(dims[1]), rng.Intn(dims[2])},
					Value: rng.Float64(),
				})
			}
			dims[0]++
		case 3: // a new item plus a rating pairing it with the latest user
			row := dims[1]
			batch = append(batch, core.Observation{
				Index: []int{rng.Intn(dims[0]), row, rng.Intn(dims[2])},
				Value: rng.Float64(),
			})
			batch = append(batch, core.Observation{
				Index: []int{dims[0] - 1, row, rng.Intn(dims[2])},
				Value: rng.Float64(),
			})
			dims[1]++
		}
		stream = append(stream, batch)
	}
	return stream
}

func postObserve(t testing.TB, s *Server, obs []core.Observation) *observeResponse {
	t.Helper()
	resp, err := s.observe(t.Context(), obs)
	if err != nil {
		t.Fatalf("observe: %v", err)
	}
	return resp
}

// predictionGrid scores a deterministic set of cells (spanning folded rows)
// and returns the raw float64 bits.
func predictionGrid(t testing.TB, s *Server) []uint64 {
	t.Helper()
	snap := s.snapshot()
	dims := snap.dims
	rng := rand.New(rand.NewSource(99))
	var bits []uint64
	for i := 0; i < 200; i++ {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		v, err := snap.pred.PredictChecked(idx)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, math.Float64bits(v))
	}
	// Always include the last row of each mode — the freshest fold-ins.
	for k, d := range dims {
		idx := make([]int, len(dims))
		idx[k] = d - 1
		v, err := snap.pred.PredictChecked(idx)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

func sameBits(t testing.TB, a, b []uint64, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: grid sizes differ: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: prediction %d differs: %x vs %x", what, i, a[i], b[i])
		}
	}
}

// TestKillAndRestartBitIdentical is the acceptance criterion: a served
// process journaling observes is killed mid-stream and restarted, and the
// recovered process serves predictions bit-identical to one that never
// crashed.
func TestKillAndRestartBitIdentical(t *testing.T) {
	m := fitModel(t, 7)
	stream := observeStream(41, 12)
	crashAt := 7

	// Reference: one process receives the whole stream.
	ref, _ := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	for _, b := range stream {
		postObserve(t, ref, b)
	}

	// Crashing process: receives the first crashAt batches, then dies. With
	// SyncAlways every accepted batch is on disk the moment observe returns,
	// so an un-flushed close loses nothing — the store-level torn-tail tests
	// cover the harder half-written-record case.
	dir := t.TempDir()
	a, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream[:crashAt] {
		postObserve(t, a, b)
	}
	a.Close() // the "kill": no compaction, no graceful anything beyond fsynced records

	// Restart over the same data dir: the journal replays, then the rest of
	// the stream arrives.
	b, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.met.journalReplayed.Load(); got != int64(crashAt) {
		t.Fatalf("replayed %d records, want %d", got, crashAt)
	}
	for _, batch := range stream[crashAt:] {
		postObserve(t, b, batch)
	}

	sameBits(t, predictionGrid(t, ref), predictionGrid(t, b), "restarted vs uncrashed")

	// The training sets match too, so future refits stay identical.
	b.online.mu.Lock()
	refNNZ, gotNNZ := ref.online.fitter.NNZ(), b.online.fitter.NNZ()
	b.online.mu.Unlock()
	if refNNZ != gotNNZ {
		t.Fatalf("training sets diverge: %d vs %d entries", refNNZ, gotNNZ)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCompactionAndRestart: a background refit compacts the journal into
// model + training snapshots; a restart then loads the data-dir model,
// replays nothing, and serves the refit's predictions.
func TestCompactionAndRestart(t *testing.T) {
	m := fitModel(t, 8)
	dir := t.TempDir()
	s, err := New(Options{Model: m, DataDir: dir, RefitAfter: 10,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}

	for _, b := range observeStream(43, 6) {
		postObserve(t, s, b)
	}
	waitFor(t, "compaction", func() bool { return s.met.compactions.Load() > 0 })
	waitFor(t, "refit end", func() bool {
		s.online.mu.Lock()
		done := !s.online.refitting
		s.online.mu.Unlock()
		return done
	})
	// Batches accepted after the compaction captured its training set have
	// later sequences and survive the rotation — exactly those must replay.
	remaining := s.journal.Len()
	preCrash := predictionGrid(t, s)
	s.Close()

	d, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasModel() {
		t.Fatal("compaction left no model in the data dir")
	}

	// Restart — note the stale in-memory base model is superseded by the
	// data dir's persisted one.
	s2, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.met.journalReplayed.Load(); got != int64(remaining) {
		t.Fatalf("replayed %d records after compaction, want %d (the post-compaction arrivals)", got, remaining)
	}
	// The restart serves the data-dir model, not the stale in-memory m. The
	// refit captures its training set while observes keep arriving, so a
	// fold-in batch may land after the capture; its replay grows the loaded
	// model in memory and publishes it without a file path. Either way the
	// served rows start from the data-dir model's.
	base, err := core.LoadModel(d.ModelPath())
	if err != nil {
		t.Fatal(err)
	}
	snap := s2.snapshot()
	grown := false
	for k, a := range base.Factors {
		if snap.dims[k] < a.Rows() {
			t.Fatalf("restart serves dims %v, fewer rows than the data-dir model's %d in mode %d", snap.dims, a.Rows(), k)
		}
		grown = grown || snap.dims[k] > a.Rows()
	}
	want := d.ModelPath()
	if grown {
		want = ""
	}
	if snap.path != want {
		t.Fatalf("restart served %q, want %q (data-dir model %s, grown by replayed fold-ins: %v)",
			snap.path, want, d.ModelPath(), grown)
	}
	sameBits(t, preCrash, predictionGrid(t, s2), "post-compaction restart")
}

// slowRefitIters is the warm refit's iteration budget in the slow-refit
// tests: with Tol 0 every iteration runs, and a sweep over the 4000-entry
// sidecar keeps the refit in flight long enough to observe what crosses it.
const slowRefitIters = 100

// slowRefitDir fits a model to a 4000-entry tensor and seeds a data
// directory's training sidecar with that tensor (covered sequence 0), so a
// server started over the directory refits over all of it — a refit long
// enough to observe what crosses it. The model's config carries the refit's
// budget: slowRefitIters iterations, Tol 0.
func slowRefitDir(t testing.TB) (m *core.Model, x *tensor.Coord, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	dims := []int{30, 24, 16}
	x = tensor.NewCoord(dims)
	idx := make([]int, 3)
	for x.NNZ() < 4000 {
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		x.MustAppend(idx, rng.Float64())
	}
	cfg := core.Defaults([]int{3, 3, 3})
	cfg.MaxIters = 5
	cfg.Tol = 0
	cfg.Seed = 17
	m, err := core.DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Config.MaxIters = slowRefitIters
	dir = t.TempDir()
	if err := store.WriteSnapshot(filepath.Join(dir, store.TensorFile), x, 0); err != nil {
		t.Fatal(err)
	}
	return m, x, dir
}

// waitRefitDone polls until no background refit is in flight, with a wait
// wide enough for a slowRefitDir refit under the race detector.
func waitRefitDone(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		s.online.mu.Lock()
		done := !s.online.refitting
		s.online.mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timed out waiting for the refit to finish")
}

// sameModel fails unless got and want hold bit-identical factors and cores.
func sameModel(t testing.TB, got, want *core.Model, what string) {
	t.Helper()
	for k, a := range want.Factors {
		b := got.Factors[k]
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
			t.Fatalf("%s: factor %d is %dx%d, want %dx%d", what, k, b.Rows(), b.Cols(), a.Rows(), a.Cols())
		}
		for i, v := range a.Data() {
			if w := b.Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: factor %d element %d is %v, want %v", what, k, i, w, v)
			}
		}
	}
	if got.Core.NNZ() != want.Core.NNZ() {
		t.Fatalf("%s: core has %d entries, want %d", what, got.Core.NNZ(), want.Core.NNZ())
	}
	for e := 0; e < want.Core.NNZ(); e++ {
		if !slices.Equal(got.Core.Index(e), want.Core.Index(e)) ||
			math.Float64bits(got.Core.Value(e)) != math.Float64bits(want.Core.Value(e)) {
			t.Fatalf("%s: core entry %d is %v=%v, want %v=%v", what, e,
				got.Core.Index(e), got.Core.Value(e), want.Core.Index(e), want.Core.Value(e))
		}
	}
}

// TestObserveDoesNotBlockBehindRefit: while a background refit computes,
// observes apply to a stand-in fitter at once — a row folded during the
// refit serves before the refit publishes — and the refit's catch-up makes
// the published model bit-identical to an in-process Refit of the
// trigger-time fitter followed by the same batches in order.
func TestObserveDoesNotBlockBehindRefit(t *testing.T) {
	m, x, dir := slowRefitDir(t)
	s, err := New(Options{Model: m, DataDir: dir, RefitAfter: 1,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	trigger := []core.Observation{{Index: []int{1, 2, 3}, Value: 0.5}}
	if !postObserve(t, s, trigger).RefitTriggered {
		t.Fatal("refit not triggered")
	}

	// While the refit runs: a new row of mode 0, appends that touch it, and
	// a new row of mode 1.
	newRow, newItem := m.Factors[0].Rows(), m.Factors[1].Rows()
	during := [][]core.Observation{
		{{Index: []int{newRow, 1, 2}, Value: 0.9}, {Index: []int{newRow, 3, 4}, Value: 0.8}},
		{{Index: []int{5, 6, 7}, Value: 0.3}, {Index: []int{newRow, 6, 7}, Value: 0.4}},
		{{Index: []int{2, newItem, 1}, Value: 0.7}},
	}
	for i, b := range during {
		resp := postObserve(t, s, b)
		if i == 0 && (len(resp.Folded) != 1 || resp.Folded[0].Mode != 0 || resp.Folded[0].Index != newRow) {
			t.Fatalf("fold plan during the refit: %+v", resp.Folded)
		}
	}
	// The folded rows serve now, against the pre-refit factors. Reading the
	// refit counter after the predictions proves they served first.
	snap := s.snapshot()
	for _, idx := range [][]int{{newRow, 1, 2}, {2, newItem, 1}} {
		if _, err := snap.pred.PredictChecked(idx); err != nil {
			t.Fatalf("row folded during the refit does not serve: %v", err)
		}
	}
	if s.met.refits.Load() != 0 {
		t.Skip("the refit published before the during-refit checks ran; its window is not observable on this machine")
	}
	if got, want := snap.dims, []int{newRow + 1, newItem + 1, 16}; !slices.Equal(got, want) {
		t.Fatalf("served dims %v during the refit, want %v", got, want)
	}

	waitRefitDone(t, s)
	if s.met.refits.Load() != 1 {
		t.Fatalf("refits published = %d, want 1", s.met.refits.Load())
	}

	// The same history in process: the trigger-time fitter, its refit, then
	// the during-refit batches as the plan applies them.
	cfg := m.Config
	cfg.Threads = 0
	ref, err := core.ResumeFitter(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AttachTrainingSet(x); err != nil {
		t.Fatal(err)
	}
	if err := ref.Observe(trigger); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Refit(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.FoldIn(0, during[0]); err != nil {
		t.Fatal(err)
	}
	if err := ref.Observe(during[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.FoldIn(1, during[2]); err != nil {
		t.Fatal(err)
	}
	sameModel(t, s.snapshot().model, ref.Snapshot(), "published refit vs in-process refit + batches")
}

// TestReloadRebasesDataDir: a reload supersedes the journaled observations —
// the data dir is re-based onto the loaded model, and a restart serves it.
func TestReloadRebasesDataDir(t *testing.T) {
	m1, m2 := fitModel(t, 7), fitModel(t, 8)
	modelFile := filepath.Join(t.TempDir(), "m2.ptkm")
	if err := core.SaveModel(modelFile, m2); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := New(Options{Model: m1, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range observeStream(47, 4) {
		postObserve(t, s, b)
	}
	if err := s.Reload(modelFile); err != nil {
		t.Fatal(err)
	}
	want := predictionGrid(t, s)
	s.Close()

	s2, err := New(Options{Model: m1, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.met.journalReplayed.Load(); got != 0 {
		t.Fatalf("replayed %d records after reload re-base, want 0", got)
	}
	sameBits(t, want, predictionGrid(t, s2), "restart after reload")
}

// TestAuthToken: mutating endpoints demand the bearer token; read-only
// endpoints stay open; the token server rejects bad and missing credentials
// with 401 and counts them.
func TestAuthToken(t *testing.T) {
	s, ts := testServer(t, Options{AuthToken: "sekrit"})

	do := func(path, token, body string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	obsBody := `{"observations":[{"index":[1,2,3],"value":0.5}]}`
	if got := do("/v1/observe", "", obsBody); got != http.StatusUnauthorized {
		t.Fatalf("observe without token: %d, want 401", got)
	}
	if got := do("/v1/observe", "Bearer wrong", obsBody); got != http.StatusUnauthorized {
		t.Fatalf("observe with wrong token: %d, want 401", got)
	}
	if got := do("/v1/observe", "Bearer sekrit", obsBody); got != http.StatusOK {
		t.Fatalf("observe with token: %d, want 200", got)
	}
	if got := do("/v1/reload", "", `{}`); got != http.StatusUnauthorized {
		t.Fatalf("reload without token: %d, want 401", got)
	}
	// Read-only traffic needs no credentials.
	if got := do("/v1/predict", "", `{"index":[1,2,3]}`); got != http.StatusOK {
		t.Fatalf("predict without token: %d, want 200", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if got := s.met.authFailures.Load(); got != 3 {
		t.Fatalf("auth failures counted %d, want 3", got)
	}

	// A tokenless server leaves the endpoints open (regression guard for
	// the pass-through path).
	_, open := testServer(t, Options{})
	if got, _ := postJSON(t, open.URL+"/v1/observe", obsBody); got != http.StatusOK {
		t.Fatalf("tokenless observe: %d, want 200", got)
	}
}

// TestHoldoutMetric: the held-out RMSE gauge appears on /metrics and equals
// the served model's RMSE over the file's entries.
func TestHoldoutMetric(t *testing.T) {
	m := fitModel(t, 7)
	rng := rand.New(rand.NewSource(51))
	hold := tensor.NewCoord([]int{20, 16, 12})
	for hold.NNZ() < 150 {
		hold.MustAppend([]int{rng.Intn(20), rng.Intn(16), rng.Intn(12)}, rng.Float64())
	}
	holdPath := filepath.Join(t.TempDir(), "holdout.tns")
	if err := tensor.WriteFile(holdPath, hold); err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, Options{Model: m, HoldoutPath: holdPath})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "ptucker_holdout_rmse ") {
			if _, err := fmt.Sscanf(line, "ptucker_holdout_rmse %g", &got); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("ptucker_holdout_rmse missing from /metrics")
	}
	want := m.RMSE(hold)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Fatalf("holdout RMSE gauge %g, want %g", got, want)
	}

	// Without a holdout the gauge is absent entirely.
	_, plain := testServer(t, Options{Model: m})
	resp2, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body2), "ptucker_holdout_rmse") {
		t.Fatal("holdout gauge exposed without a holdout set")
	}
}

// TestObserveJournalsBeforeApply: with a data dir, a batch is on disk before
// the response returns (SyncAlways), and the journaled bytes replay to the
// same observations.
func TestObserveJournalsBeforeApply(t *testing.T) {
	dir := t.TempDir()
	s, _ := testServer(t, Options{DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	obs := []core.Observation{
		{Index: []int{1, 2, 3}, Value: 0.25},
		{Index: []int{4, 5, 6}, Value: 0.75},
	}
	postObserve(t, s, obs)

	j, err := store.OpenJournal(filepath.Join(dir, store.JournalFile), 3, store.SyncPolicy{Mode: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 {
		t.Fatalf("journal has %d records, want 1", j.Len())
	}
	if err := j.Replay(func(r store.Record) error {
		if len(r.Observations) != 2 {
			return fmt.Errorf("record has %d observations", len(r.Observations))
		}
		for i, o := range r.Observations {
			if math.Float64bits(o.Value) != math.Float64bits(obs[i].Value) {
				return fmt.Errorf("observation %d value differs", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A rejected batch must NOT be journaled: plan validation precedes the
	// append.
	if _, err := s.observe(t.Context(), []core.Observation{{Index: []int{999, 0, 0}, Value: 1}}); err == nil {
		t.Fatal("unplaceable batch accepted")
	}
	if got := s.met.journalAppends.Load(); got != 1 {
		t.Fatalf("journal appends %d after a rejected batch, want 1", got)
	}
}

// TestWatchDoesNotRebaseDataDirOnStartup guards the -watch × -data-dir
// interaction: the watcher's startup reconcile must NOT reload the stale
// -model file over a data directory that holds newer durable state (that
// would re-base the dir and wipe the journaled online learning). A genuine
// deploy — the file changing after startup — still reloads.
func TestWatchDoesNotRebaseDataDirOnStartup(t *testing.T) {
	m1, m2 := fitModel(t, 7), fitModel(t, 8)
	modelFile := filepath.Join(t.TempDir(), "m1.ptkm")
	if err := core.SaveModel(modelFile, m1); err != nil {
		t.Fatal(err)
	}

	// A data dir with newer durable state: a persisted model and one
	// journaled observation batch.
	dirPath := t.TempDir()
	d, err := store.OpenDir(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(d.ModelPath(), m2); err != nil {
		t.Fatal(err)
	}
	j, err := store.OpenJournal(d.JournalPath(), 3, store.SyncPolicy{Mode: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]core.Observation{{Index: []int{1, 2, 3}, Value: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{ModelPath: modelFile, DataDir: dirPath,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.snapshot().path != d.ModelPath() {
		t.Fatalf("serving %q, want the data-dir model", s.snapshot().path)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchModel(ctx, 2*time.Millisecond)

	time.Sleep(50 * time.Millisecond)
	if got := s.met.reloads.Load(); got != 0 {
		t.Fatalf("watcher reloaded %d times at startup; the stale -model must not re-base the data dir", got)
	}
	if got := s.journal.Len(); got != 1 {
		t.Fatalf("journal has %d records after watcher startup, want 1 (untouched)", got)
	}

	// A real deploy — the watched file changes — still reloads (and re-bases).
	if err := core.SaveModel(modelFile, m2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deploy reload", func() bool { return s.met.reloads.Load() > 0 })
	waitFor(t, "journal re-base", func() bool { return s.journal.Len() == 0 })
}

// TestSizeTriggeredCompaction: with refits disabled, a journal crossing
// CompactBytes is compacted in the background — the grown model and the
// accumulated training set are snapshotted without a refit, the covered
// records rotate out, and a restart over the directory replays nothing yet
// serves bit-identical predictions.
func TestSizeTriggeredCompaction(t *testing.T) {
	m := fitModel(t, 9)
	dir := t.TempDir()
	s, err := New(Options{Model: m, DataDir: dir, CompactBytes: 1,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}

	// One batch (with a fold-in, so the persisted model must carry the grown
	// row) pushes the journal past the 1-byte threshold.
	stream := observeStream(47, 8)
	for _, b := range stream {
		postObserve(t, s, b)
	}
	waitFor(t, "size-triggered compaction", func() bool { return s.met.compactions.Load() > 0 })
	if got := s.met.refits.Load(); got != 0 {
		t.Fatalf("%d refits ran; size-triggered compaction must not refit", got)
	}
	// Let any in-flight compaction settle before closing (compactBusy is the
	// single-flight latch).
	waitFor(t, "compaction settled", func() bool { return !s.compactBusy.Load() })

	preClose := predictionGrid(t, s)
	s.online.mu.Lock()
	preNNZ := s.online.fitter.NNZ()
	s.online.mu.Unlock()
	s.Close()

	d, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasModel() {
		t.Fatal("size-triggered compaction left no model in the data dir")
	}
	x, covered, err := d.TrainingSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if x == nil || covered == 0 {
		t.Fatalf("no covered training snapshot after compaction (covered=%d)", covered)
	}

	// Restart: the persisted model supersedes the stale in-memory base, and
	// only post-compaction records (if any) replay.
	s2, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Fewer records replay than were observed: the compaction's covered
	// prefix comes back through the persisted model + training snapshot, not
	// the journal.
	if got := s2.met.journalReplayed.Load(); got >= int64(len(stream)) {
		t.Fatalf("replayed %d records, want fewer than the %d observed (compaction covered a prefix)", got, len(stream))
	}
	sameBits(t, preClose, predictionGrid(t, s2), "restart after size-triggered compaction")
	s2.online.mu.Lock()
	gotNNZ := s2.online.fitter.NNZ()
	s2.online.mu.Unlock()
	if gotNNZ != preNNZ {
		t.Fatalf("training set diverged across compaction restart: %d vs %d entries", gotNNZ, preNNZ)
	}
}

// TestAgeTriggeredCompaction: with refits and size triggers disabled, a
// journal whose oldest uncovered record outlives CompactAge is compacted in
// the background, and a restart over the directory replays nothing yet
// serves bit-identical predictions.
func TestAgeTriggeredCompaction(t *testing.T) {
	m := fitModel(t, 9)
	dir := t.TempDir()
	s, err := New(Options{Model: m, DataDir: dir, CompactAge: 20 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}

	stream := observeStream(49, 4)
	for _, b := range stream {
		postObserve(t, s, b)
	}
	if got := s.met.compactions.Load(); got != 0 && s.journal.Len() == 0 {
		// Not an error — just means the ticker beat the last observe — but the
		// interesting path is records sitting in the journal until they age out.
		t.Logf("compaction already ran mid-stream (%d)", got)
	}
	waitFor(t, "age-triggered compaction", func() bool { return s.met.compactions.Load() > 0 })
	if got := s.met.refits.Load(); got != 0 {
		t.Fatalf("%d refits ran; age-triggered compaction must not refit", got)
	}
	// Every record eventually ages out and rotates away; the clock disarms.
	waitFor(t, "journal fully covered", func() bool {
		return s.journal.Len() == 0 && s.oldestUncovered.Load() == 0
	})
	waitFor(t, "compaction settled", func() bool { return !s.compactBusy.Load() })

	preClose := predictionGrid(t, s)
	s.online.mu.Lock()
	preNNZ := s.online.fitter.NNZ()
	s.online.mu.Unlock()
	s.Close()

	// Restart without CompactAge: the persisted model + training snapshot come
	// back as-is and the emptied journal replays nothing.
	s2, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.met.journalReplayed.Load(); got != 0 {
		t.Fatalf("replayed %d records after an age compaction covered everything, want 0", got)
	}
	sameBits(t, preClose, predictionGrid(t, s2), "restart after age-triggered compaction")
	s2.online.mu.Lock()
	gotNNZ := s2.online.fitter.NNZ()
	s2.online.mu.Unlock()
	if gotNNZ != preNNZ {
		t.Fatalf("training set diverged across compaction restart: %d vs %d entries", gotNNZ, preNNZ)
	}
}

// TestCompactAgeDisabledKeepsJournal: without CompactAge nothing ever ages
// out — the journal keeps every record no matter how long it sits.
func TestCompactAgeDisabledKeepsJournal(t *testing.T) {
	m := fitModel(t, 9)
	s, _ := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	for _, b := range observeStream(50, 3) {
		postObserve(t, s, b)
	}
	time.Sleep(30 * time.Millisecond)
	if got := s.met.compactions.Load(); got != 0 {
		t.Fatalf("%d compactions ran with CompactAge=0", got)
	}
	if got := s.journal.Len(); got != 3 {
		t.Fatalf("journal has %d records, want 3 (nothing rotated)", got)
	}
}

// TestCompactBytesDisabledKeepsJournal: without CompactBytes the journal of a
// refit-less server only grows — the regression this feature closes — and
// with it the journal stays bounded by rotation.
func TestCompactBytesDisabledKeepsJournal(t *testing.T) {
	m := fitModel(t, 9)
	s, _ := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	for _, b := range observeStream(48, 6) {
		postObserve(t, s, b)
	}
	if got := s.met.compactions.Load(); got != 0 {
		t.Fatalf("%d compactions ran with CompactBytes=0", got)
	}
	if got := s.journal.Len(); got != 6 {
		t.Fatalf("journal has %d records, want 6 (nothing rotated)", got)
	}
}

// TestStartupReplayRetriggersRefit: a server that accumulated observations
// past -refit-after but died before refitting must not strand them — the
// restart counts replayed observations against the threshold and resumes the
// background refit immediately, instead of waiting for one more live batch.
func TestStartupReplayRetriggersRefit(t *testing.T) {
	m := fitModel(t, 11)
	dir := t.TempDir()

	// First life: refits disabled, so every observation lands only in the
	// journal and the in-memory fitter.
	a, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	batches := observeStream(61, 5)
	total := 0
	for _, b := range batches {
		postObserve(t, a, b)
		total += len(b)
	}
	if got := a.met.refits.Load(); got != 0 {
		t.Fatalf("%d refits ran with RefitAfter=0", got)
	}
	a.Close()

	// Second life: the replayed count alone crosses the threshold.
	b, err := New(Options{Model: m, DataDir: dir, RefitAfter: total,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.met.journalReplayed.Load(); got != int64(len(batches)) {
		t.Fatalf("replayed %d records, want %d", got, len(batches))
	}
	waitFor(t, "startup-retriggered refit", func() bool { return b.met.refits.Load() >= 1 })
	waitFor(t, "refit end", func() bool {
		b.online.mu.Lock()
		done := !b.online.refitting && b.online.pending == 0
		b.online.mu.Unlock()
		return done
	})

	// The refit compacted: its model snapshot covers the journal, and the
	// pending counter reset, so the next observation starts a fresh window.
	d, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasModel() {
		t.Fatal("startup refit left no compacted model in the data dir")
	}
	resp := postObserve(t, b, []core.Observation{{Index: []int{1, 2, 3}, Value: 0.5}})
	if resp.RefitTriggered {
		t.Fatal("one observation after a fresh refit re-triggered; pending was not reset")
	}
}

package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// followerServer builds a follower Server plus an httptest front. (The
// generic testServer helper injects a Model when none is set, which a
// follower must reject.)
func followerServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// proxyServer is a stable address in front of a swappable handler, so a test
// can "restart" a primary without changing the URL its follower points at.
// A nil handler answers 502 — the primary is down.
func proxyServer(t testing.TB) (*httptest.Server, *atomic.Pointer[http.Handler]) {
	t.Helper()
	var h atomic.Pointer[http.Handler]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hp := h.Load()
		if hp == nil {
			http.Error(w, "primary down", http.StatusBadGateway)
			return
		}
		(*hp).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &h
}

func setProxy(p *atomic.Pointer[http.Handler], s *Server) {
	if s == nil {
		p.Store(nil)
		return
	}
	h := s.Handler()
	p.Store(&h)
}

// tryGrid is predictionGrid without the fatal error handling: it reports
// false while the server's model still lacks rows the reference has folded,
// so convergence loops can poll it.
func tryGrid(s *Server) ([]uint64, bool) {
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
			return nil, false
		}
		bits = append(bits, math.Float64bits(v))
	}
	for k, d := range dims {
		idx := make([]int, len(dims))
		idx[k] = d - 1
		v, err := snap.pred.PredictChecked(idx)
		if err != nil {
			return nil, false
		}
		bits = append(bits, math.Float64bits(v))
	}
	return bits, true
}

func gridsMatch(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitConverged polls until the follower serves the same prediction grid as
// the primary, then fails loudly if it never does.
func waitConverged(t testing.TB, primary, follower *Server) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		want, ok1 := tryGrid(primary)
		got, ok2 := tryGrid(follower)
		if ok1 && ok2 && gridsMatch(want, got) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never converged: primary seq %d, follower seq %d",
		primary.AppliedSeq(), follower.AppliedSeq())
}

// recommendGrid flattens a deterministic set of top-K queries into
// comparable bits: ranking indices plus raw score bits.
func recommendGrid(t testing.TB, s *Server) []uint64 {
	t.Helper()
	snap := s.snapshot()
	dims := snap.dims
	rng := rand.New(rand.NewSource(98))
	var bits []uint64
	for i := 0; i < 40; i++ {
		q := make([]int, len(dims))
		for k, d := range dims {
			q[k] = rng.Intn(d)
		}
		recs, err := snap.rec.TopKExcluding(q, i%len(dims), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			bits = append(bits, uint64(r.Index), math.Float64bits(r.Score))
		}
	}
	return bits
}

// TestFollowerConvergesBitIdentical is the tentpole acceptance test: a
// follower bootstrapped from a live primary tails its journal stream and
// answers /v1/predict and /v1/recommend bit-identically — including across
// fold-ins that grow the tensor — while refusing writes with a hint at the
// primary.
func TestFollowerConvergesBitIdentical(t *testing.T) {
	m := fitModel(t, 7)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	f, fts := followerServer(t, Options{Follow: pts.URL, PollWait: 100 * time.Millisecond})

	for _, b := range observeStream(61, 12) {
		postObserve(t, p, b)
	}
	waitConverged(t, p, f)
	sameBits(t, predictionGrid(t, p), predictionGrid(t, f), "follower vs primary")
	sameBits(t, recommendGrid(t, p), recommendGrid(t, f), "follower recommend vs primary")
	if f.AppliedSeq() != p.AppliedSeq() {
		t.Fatalf("applied seq %d vs primary %d", f.AppliedSeq(), p.AppliedSeq())
	}

	// Writes are refused with 403 and a Location hint at the only process
	// that can take them.
	for _, path := range []string{"/v1/observe", "/v1/reload"} {
		code, body := postJSON(t, fts.URL+path, `{}`)
		if code != http.StatusForbidden {
			t.Fatalf("%s on follower: %d %s", path, code, body)
		}
	}
	resp, err := http.Post(fts.URL+"/v1/observe", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != pts.URL+"/v1/observe" {
		t.Fatalf("Location %q, want %q", loc, pts.URL+"/v1/observe")
	}

	// A follower is not a stream source: the replication endpoints redirect
	// to the primary too, so chained topologies fail fast.
	getCode := func(url string) int {
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return r.StatusCode
	}
	if code := getCode(fts.URL + "/v1/journal/bootstrap"); code != http.StatusForbidden {
		t.Fatalf("bootstrap on follower: %d", code)
	}

	// Both sides expose their replication metrics.
	get := func(url string) string {
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := r.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	pm := get(pts.URL + "/metrics")
	for _, name := range []string{"ptucker_journal_stream_clients", "ptucker_journal_stream_records_total",
		"ptucker_journal_bootstraps_served_total", "ptucker_primary_applied_seq"} {
		if !strings.Contains(pm, name) {
			t.Errorf("primary /metrics missing %s", name)
		}
	}
	fm := get(fts.URL + "/metrics")
	for _, name := range []string{"ptucker_replica_lag_seconds", "ptucker_replica_applied_seq",
		"ptucker_replica_bootstraps_total", "ptucker_replica_records_applied_total",
		"ptucker_replica_writes_rejected_total"} {
		if !strings.Contains(fm, name) {
			t.Errorf("follower /metrics missing %s", name)
		}
	}

	// Healthz declares the roles.
	var st statusResponse
	if err := json.Unmarshal([]byte(get(fts.URL+"/healthz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" || st.Primary != pts.URL || st.LagSeconds == nil {
		t.Fatalf("follower healthz: %+v", st)
	}
	if err := json.Unmarshal([]byte(get(pts.URL+"/healthz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "primary" {
		t.Fatalf("primary healthz: %+v", st)
	}
}

// TestPrimaryRestartMidStream: the primary dies and comes back over the same
// data dir (a new epoch). The follower detects the identity change,
// re-bootstraps, and reconverges bit-identically — no divergence from
// whatever the old epoch's unstreamed tail might have been.
func TestPrimaryRestartMidStream(t *testing.T) {
	m := fitModel(t, 7)
	stream := observeStream(62, 12)
	dir := t.TempDir()
	proxy, ph := proxyServer(t)

	a, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	setProxy(ph, a)
	f, _ := followerServer(t, Options{Follow: proxy.URL, PollWait: 50 * time.Millisecond})

	for _, b := range stream[:6] {
		postObserve(t, a, b)
	}
	waitConverged(t, a, f)

	// Kill the primary; the follower's polls start failing and back off.
	setProxy(ph, nil)
	a.Close()

	// Restart over the same dir: the journal replays, the epoch bumps.
	b, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	setProxy(ph, b)

	for _, batch := range stream[6:] {
		postObserve(t, b, batch)
	}
	waitConverged(t, b, f)
	sameBits(t, predictionGrid(t, b), predictionGrid(t, f), "follower vs restarted primary")
	if got := f.met.replicaBootstraps.Load(); got != 2 {
		t.Fatalf("follower bootstrapped %d times, want 2 (startup + epoch change)", got)
	}
}

// TestFollowerRestartResumesLocally: a durable follower killed and restarted
// over its data dir resumes from the local journal copy — no re-bootstrap,
// no model re-download — and catches up on what it missed.
func TestFollowerRestartResumesLocally(t *testing.T) {
	m := fitModel(t, 7)
	stream := observeStream(63, 12)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	fdir := t.TempDir()

	f1, err := New(Options{Follow: pts.URL, DataDir: fdir, PollWait: 50 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream[:8] {
		postObserve(t, p, b)
	}
	waitConverged(t, p, f1)
	f1.Close() // the "kill -9": SyncAlways put every applied record on disk

	// The primary moves on while the follower is down.
	for _, b := range stream[8:] {
		postObserve(t, p, b)
	}

	f2, err := New(Options{Follow: pts.URL, DataDir: fdir, PollWait: 50 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitConverged(t, p, f2)
	sameBits(t, predictionGrid(t, p), predictionGrid(t, f2), "resumed follower vs primary")
	if got := f2.met.replicaBootstraps.Load(); got != 0 {
		t.Fatalf("restarted follower bootstrapped %d times, want 0 (local resume)", got)
	}
}

// TestCompactionRacingStream: the primary compacts continuously under a live
// stream (CompactBytes small enough to rotate after every few batches). A
// follower that keeps up streams across the rotations; one that fell behind
// the new base gets 410 and re-bootstraps. Either way it reconverges
// bit-identically.
func TestCompactionRacingStream(t *testing.T) {
	m := fitModel(t, 7)
	stream := observeStream(64, 16)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(), CompactBytes: 512,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	fdir := t.TempDir()

	f1, err := New(Options{Follow: pts.URL, DataDir: fdir, PollWait: 50 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stream[:4] {
		postObserve(t, p, b)
	}
	waitConverged(t, p, f1)
	covered := f1.AppliedSeq()
	f1.Close()

	// Feed enough through the primary that size-triggered compaction
	// rotates the journal base past the sleeping follower's position.
	for _, b := range stream[4:] {
		postObserve(t, p, b)
	}
	waitFor(t, "primary compaction past the follower", func() bool {
		return p.met.compactions.Load() > 0 && p.journal.BaseSeq() > covered
	})

	// Restart: the local resume works, but the first poll lands below the
	// primary's base — 410 — and the follower re-bootstraps.
	f2, err := New(Options{Follow: pts.URL, DataDir: fdir, PollWait: 50 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	waitConverged(t, p, f2)
	sameBits(t, predictionGrid(t, p), predictionGrid(t, f2), "follower vs compacted primary")
	waitFor(t, "re-bootstrap after 410", func() bool {
		return f2.met.replicaBootstraps.Load() == 1
	})
}

// TestRefitRebootstrapsFollower: a background refit publishes a model that no
// journal replay can derive, so the generation bump must push followers to
// re-bootstrap — and they end up serving the refit model bit-identically.
func TestRefitRebootstrapsFollower(t *testing.T) {
	m := fitModel(t, 7)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(), RefitAfter: 20,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	f, _ := followerServer(t, Options{Follow: pts.URL, PollWait: 50 * time.Millisecond})

	for _, b := range observeStream(65, 10) {
		postObserve(t, p, b)
	}
	waitFor(t, "refit publish", func() bool { return p.met.refits.Load() > 0 })
	waitFor(t, "refit drain", func() bool {
		p.online.mu.Lock()
		done := !p.online.refitting
		p.online.mu.Unlock()
		return done
	})
	waitConverged(t, p, f)
	sameBits(t, predictionGrid(t, p), predictionGrid(t, f), "follower vs refit primary")
	if got := f.met.replicaBootstraps.Load(); got < 2 {
		t.Fatalf("follower bootstrapped %d times, want ≥ 2 (startup + refit generation)", got)
	}
}

// TestFollowerTracksPrimaryDuringRefit: records a primary accepts while a
// refit computes stream to its followers at once — a follower serves a row
// folded during the refit before the refit publishes — and after the
// refit's generation bump the follower re-bootstraps onto the primary's
// published model.
func TestFollowerTracksPrimaryDuringRefit(t *testing.T) {
	m, _, dir := slowRefitDir(t)
	p, pts := testServer(t, Options{Model: m, DataDir: dir, RefitAfter: 1,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	f, _ := followerServer(t, Options{Follow: pts.URL, PollWait: 50 * time.Millisecond})

	if !postObserve(t, p, []core.Observation{{Index: []int{1, 2, 3}, Value: 0.5}}).RefitTriggered {
		t.Fatal("refit not triggered")
	}
	newRow := m.Factors[0].Rows()
	postObserve(t, p, []core.Observation{
		{Index: []int{newRow, 1, 2}, Value: 0.9},
		{Index: []int{newRow, 3, 4}, Value: 0.8},
	})
	if p.met.refits.Load() != 0 {
		t.Skip("the refit published before the fold landed; its window is not observable on this machine")
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for {
		// Follower first, then the primary's refit counter: a row served
		// before the counter moved was served before the refit published.
		_, err := f.snapshot().pred.PredictChecked([]int{newRow, 1, 2})
		published := p.met.refits.Load() > 0
		if err == nil && !published {
			break
		}
		if published {
			t.Fatalf("the refit published before the follower served the row folded during it (follower: %v)", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never served the row folded during the refit: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("follower served the folded row %v after the observe", time.Since(start))

	waitRefitDone(t, p)
	waitConverged(t, p, f)
	sameBits(t, predictionGrid(t, p), predictionGrid(t, f), "follower vs refit primary")
	if got := f.met.replicaBootstraps.Load(); got < 2 {
		t.Fatalf("follower bootstrapped %d times, want ≥ 2 (startup + refit generation)", got)
	}
}

// TestFollowerMaxLag: a follower whose primary goes silent turns /healthz
// 503 once the lag bound is crossed, and recovers to 200 when the primary
// returns.
func TestFollowerMaxLag(t *testing.T) {
	m := fitModel(t, 7)
	dir := t.TempDir()
	proxy, ph := proxyServer(t)
	p, err := New(Options{Model: m, DataDir: dir,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	setProxy(ph, p)

	f, fts := followerServer(t, Options{Follow: proxy.URL,
		PollWait: 20 * time.Millisecond, MaxLag: 150 * time.Millisecond})
	waitConverged(t, p, f)

	health := func() (int, statusResponse) {
		resp, err := http.Get(fts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st statusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}
	waitFor(t, "healthy follower", func() bool {
		code, _ := health()
		return code == http.StatusOK
	})

	setProxy(ph, nil) // the primary vanishes
	waitFor(t, "staleness past MaxLag", func() bool {
		code, st := health()
		return code == http.StatusServiceUnavailable && st.Status == "stale"
	})

	setProxy(ph, p) // and returns
	waitFor(t, "recovery", func() bool {
		code, _ := health()
		return code == http.StatusOK
	})
}

// TestFollowerOptionValidation: option combinations that contradict follower
// mode fail fast instead of half-working.
func TestFollowerOptionValidation(t *testing.T) {
	m := fitModel(t, 7)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	_ = p

	bad := []Options{
		{Follow: pts.URL, Model: m},
		{Follow: pts.URL, RefitAfter: 5},
		{Follow: pts.URL, CompactAge: time.Minute},
	}
	for i, opts := range bad {
		if s, err := New(opts); err == nil {
			s.Close()
			t.Errorf("options %d accepted; want an error", i)
		}
	}

	// A primary's data dir refuses to become a follower's, and vice versa.
	pdir := t.TempDir()
	s1, err := New(Options{Model: m, DataDir: pdir, RefitAfter: 4,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range observeStream(66, 4) {
		postObserve(t, s1, b)
	}
	waitFor(t, "compaction persists a model", func() bool {
		d, err := store.OpenDir(pdir)
		return err == nil && d.HasModel()
	})
	s1.Close()
	if s, err := New(Options{Follow: pts.URL, DataDir: pdir}); err == nil {
		s.Close()
		t.Error("follower tailed over a primary's data dir")
	}

	fdir := t.TempDir()
	f, err := New(Options{Follow: pts.URL, DataDir: fdir, PollWait: 50 * time.Millisecond,
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s, err := New(Options{Model: m, DataDir: fdir}); err == nil {
		s.Close()
		t.Error("primary started over a follower's data dir")
	}
}

// TestJournalStreamEndpoint exercises the wire protocol directly: identity
// mismatches and out-of-window positions answer 410, a caught-up poll
// returns an empty 200 after the wait, and frames carry the stream headers.
func TestJournalStreamEndpoint(t *testing.T) {
	m := fitModel(t, 7)
	p, pts := testServer(t, Options{Model: m, DataDir: t.TempDir(),
		JournalSync: store.SyncPolicy{Mode: store.SyncAlways}})
	for _, b := range observeStream(67, 3) {
		postObserve(t, p, b)
	}

	get := func(query string) *http.Response {
		resp, err := http.Get(pts.URL + "/v1/journal?" + query)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	epoch := p.repl.epoch
	gen := p.repl.gen.Load()
	id := func(e, g uint64) string {
		return "epoch=" + uintStr(e) + "&gen=" + uintStr(g)
	}

	// Happy path: frames from 0 under the current identity.
	resp := get("after=0&" + id(epoch, gen))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Ptucker-Last-Seq"); got != uintStr(p.AppliedSeq()) {
		t.Fatalf("Last-Seq %q, want %d", got, p.AppliedSeq())
	}

	// Wrong identity → 410.
	if resp := get("after=0&" + id(epoch, gen+1)); resp.StatusCode != http.StatusGone {
		t.Fatalf("stale gen: %d, want 410", resp.StatusCode)
	}
	if resp := get("after=0&" + id(epoch+1, gen)); resp.StatusCode != http.StatusGone {
		t.Fatalf("stale epoch: %d, want 410", resp.StatusCode)
	}
	// Ahead of the applied sequence → 410.
	if resp := get("after=99&" + id(epoch, gen)); resp.StatusCode != http.StatusGone {
		t.Fatalf("future seq: %d, want 410", resp.StatusCode)
	}
	// Caught up with a short wait → empty 200.
	resp = get("after=" + uintStr(p.AppliedSeq()) + "&wait=10ms&" + id(epoch, gen))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("caught-up poll: %d", resp.StatusCode)
	}
	buf := make([]byte, 1)
	if n, _ := resp.Body.Read(buf); n != 0 {
		t.Fatal("caught-up poll returned frames")
	}

	// A memory-only server has no stream to offer.
	mem, mts := testServer(t, Options{Model: fitModel(t, 8)})
	_ = mem
	if resp, err := http.Get(mts.URL + "/v1/journal/bootstrap"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("memory-only bootstrap: %d, want 503", resp.StatusCode)
		}
	}
}

func uintStr(v uint64) string { return strconv.FormatUint(v, 10) }

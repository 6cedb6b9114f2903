package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	expo "repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replicate"
	"repro/internal/tensor"
)

// logBuffer is a concurrency-safe sink for the server's structured log
// stream: handler goroutines (and background refit/watch loops) write while
// the test reads.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (lb *logBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *logBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// logServer builds a testServer whose structured log stream (JSON, at the
// given level) is captured for inspection.
func logServer(t testing.TB, opts Options, level string) (*Server, string, *logBuffer) {
	t.Helper()
	buf := &logBuffer{}
	logger, err := obs.NewLogger(buf, "json", level)
	if err != nil {
		t.Fatal(err)
	}
	opts.Logger = logger
	s, ts := testServer(t, opts)
	return s, ts.URL, buf
}

// TestRequestIDEcho: a clean caller-supplied correlation ID is echoed on the
// response and lands on the access-log line; a dirty one is replaced by a
// generated ID, never echoed back.
func TestRequestIDEcho(t *testing.T) {
	_, base, buf := logServer(t, Options{}, "debug")

	const id = "test-corr-id.01"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/predict",
		strings.NewReader(`{"index":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		t.Fatalf("response echoed request ID %q, want %q", got, id)
	}
	log := buf.String()
	if !strings.Contains(log, `"request_id":"`+id+`"`) {
		t.Fatalf("access log does not carry request_id=%s:\n%s", id, log)
	}
	if !strings.Contains(log, `"endpoint":"predict"`) {
		t.Fatalf("access log does not name the endpoint:\n%s", log)
	}

	// A hostile or malformed ID must not be echoed or logged verbatim.
	const dirty = "spaces and \"quotes\""
	req, err = http.NewRequest(http.MethodPost, base+"/v1/predict",
		strings.NewReader(`{"index":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, dirty)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get(obs.RequestIDHeader)
	if got == dirty || !obs.CleanRequestID(got) {
		t.Fatalf("dirty request ID not replaced: echoed %q", got)
	}
}

// TestFollowerRequestIDPropagation: the replication client stamps its
// correlation IDs on bootstrap and poll requests, and the primary's access
// log carries them — a slow follower fetch is findable in the primary's log.
func TestFollowerRequestIDPropagation(t *testing.T) {
	_, base, buf := logServer(t, Options{DataDir: t.TempDir()}, "debug")

	const id = "follower-trace-7f"
	cl := &replicate.Client{
		Primary:   base,
		PollWait:  50 * time.Millisecond,
		RequestID: func() string { return id },
	}
	bs, err := cl.Bootstrap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Poll(context.Background(), bs.Identity, bs.Covered)
	if err != nil {
		t.Fatal(err)
	}
	if ch.RequestID != id {
		t.Fatalf("poll chunk echoed request ID %q, want %q", ch.RequestID, id)
	}
	log := buf.String()
	for _, endpoint := range []string{"bootstrap", "journal"} {
		want := `"endpoint":"` + endpoint + `"`
		line := ""
		for _, l := range strings.Split(log, "\n") {
			if strings.Contains(l, want) {
				line = l
				break
			}
		}
		if line == "" {
			t.Fatalf("primary access log has no %s line:\n%s", endpoint, log)
		}
		if !strings.Contains(line, `"request_id":"`+id+`"`) {
			t.Fatalf("primary %s line lost the follower's request ID:\n%s", endpoint, line)
		}
	}
}

// TestSlowRequestWarn: with a threshold every request exceeds, the access
// line escalates to warn — visible even when debug access logs are off.
func TestSlowRequestWarn(t *testing.T) {
	_, base, buf := logServer(t, Options{SlowRequest: time.Nanosecond}, "warn")

	resp, err := http.Post(base+"/v1/predict", "application/json",
		strings.NewReader(`{"index":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	log := buf.String()
	if !strings.Contains(log, `"msg":"slow request"`) {
		t.Fatalf("no slow-request warning at threshold 1ns:\n%s", log)
	}
	if !strings.Contains(log, `"slow_threshold"`) || !strings.Contains(log, `"endpoint":"predict"`) {
		t.Fatalf("slow-request warning lacks detail:\n%s", log)
	}

	// Without a threshold the same logger stays silent at warn level.
	_, base2, buf2 := logServer(t, Options{}, "warn")
	resp, err = http.Post(base2+"/v1/predict", "application/json",
		strings.NewReader(`{"index":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if log := buf2.String(); strings.Contains(log, "slow request") {
		t.Fatalf("slow-request warning fired without a threshold:\n%s", log)
	}
}

// TestReadmeDocumentsMetrics: every metric family a live primary and
// follower emit must appear in the README's Observability section — the
// reference cannot rot silently.
func TestReadmeDocumentsMetrics(t *testing.T) {
	// A primary exercising every conditional family: durable (journal +
	// replication-primary groups) and a holdout set.
	rng := rand.New(rand.NewSource(51))
	hold := tensor.NewCoord([]int{20, 16, 12})
	for hold.NNZ() < 50 {
		hold.MustAppend([]int{rng.Intn(20), rng.Intn(16), rng.Intn(12)}, rng.Float64())
	}
	holdPath := filepath.Join(t.TempDir(), "holdout.tns")
	if err := tensor.WriteFile(holdPath, hold); err != nil {
		t.Fatal(err)
	}
	_, pts := testServer(t, Options{
		DataDir:     t.TempDir(),
		HoldoutPath: holdPath,
		Pprof:       true,
	})
	follower, err := New(Options{Follow: pts.URL, PollWait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	families := map[string]bool{}
	for _, base := range []string{pts.URL, fts.URL} {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		fams, err := expo.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("scrape %s/metrics does not parse: %v", base, err)
		}
		for name := range fams {
			families[name] = true
		}
	}
	if len(families) < 30 {
		t.Fatalf("only %d families scraped; the fixture server lost coverage", len(families))
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	for name := range families {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("README does not document metric family %s", name)
		}
	}
}

// TestPprofAuth: the profiling endpoints exist only with Options.Pprof, and
// sit behind the bearer token when one is configured.
func TestPprofAuth(t *testing.T) {
	_, off := testServer(t, Options{AuthToken: "tok"})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := testServer(t, Options{Pprof: true, AuthToken: "tok"})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pprof without token = %d, want 401", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodGet, on.URL+"/debug/pprof/", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with token = %d, want 200", resp.StatusCode)
	}

	// Without a configured token the profiler is open (same policy as the
	// mutating endpoints).
	_, open := testServer(t, Options{Pprof: true})
	resp, err = http.Get(open.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof open = %d, want 200", resp.StatusCode)
	}
}

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func getJSON(t testing.TB, url string, dst interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestObserveFoldInServesImmediately is the cold-start flow end to end:
// /v1/observe folds a new user in, and predictions plus exclusion-aware
// recommendations for them work on the very next request — no refit, no
// reload. The fixture model has dims [20 16 12].
func TestObserveFoldInServesImmediately(t *testing.T) {
	_, ts := testServer(t, Options{})

	// The new user (row 20 of mode 0) rated items 1 and 3.
	status, body := postJSON(t, ts.URL+"/v1/observe",
		`{"observations":[
			{"index":[20,1,2],"value":0.9},
			{"index":[20,3,4],"value":0.8},
			{"index":[20,1,5],"value":0.7}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, body)
	}
	var or observeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if len(or.Folded) != 1 || or.Folded[0].Mode != 0 || or.Folded[0].Index != 20 || or.Folded[0].NNZ != 3 {
		t.Fatalf("folded = %+v, want one fold of mode 0 row 20 with 3 observations", or.Folded)
	}
	if or.Appended != 0 {
		t.Fatalf("appended = %d, want 0", or.Appended)
	}
	if fmt.Sprint(or.Dims) != fmt.Sprint([]int{21, 16, 12}) {
		t.Fatalf("dims = %v, want [21 16 12]", or.Dims)
	}

	// Predict for the folded-in user.
	status, body = postJSON(t, ts.URL+"/v1/predict", `{"index":[20,5,5]}`)
	if status != http.StatusOK {
		t.Fatalf("predict on new row: %d %s", status, body)
	}

	// Recommend for them, excluding what they already rated.
	status, body = postJSON(t, ts.URL+"/v1/recommend",
		`{"query":[20,0,2],"mode":1,"k":16,"exclude":[1,3]}`)
	if status != http.StatusOK {
		t.Fatalf("recommend on new row: %d %s", status, body)
	}
	var rr recommendResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Recs) != 14 {
		t.Fatalf("got %d recs, want 14 (16 items minus 2 excluded)", len(rr.Recs))
	}
	for _, r := range rr.Recs {
		if r.Index == 1 || r.Index == 3 {
			t.Fatalf("recommendation echoes excluded item %d", r.Index)
		}
	}

	// /healthz reports the grown shape.
	var health statusResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if fmt.Sprint(health.Dims) != fmt.Sprint([]int{21, 16, 12}) {
		t.Fatalf("healthz dims = %v, want [21 16 12]", health.Dims)
	}
}

// TestObserveChainedNewRows: one request can introduce a new user AND a new
// item; the observation pairing them lands in whichever row is folded last.
func TestObserveChainedNewRows(t *testing.T) {
	_, ts := testServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/observe",
		`{"observations":[
			{"index":[20,1,2],"value":0.9},
			{"index":[4,16,0],"value":0.6},
			{"index":[20,16,1],"value":0.8},
			{"index":[2,2,2],"value":0.4}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, body)
	}
	var or observeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if or.Appended != 1 {
		t.Fatalf("appended = %d, want 1 (the fully in-range observation)", or.Appended)
	}
	if len(or.Folded) != 2 {
		t.Fatalf("folded = %+v, want the new user then the new item", or.Folded)
	}
	if or.Folded[0].Mode != 0 || or.Folded[0].Index != 20 || or.Folded[0].NNZ != 1 {
		t.Fatalf("first fold = %+v, want mode 0 row 20 with 1 obs (the user/item pair defers)", or.Folded[0])
	}
	if or.Folded[1].Mode != 1 || or.Folded[1].Index != 16 || or.Folded[1].NNZ != 2 {
		t.Fatalf("second fold = %+v, want mode 1 row 16 with 2 obs (incl. the pair)", or.Folded[1])
	}
	if fmt.Sprint(or.Dims) != fmt.Sprint([]int{21, 17, 12}) {
		t.Fatalf("dims = %v, want [21 17 12]", or.Dims)
	}
}

// TestObserveRejectsUnplaceable: a gap in the new indices fails the whole
// batch with 400 and leaves the served model untouched.
func TestObserveRejectsUnplaceable(t *testing.T) {
	_, ts := testServer(t, Options{})
	cases := []struct {
		name, body string
	}{
		{"gap", `{"observations":[{"index":[25,0,0],"value":1}]}`},
		{"two new coords only", `{"observations":[{"index":[20,16,0],"value":1}]}`},
		{"negative", `{"observations":[{"index":[-1,0,0],"value":1}]}`},
		{"wrong order", `{"observations":[{"index":[1,2],"value":1}]}`},
		{"empty", `{"observations":[]}`},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+"/v1/observe", tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, status, body)
		}
	}
	var health statusResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if fmt.Sprint(health.Dims) != fmt.Sprint([]int{20, 16, 12}) {
		t.Fatalf("rejected observes changed the model: dims %v", health.Dims)
	}
}

// TestObserveTriggersBackgroundRefit: after RefitAfter observations the
// server refits in the background and swaps the result in.
func TestObserveTriggersBackgroundRefit(t *testing.T) {
	s, ts := testServer(t, Options{RefitAfter: 3})
	status, body := postJSON(t, ts.URL+"/v1/observe",
		`{"observations":[
			{"index":[1,1,1],"value":0.5},
			{"index":[2,2,2],"value":0.6},
			{"index":[3,3,3],"value":0.7}
		]}`)
	if status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, body)
	}
	var or observeResponse
	if err := json.Unmarshal(body, &or); err != nil {
		t.Fatal(err)
	}
	if !or.RefitTriggered {
		t.Fatal("refit not triggered at the RefitAfter threshold")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.met.refits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refit never published (errors: %d)", s.met.refitErrors.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The refit's snapshot is what serves now; a predict still works.
	status, body = postJSON(t, ts.URL+"/v1/predict", `{"index":[1,1,1]}`)
	if status != http.StatusOK {
		t.Fatalf("predict after refit: %d %s", status, body)
	}
}

// TestRefitUsesHostThreads: the Threads a model carries is the count of the
// host that wrote it. A served model's fitters resume with this host's
// GOMAXPROCS instead, so a foreign count never sizes a refit's per-thread
// buffers, and the published refit records the serving host's count.
func TestRefitUsesHostThreads(t *testing.T) {
	m := fitModel(t, 7)
	m.Config.Threads = 4096
	s, _ := testServer(t, Options{Model: m, RefitAfter: 1})
	postObserve(t, s, []core.Observation{{Index: []int{1, 1, 1}, Value: 0.5}})
	waitFor(t, "refit publish", func() bool { return s.met.refits.Load() > 0 })
	if got, want := s.snapshot().model.Config.Threads, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("published refit has Threads %d, want this host's GOMAXPROCS %d", got, want)
	}
}

// TestObserveConcurrentWithPredict hammers /v1/predict and /v1/recommend
// while /v1/observe grows the model one fold-in at a time — the -race
// check for the snapshot-swap discipline on the online path.
func TestObserveConcurrentWithPredict(t *testing.T) {
	_, ts := testServer(t, Options{RefitAfter: 7})
	const folds = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Only ever address the original shape; it can only grow.
				idx := fmt.Sprintf(`{"index":[%d,%d,%d]}`, rng.Intn(20), rng.Intn(16), rng.Intn(12))
				if status, body := postJSON(t, ts.URL+"/v1/predict", idx); status != http.StatusOK {
					panic(fmt.Sprintf("predict: %d %s", status, body))
				}
				q := fmt.Sprintf(`{"query":[%d,0,%d],"mode":1,"k":5,"exclude":[0,1]}`, rng.Intn(20), rng.Intn(12))
				if status, body := postJSON(t, ts.URL+"/v1/recommend", q); status != http.StatusOK {
					panic(fmt.Sprintf("recommend: %d %s", status, body))
				}
			}
		}(int64(g))
	}

	// Sequential observer: folds a new user each round (the next new row is
	// known because this goroutine is the only writer).
	for i := 0; i < folds; i++ {
		row := 20 + i
		b := fmt.Sprintf(`{"observations":[
			{"index":[%d,1,2],"value":0.5},
			{"index":[%d,2,3],"value":0.6}
		]}`, row, row)
		status, body := postJSON(t, ts.URL+"/v1/observe", b)
		if status != http.StatusOK {
			t.Fatalf("observe %d: %d %s", i, status, body)
		}
	}
	close(stop)
	wg.Wait()

	var health statusResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Dims[0] != 20+folds {
		t.Fatalf("dims after %d fold-ins = %v", folds, health.Dims)
	}
}

// TestReloadDropsOnlineState: an external reload supersedes everything
// observed so far — the shape snaps back to the loaded file's.
func TestReloadDropsOnlineState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ptkm")
	if err := core.SaveModel(path, fitModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	_, ts := testServer(t, Options{ModelPath: path})

	status, body := postJSON(t, ts.URL+"/v1/observe", `{"observations":[{"index":[20,1,2],"value":0.9}]}`)
	if status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, body)
	}
	var health statusResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Dims[0] != 21 {
		t.Fatalf("fold-in did not grow the served model: dims %v", health.Dims)
	}

	if status, body = postJSON(t, ts.URL+"/v1/reload", `{}`); status != http.StatusOK {
		t.Fatalf("reload: %d %s", status, body)
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Dims[0] != 20 {
		t.Fatalf("reload kept online growth: dims %v", health.Dims)
	}

	// Observing again starts a fresh fitter over the reloaded model.
	if status, body = postJSON(t, ts.URL+"/v1/observe", `{"observations":[{"index":[20,1,2],"value":0.9}]}`); status != http.StatusOK {
		t.Fatalf("observe after reload: %d %s", status, body)
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Dims[0] != 21 {
		t.Fatalf("post-reload fold-in: dims %v", health.Dims)
	}
}

// TestBodyLimit: oversized request bodies are cut off with a JSON 413.
func TestBodyLimit(t *testing.T) {
	_, ts := testServer(t, Options{MaxBodyBytes: 64})
	big := `{"indexes":[` + strings.Repeat(`[1,2,3],`, 100) + `[1,2,3]]}`
	status, body := postJSON(t, ts.URL+"/v1/predict-batch", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", status, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not a JSON error: %s", body)
	}
	// Small bodies still work.
	if status, body = postJSON(t, ts.URL+"/v1/predict", `{"index":[1,2,3]}`); status != http.StatusOK {
		t.Fatalf("small body rejected: %d %s", status, body)
	}
}

// TestTimeoutMiddleware: a handler that outlives the per-request budget is
// answered with a JSON 503 while fast handlers pass through untouched.
func TestTimeoutMiddleware(t *testing.T) {
	s, _ := testServer(t, Options{Timeout: 20 * time.Millisecond})

	slow := s.withTimeout(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.WriteHeader(http.StatusOK)
	})
	rr := httptest.NewRecorder()
	slow.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow handler: status %d, want 503", rr.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("503 body is not a JSON error: %s", rr.Body.String())
	}
	if s.met.timeouts.Load() == 0 {
		t.Fatal("timeout not counted")
	}

	fast := s.withTimeout(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fast", "yes")
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "ok")
	})
	rr = httptest.NewRecorder()
	fast.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/predict", nil))
	if rr.Code != http.StatusTeapot || rr.Body.String() != "ok" || rr.Header().Get("X-Fast") != "yes" {
		t.Fatalf("fast handler response mangled: %d %q", rr.Code, rr.Body.String())
	}
}

// TestWatchModelReloads: overwriting the model file is a deploy — the
// watcher notices the stat change and hot-swaps without any signal or call.
func TestWatchModelReloads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ptkm")
	if err := core.SaveModel(path, fitModel(t, 7)); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Options{ModelPath: path})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		_ = s.WatchModel(ctx, 10*time.Millisecond)
	}()

	var before predictResponse
	status, body := postJSON(t, ts.URL+"/v1/predict", `{"index":[1,2,3]}`)
	if status != http.StatusOK {
		t.Fatalf("predict: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}

	// Deploy a different model by overwriting the file.
	if err := core.SaveModel(path, fitModel(t, 8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, body = postJSON(t, ts.URL+"/v1/predict", `{"index":[1,2,3]}`)
		if status != http.StatusOK {
			t.Fatalf("predict: %d %s", status, body)
		}
		var now predictResponse
		if err := json.Unmarshal(body, &now); err != nil {
			t.Fatal(err)
		}
		if now.Value != before.Value {
			break // the new model answers
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never reloaded the overwritten model")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-watchDone
}

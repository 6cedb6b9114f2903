package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// fitModel fits a small planted model with the given seed; different seeds
// give models whose predictions are observably different.
func fitModel(t testing.TB, seed int64) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := []int{20, 16, 12}
	x := tensor.NewCoord(dims)
	idx := make([]int, 3)
	seen := make(map[int]bool)
	for x.NNZ() < 1200 {
		flat := 0
		stride := 1
		for k, d := range dims {
			idx[k] = rng.Intn(d)
			flat += idx[k] * stride
			stride *= d
		}
		if seen[flat] {
			continue
		}
		seen[flat] = true
		x.MustAppend(idx, rng.Float64())
	}
	cfg := core.Defaults([]int{3, 3, 3})
	cfg.MaxIters = 3
	cfg.Tol = 0
	cfg.Seed = seed
	m, err := core.DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testServer wires a Server over an in-memory model plus an httptest front.
func testServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Model == nil && opts.ModelPath == "" {
		opts.Model = fitModel(t, 7)
	}
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

func postJSON(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHandlersRejectBadInput(t *testing.T) {
	// Durable, so the observe rows can also check that nothing was journaled.
	s, ts := testServer(t, Options{DataDir: t.TempDir()})
	cases := []struct {
		name     string
		endpoint string
		body     string
		want     int
	}{
		{"predict bad json", "/v1/predict", `{"index":`, http.StatusBadRequest},
		{"predict unknown field", "/v1/predict", `{"idx":[1,2,3]}`, http.StatusBadRequest},
		{"predict wrong order", "/v1/predict", `{"index":[1,2]}`, http.StatusBadRequest},
		{"predict out of range", "/v1/predict", `{"index":[1,2,999]}`, http.StatusBadRequest},
		{"predict negative", "/v1/predict", `{"index":[-1,0,0]}`, http.StatusBadRequest},
		{"predict empty body", "/v1/predict", ``, http.StatusBadRequest},
		{"batch bad json", "/v1/predict-batch", `{"indexes":[[1,2,3],`, http.StatusBadRequest},
		{"batch wrong order item", "/v1/predict-batch", `{"indexes":[[1,2,3],[1,2]]}`, http.StatusBadRequest},
		{"batch out of range item", "/v1/predict-batch", `{"indexes":[[1,2,3],[0,0,99]]}`, http.StatusBadRequest},
		{"recommend bad json", "/v1/recommend", `{`, http.StatusBadRequest},
		{"recommend bad mode", "/v1/recommend", `{"query":[1,2,3],"mode":9,"k":3}`, http.StatusBadRequest},
		{"recommend bad fixed index", "/v1/recommend", `{"query":[1,999,3],"mode":0,"k":3}`, http.StatusBadRequest},
		{"recommend zero k", "/v1/recommend", `{"query":[1,2,3],"mode":0,"k":0}`, http.StatusBadRequest},
		{"observe overflowing value", "/v1/observe", `{"observations":[{"index":[1,2,3],"value":1e999}]}`, http.StatusBadRequest},
		{"reload bad json", "/v1/reload", `{"model":3}`, http.StatusBadRequest},
		{"reload missing file", "/v1/reload", `{"model":"/nonexistent.ptkm"}`, http.StatusBadRequest},
		{"reload no default path", "/v1/reload", `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+tc.endpoint, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d want %d (body %s)", tc.name, status, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: expected a JSON error body, got %s", tc.name, body)
		}
	}
	if seq := s.journal.LastSeq(); seq != 0 {
		t.Errorf("rejected observe was journaled: journal at seq %d", seq)
	}
}

func TestHandlersRejectWrongMethod(t *testing.T) {
	_, ts := testServer(t, Options{})
	for _, ep := range []string{"/v1/predict", "/v1/predict-batch", "/v1/recommend", "/v1/reload"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d want 405", ep, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: status %d want 405", resp.StatusCode)
	}
}

func TestPredictMatchesPredictor(t *testing.T) {
	m := fitModel(t, 7)
	_, ts := testServer(t, Options{Model: m})
	p := core.NewPredictor(m)
	rng := rand.New(rand.NewSource(3))
	dims := p.Dims()

	for trial := 0; trial < 50; trial++ {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		body, _ := json.Marshal(predictRequest{Index: idx})
		status, resp := postJSON(t, ts.URL+"/v1/predict", string(body))
		if status != http.StatusOK {
			t.Fatalf("predict %v: status %d body %s", idx, status, resp)
		}
		var pr predictResponse
		if err := json.Unmarshal(resp, &pr); err != nil {
			t.Fatal(err)
		}
		if want := p.Predict(idx); math.Float64bits(pr.Value) != math.Float64bits(want) {
			t.Fatalf("predict %v = %v, predictor says %v", idx, pr.Value, want)
		}
	}
}

func TestPredictBatchMatchesPredictor(t *testing.T) {
	m := fitModel(t, 7)
	_, ts := testServer(t, Options{Model: m})
	p := core.NewPredictor(m)
	rng := rand.New(rand.NewSource(4))
	dims := p.Dims()

	idxs := make([][]int, 100)
	for i := range idxs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		idxs[i] = idx
	}
	body, _ := json.Marshal(predictBatchRequest{Indexes: idxs})
	status, resp := postJSON(t, ts.URL+"/v1/predict-batch", string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d body %s", status, resp)
	}
	var br predictBatchResponse
	if err := json.Unmarshal(resp, &br); err != nil {
		t.Fatal(err)
	}
	want := p.PredictBatch(idxs)
	if len(br.Values) != len(want) {
		t.Fatalf("got %d values want %d", len(br.Values), len(want))
	}
	for i := range want {
		if math.Float64bits(br.Values[i]) != math.Float64bits(want[i]) {
			t.Fatalf("item %d: %v want %v", i, br.Values[i], want[i])
		}
	}
}

// The /v1/recommend answer must equal brute-force top-K over Predict
// scoring: identical candidate order, scores within float reassociation
// tolerance.
func TestRecommendMatchesBruteForce(t *testing.T) {
	m := fitModel(t, 7)
	_, ts := testServer(t, Options{Model: m})
	p := core.NewPredictor(m)
	dims := p.Dims()

	for mode := 0; mode < len(dims); mode++ {
		query := []int{3, 5, 2}
		k := 7
		body, _ := json.Marshal(recommendRequest{Query: query, Mode: mode, K: k})
		status, resp := postJSON(t, ts.URL+"/v1/recommend", string(body))
		if status != http.StatusOK {
			t.Fatalf("mode %d: status %d body %s", mode, status, resp)
		}
		var rr recommendResponse
		if err := json.Unmarshal(resp, &rr); err != nil {
			t.Fatal(err)
		}

		// Brute force: score every candidate with Predict, rank by score
		// descending / index ascending.
		type cand struct {
			i int
			s float64
		}
		cands := make([]cand, dims[mode])
		idx := append([]int(nil), query...)
		for i := range cands {
			idx[mode] = i
			cands[i] = cand{i, p.Predict(idx)}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].s != cands[b].s {
				return cands[a].s > cands[b].s
			}
			return cands[a].i < cands[b].i
		})

		if len(rr.Recs) != k {
			t.Fatalf("mode %d: got %d recs want %d", mode, len(rr.Recs), k)
		}
		for r, rec := range rr.Recs {
			if rec.Index != cands[r].i {
				t.Fatalf("mode %d rank %d: index %d want %d", mode, r, rec.Index, cands[r].i)
			}
			if d := math.Abs(rec.Score - cands[r].s); d > 1e-9*(1+math.Abs(cands[r].s)) {
				t.Fatalf("mode %d rank %d: score %v want %v", mode, r, rec.Score, cands[r].s)
			}
		}
	}
}

func TestReloadSwapsModel(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.ptkm")
	pathB := filepath.Join(dir, "b.ptkm")
	mA, mB := fitModel(t, 7), fitModel(t, 8)
	if err := core.SaveModel(pathA, mA); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(pathB, mB); err != nil {
		t.Fatal(err)
	}

	s, ts := testServer(t, Options{ModelPath: pathA})
	idx := []int{3, 5, 2}
	wantA := core.NewPredictor(mA).Predict(idx)
	wantB := core.NewPredictor(mB).Predict(idx)
	if math.Float64bits(wantA) == math.Float64bits(wantB) {
		t.Fatal("fixture models predict identically; test cannot observe the swap")
	}

	get := func() float64 {
		body, _ := json.Marshal(predictRequest{Index: idx})
		status, resp := postJSON(t, ts.URL+"/v1/predict", string(body))
		if status != http.StatusOK {
			t.Fatalf("status %d body %s", status, resp)
		}
		var pr predictResponse
		if err := json.Unmarshal(resp, &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Value
	}

	if got := get(); math.Float64bits(got) != math.Float64bits(wantA) {
		t.Fatalf("before reload: %v want model A's %v", got, wantA)
	}
	status, resp := postJSON(t, ts.URL+"/v1/reload", fmt.Sprintf(`{"model":%q}`, pathB))
	if status != http.StatusOK {
		t.Fatalf("reload: status %d body %s", status, resp)
	}
	if got := get(); math.Float64bits(got) != math.Float64bits(wantB) {
		t.Fatalf("after reload: %v want model B's %v", got, wantB)
	}

	// A failed reload must leave model B serving (missing client-named
	// file is the caller's mistake: 400).
	status, _ = postJSON(t, ts.URL+"/v1/reload", `{"model":"/nonexistent.ptkm"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("broken reload: status %d want 400", status)
	}
	if got := get(); math.Float64bits(got) != math.Float64bits(wantB) {
		t.Fatalf("after failed reload: %v want model B's %v", got, wantB)
	}

	// A failure of the server's own configured path is a genuine 5xx.
	if err := os.Remove(pathA); err != nil {
		t.Fatal(err)
	}
	status, _ = postJSON(t, ts.URL+"/v1/reload", `{}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("default-path reload with missing file: status %d want 500", status)
	}
	if got := get(); math.Float64bits(got) != math.Float64bits(wantB) {
		t.Fatalf("after failed default reload: %v want model B's %v", got, wantB)
	}
	_ = s
}

// Hammer /v1/predict from many goroutines while reloading between two models
// the whole time: every answer must be exactly model A's or model B's — a
// torn or mixed snapshot would produce a third value. Run with -race.
func TestConcurrentReloadWhilePredicting(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.ptkm")
	pathB := filepath.Join(dir, "b.ptkm")
	mA, mB := fitModel(t, 7), fitModel(t, 8)
	if err := core.SaveModel(pathA, mA); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(pathB, mB); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{ModelPath: pathA})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	idx := []int{3, 5, 2}
	wantA := core.NewPredictor(mA).Predict(idx)
	wantB := core.NewPredictor(mB).Predict(idx)
	body, _ := json.Marshal(predictRequest{Index: idx})

	const clients = 8
	const perClient = 40
	errs := make(chan string, clients*perClient+1)
	var wg, reloaderWg sync.WaitGroup
	stopReload := make(chan struct{})

	reloaderWg.Add(1)
	go func() {
		defer reloaderWg.Done()
		paths := []string{pathB, pathA}
		for i := 0; ; i++ {
			select {
			case <-stopReload:
				return
			default:
			}
			if err := s.Reload(paths[i%2]); err != nil {
				errs <- fmt.Sprintf("reload: %v", err)
				return
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err.Error()
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
					return
				}
				var pr predictResponse
				if err := json.Unmarshal(b, &pr); err != nil {
					errs <- err.Error()
					return
				}
				bits := math.Float64bits(pr.Value)
				if bits != math.Float64bits(wantA) && bits != math.Float64bits(wantB) {
					errs <- fmt.Sprintf("answer %v is neither model A's %v nor model B's %v",
						pr.Value, wantA, wantB)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopReload)
	reloaderWg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := testServer(t, Options{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var st statusResponse
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Order != 3 || len(st.Dims) != 3 {
		t.Fatalf("healthz body: %+v", st)
	}

	// Generate one good and one bad predict, then check the counters moved.
	postJSON(t, ts.URL+"/v1/predict", `{"index":[1,2,3]}`)
	postJSON(t, ts.URL+"/v1/predict", `{"index":[999,2,3]}`)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	metricsText := string(mb)
	for _, want := range []string{
		`ptucker_requests_total{endpoint="predict"} 2`,
		`ptucker_errors_total{endpoint="predict"} 1`,
		`ptucker_predictions_total 1`,
		"ptucker_reloads_total 0",
		"ptucker_model_order 3",
		fmt.Sprintf("ptucker_model_core_nnz %d", s.snapshot().coreNNZ),
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics output missing %q:\n%s", want, metricsText)
		}
	}
}

// Concurrent /v1/predict handlers share the predictor's pooled scratch: many
// distinct indices scored at once must each get exactly their own answer,
// bit-identical to a fresh Predictor. Run with -race.
func TestPredictAnswersMatchUnderLoad(t *testing.T) {
	m := fitModel(t, 7)
	_, ts := testServer(t, Options{Model: m})
	p := core.NewPredictor(m)
	dims := p.Dims()
	rng := rand.New(rand.NewSource(11))

	type job struct {
		body string
		want float64
	}
	jobs := make([]job, 0, 300)
	seen := make(map[string]bool)
	for len(jobs) < cap(jobs) {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		body, _ := json.Marshal(predictRequest{Index: idx})
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		jobs = append(jobs, job{string(body), p.Predict(idx)})
	}

	const clients = 32
	queue := make(chan job, len(jobs))
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	errs := make(chan string, len(jobs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(j.body))
				if err != nil {
					errs <- err.Error()
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var pr predictResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &pr) != nil {
					errs <- fmt.Sprintf("predict %s: status %d body %s", j.body, resp.StatusCode, b)
					return
				}
				if math.Float64bits(pr.Value) != math.Float64bits(j.want) {
					errs <- fmt.Sprintf("predict %s = %v want %v", j.body, pr.Value, j.want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// /v1/predict scores on the handler goroutine through PredictChecked:
// answers are bit-identical to the Predictor, a malformed index is a 400,
// and only the scored cell counts toward ptucker_predictions_total.
func TestPredictDirectPath(t *testing.T) {
	m := fitModel(t, 7)
	s, ts := testServer(t, Options{Model: m})
	p := core.NewPredictor(m)

	status, resp := postJSON(t, ts.URL+"/v1/predict", `{"index":[3,5,2]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d body %s", status, resp)
	}
	var pr predictResponse
	if err := json.Unmarshal(resp, &pr); err != nil {
		t.Fatal(err)
	}
	if want := p.Predict([]int{3, 5, 2}); math.Float64bits(pr.Value) != math.Float64bits(want) {
		t.Fatalf("direct-path predict %v want %v", pr.Value, want)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/predict", `{"index":[999,5,2]}`); status != http.StatusBadRequest {
		t.Fatalf("direct-path bad index: status %d want 400", status)
	}
	if got := s.met.predictions.Load(); got != 1 {
		t.Fatalf("predictions counter = %d want 1", got)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s, err := New(Options{Model: fitModel(t, 7)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // must not panic
}

package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// benchIndexes samples n valid multi-indices for the benchmark model.
func benchIndexes(b *testing.B, p *core.Predictor, n int) [][]int {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	dims := p.Dims()
	idxs := make([][]int, n)
	for i := range idxs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		idxs[i] = idx
	}
	return idxs
}

// BenchmarkServeHTTPPredict measures the full stack: HTTP round trip, JSON
// decode, kernel, JSON encode.
func BenchmarkServeHTTPPredict(b *testing.B) {
	m := fitModel(b, 7)
	s, err := New(Options{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	idxs := benchIndexes(b, core.NewPredictor(m), 256)
	bodies := make([]string, len(idxs))
	for i, idx := range idxs {
		raw, _ := json.Marshal(predictRequest{Index: idx})
		bodies[i] = string(raw)
	}

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				b.Error(err)
				return
			}
			var pr predictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				b.Error(err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			i++
		}
	})
}

// BenchmarkServeRecommend measures the contracted top-K path of
// /v1/recommend at the Recommender level: one core contraction plus a dense
// candidate sweep per query.
func BenchmarkServeRecommend(b *testing.B) {
	m := fitModel(b, 7)
	s, err := New(Options{Model: m})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	snap := s.snapshot()

	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := snap.rec.TopK([]int{3, 5, 2}, 0, 10); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

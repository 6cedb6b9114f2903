package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteTopK ranks every candidate of freeMode by Predictor.Predict and
// returns the top k under the recommender's documented order (score
// descending, index ascending).
func bruteTopK(p *Predictor, query []int, freeMode, k int) []Rec {
	dims := p.Dims()
	recs := make([]Rec, dims[freeMode])
	idx := append([]int(nil), query...)
	for i := range recs {
		idx[freeMode] = i
		recs[i] = Rec{Index: i, Score: p.Predict(idx)}
	}
	sort.Slice(recs, func(a, b int) bool { return better(recs[a], recs[b]) })
	if k > len(recs) {
		k = len(recs)
	}
	return recs[:k]
}

func TestRecommenderMatchesBruteForce(t *testing.T) {
	_, p, _ := predictorFixture(t)
	rec := p.Recommender()
	rng := rand.New(rand.NewSource(99))
	dims := p.Dims()

	for trial := 0; trial < 20; trial++ {
		freeMode := trial % len(dims)
		query := make([]int, len(dims))
		for m, d := range dims {
			query[m] = rng.Intn(d)
		}
		query[freeMode] = -7 // must be ignored
		k := 1 + rng.Intn(dims[freeMode])

		got, err := rec.TopK(query, freeMode, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(p, query, freeMode, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d recs want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index {
				t.Fatalf("trial %d rank %d: index %d want %d (scores %v vs %v)",
					trial, i, got[i].Index, want[i].Index, got[i].Score, want[i].Score)
			}
			// The contraction reassociates the sum, so allow ulp-level
			// divergence from Predict while requiring identical ranking.
			if d := math.Abs(got[i].Score - want[i].Score); d > 1e-9*(1+math.Abs(want[i].Score)) {
				t.Fatalf("trial %d rank %d: score %v too far from Predict %v",
					trial, i, got[i].Score, want[i].Score)
			}
		}
	}
}

func TestRecommenderKClampAndFullRanking(t *testing.T) {
	_, p, _ := predictorFixture(t)
	rec := p.Recommender()
	dims := p.Dims()
	query := []int{0, 3, 0}
	got, err := rec.TopK(query, 0, dims[0]+100) // k beyond the mode clamps
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != dims[0] {
		t.Fatalf("clamped k returned %d recs want %d", len(got), dims[0])
	}
	for i := 1; i < len(got); i++ {
		if better(got[i], got[i-1]) {
			t.Fatalf("ranking not ordered at %d: %v before %v", i, got[i-1], got[i])
		}
	}
}

func TestRecommenderRejectsBadQueries(t *testing.T) {
	_, p, _ := predictorFixture(t)
	rec := p.Recommender()
	cases := []struct {
		name     string
		query    []int
		freeMode int
		k        int
		want     error
	}{
		{"bad free mode", []int{0, 0, 0}, 3, 5, ErrBadQuery},
		{"negative free mode", []int{0, 0, 0}, -1, 5, ErrBadQuery},
		{"wrong order", []int{0, 0}, 0, 5, ErrBadQuery},
		{"fixed index out of range", []int{0, 999, 0}, 0, 5, ErrBadIndex},
		{"negative fixed index", []int{0, -1, 0}, 0, 5, ErrBadIndex},
		{"non-positive k", []int{0, 0, 0}, 0, 0, ErrBadQuery},
	}
	for _, tc := range cases {
		if _, err := rec.TopK(tc.query, tc.freeMode, tc.k); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// A heap-based selection must handle score ties deterministically: build a
// model whose free-mode factor has duplicated rows so tied scores are
// guaranteed, and require the tie to go to the lower index.
func TestRecommenderTieBreaksByIndex(t *testing.T) {
	src, pr := tieFixture(t)
	rec := pr.Recommender()
	got, err := rec.TopK([]int{0, 1, 2}, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Score == b.Score && a.Index > b.Index {
			t.Fatalf("tie at score %v ordered %d before %d", a.Score, a.Index, b.Index)
		}
	}
	// With every row duplicated, each consecutive pair shares a score.
	if got[0].Score != got[1].Score {
		t.Fatalf("expected duplicated top rows to tie: %v vs %v", got[0].Score, got[1].Score)
	}
	if got[0].Index > got[1].Index {
		t.Fatalf("tied pair ordered %d before %d", got[0].Index, got[1].Index)
	}
}

// tieFixture fits a tiny model, then overwrites mode-0 factor rows so row
// 2i+1 equals row 2i, guaranteeing exact score ties for every pair. It
// returns the mode-0 dimensionality and a predictor over the doctored model.
func tieFixture(t *testing.T) (int, *Predictor) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	dims := []int{10, 6, 5}
	x := plantedTensor(rng, dims, []int{2, 2, 2}, 200, 0.05)
	m, err := DecomposeContext(context.Background(), x, smallConfig([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	a := m.Factors[0]
	for i := 0; i+1 < a.Rows(); i += 2 {
		copy(a.Row(i+1), a.Row(i))
	}
	return dims[0], NewPredictor(m)
}

// TestTopKExcluding: the exclusion set removes exactly the named candidates
// and the rest keep the TopK order; out-of-range and duplicate exclusions
// are ignored; excluding everything yields an empty ranking.
func TestTopKExcluding(t *testing.T) {
	_, p, _ := predictorFixture(t)
	rec := p.Recommender()
	dims := p.Dims()
	freeMode := 1
	query := make([]int, len(dims))

	full, err := rec.TopK(query, freeMode, dims[freeMode])
	if err != nil {
		t.Fatal(err)
	}

	exclude := []int{full[0].Index, full[2].Index, full[0].Index, -5, dims[freeMode] + 9}
	got, err := rec.TopKExcluding(query, freeMode, dims[freeMode], exclude)
	if err != nil {
		t.Fatal(err)
	}
	var want []Rec
	for _, r := range full {
		if r.Index != full[0].Index && r.Index != full[2].Index {
			want = append(want, r)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d recs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Score != want[i].Score {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// k larger than the remaining candidates clamps.
	got, err = rec.TopKExcluding(query, freeMode, dims[freeMode], []int{full[0].Index})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != dims[freeMode]-1 {
		t.Fatalf("clamp: got %d recs, want %d", len(got), dims[freeMode]-1)
	}

	// Excluding every candidate leaves nothing to recommend.
	all := make([]int, dims[freeMode])
	for i := range all {
		all[i] = i
	}
	got, err = rec.TopKExcluding(query, freeMode, 3, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("all-excluded: got %d recs, want 0", len(got))
	}

	// TopK is TopKExcluding with a nil set.
	a, err := rec.TopK(query, freeMode, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.TopKExcluding(query, freeMode, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nil exclusion diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

package core

import (
	"container/heap"
	"fmt"

	"repro/internal/mat"
)

// Recommender answers top-K queries over one mode of a fitted model: given a
// query that fixes every mode but one (the paper's opening workload — fix
// (user, time), rank all movies), it returns the K free-mode indices with the
// highest predicted values.
//
// Scoring every candidate with Predict would cost a core contraction per
// candidate. The recommender instead runs the contraction kernel once for
// the free mode m — w[j] = Σ_{β: β_m=j} Gβ · ∏_{k≠m} A(k)[i_k][β_k], the
// Eq. 12 δ of the fixed rows — after which every candidate's score is the
// dot product A(m)[i]·w, an O(I·J) dense sweep feeding a bounded min-heap.
// Predict is the same kernel for the last mode dotted with its row, in the
// same order, so when the free mode is the last one each score equals
// Predict on that cell bit for bit. For any other free mode the sum groups
// core entries by that mode's coordinate instead, so a score can differ from
// Predict by rounding in the last few ulps. The ranking itself is
// deterministic: equal queries on equal snapshots always return the
// identical ordering.
//
// A Recommender shares the Predictor's immutable factor and core snapshots
// and its scratch pool, so deriving one is free and it is safe for
// concurrent use.
type Recommender struct {
	p *Predictor
}

// Recommender derives a top-K query view over the predictor's snapshot.
func (p *Predictor) Recommender() *Recommender { return &Recommender{p: p} }

// Rec is one recommendation: a candidate index of the free mode and its
// predicted value.
type Rec struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// Errors returned by TopK. ErrBadQuery wraps all query-shape problems;
// ErrBadIndex (shared with the predictor) covers out-of-range fixed
// coordinates.
var ErrBadQuery = fmt.Errorf("core: invalid recommendation query")

// TopK returns the k free-mode candidates with the highest predicted values
// for the cell (query with mode freeMode varying), ordered by score
// descending with ties broken by ascending index — a total order, so equal
// inputs always return the identical ranking. The query must have one
// coordinate per mode; the coordinate at freeMode is ignored. k is clamped
// to the free mode's dimensionality.
func (r *Recommender) TopK(query []int, freeMode, k int) ([]Rec, error) {
	return r.TopKExcluding(query, freeMode, k, nil)
}

// TopKExcluding is TopK with an exclusion set over the free mode: candidates
// whose index appears in exclude are skipped, which is how a recommendation
// avoids echoing the items a user already rated back at them. Exclusion
// indices outside [0, I_free) are ignored (callers can pass raw interaction
// history without filtering), duplicates are harmless, and k is clamped to
// the number of remaining candidates.
func (r *Recommender) TopKExcluding(query []int, freeMode, k int, exclude []int) ([]Rec, error) {
	p := r.p
	n := len(p.dims)
	if freeMode < 0 || freeMode >= n {
		return nil, fmt.Errorf("%w: free mode %d out of range [0,%d)", ErrBadQuery, freeMode, n)
	}
	if len(query) != n {
		return nil, fmt.Errorf("%w: query has %d modes, model has %d", ErrBadQuery, len(query), n)
	}
	for m, i := range query {
		if m == freeMode {
			continue
		}
		if i < 0 || i >= p.dims[m] {
			return nil, fmt.Errorf("%w: index %d out of range [0,%d) in mode %d", ErrBadIndex, i, p.dims[m], m)
		}
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k = %d must be positive", ErrBadQuery, k)
	}
	var excluded map[int]struct{}
	if len(exclude) > 0 {
		excluded = make(map[int]struct{}, len(exclude))
		for _, i := range exclude {
			if i >= 0 && i < p.dims[freeMode] {
				excluded[i] = struct{}{}
			}
		}
	}
	if candidates := p.dims[freeMode] - len(excluded); k > candidates {
		k = candidates
	}
	if k == 0 {
		return []Rec{}, nil
	}

	s := p.pool.Get().(*predictScratch)
	defer p.pool.Put(s)
	w := r.contract(s, query, freeMode)

	// Dense sweep over the candidates with a size-k min-heap: the root is
	// the worst kept recommendation, replaced whenever a candidate beats it.
	a := p.factors[freeMode]
	h := make(recHeap, 0, k)
	for i := 0; i < a.Rows(); i++ {
		if _, skip := excluded[i]; skip {
			continue
		}
		score := mat.Dot(a.Row(i), w)
		if len(h) < k {
			heap.Push(&h, Rec{Index: i, Score: score})
			continue
		}
		if better(Rec{Index: i, Score: score}, h[0]) {
			h[0] = Rec{Index: i, Score: score}
			heap.Fix(&h, 0)
		}
	}

	// Drain the heap worst-first into the result back-to-front.
	out := make([]Rec, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Rec)
	}
	return out, nil
}

// contract runs the contraction kernel for the free mode on the query's
// fixed factor rows, producing the weight vector w of length J_free with
// w[j] = Σ_{β: β_m=j} Gβ·∏_{k≠m} A(k)[i_k][β_k]. w lives in s.
func (r *Recommender) contract(s *predictScratch, query []int, freeMode int) []float64 {
	p := r.p
	g := p.core
	for m, a := range p.factors {
		if m != freeMode {
			s.rows[m] = a.Row(query[m])
		}
	}
	w := s.buf[g.kronMax : g.kronMax+g.dims[freeMode]]
	g.contract(freeMode, s.rows, s.buf, w, nil)
	return w
}

// better reports whether a outranks b in the recommendation order:
// higher score first, ties to the lower index.
func better(a, b Rec) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// recHeap is a min-heap under the recommendation order: the root is the
// entry that would be evicted first.
type recHeap []Rec

func (h recHeap) Len() int            { return len(h) }
func (h recHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h recHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x interface{}) { *h = append(*h, x.(Rec)) }
func (h *recHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

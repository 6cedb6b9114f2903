package core

import (
	"sort"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// PartialErrors computes R(β) (Eq. 13) for every live core entry: the change
// in squared reconstruction error attributable to β, i.e. error-with-β minus
// error-without-β. Positive R(β) means the entry hurts the fit ("noisy");
// the largest values are the truncation candidates of Algorithm 4, and the
// distribution of R(β) is what Figure 5 plots.
//
// Using pβ(α) = Gβ·∏_n A(n)[in][jn] and full(α) = Σ_γ pγ(α), Eq. 13
// simplifies to R(β) = Σ_α pβ(α)·(2·(full(α) - Xα) - pβ(α)), which is what
// the inner loop evaluates. The products pβ(α) come from the contraction
// kernel for the last mode (or from the Pres table of P-Tucker-Cache), so
// cost is O(|Ω|·|G|) plus one Kronecker product per entry, computed in
// parallel over partialErrorSpans contiguous spans of the entries: each span
// adds its entries in order, then the spans are added in span order.
func PartialErrors(st *state) []float64 {
	x := st.x
	g := st.core
	n := x.Order()
	nnz := x.NNZ()
	width := g.NNZ()
	threads := max(st.cfg.Threads, 1)
	spans := min(partialErrorSpans, nnz)

	acc := make([]float64, spans*width) // span s sums into acc[s*width:]
	// Each thread's products, followed by its Kronecker buffer.
	prodBuf := make([][]float64, threads)
	rowsBuf := make([][][]float64, threads)
	for t := range prodBuf {
		prodBuf[t] = make([]float64, width+g.kronMax)
		rowsBuf[t] = make([][]float64, n)
	}

	runIndexed(threads, ScheduleStatic, spans, func(tid, s int) {
		rows := rowsBuf[tid]
		prods, kron := prodBuf[tid][:width], prodBuf[tid][width:]
		out := acc[s*width : (s+1)*width]
		for alpha := s * nnz / spans; alpha < (s+1)*nnz/spans; alpha++ {
			idx := x.Index(alpha)
			for k := 0; k < n; k++ {
				rows[k] = st.factors[k].Row(idx[k])
			}
			if st.cache != nil {
				copy(prods, st.cache[alpha*st.cacheW:alpha*st.cacheW+width])
			} else {
				g.contract(n-1, rows, kron, nil, prods)
			}
			var full float64
			for _, p := range prods {
				full += p
			}
			xv := x.Value(alpha)
			for e, p := range prods {
				out[e] += p * (2*(full-xv) - p)
			}
		}
	})

	r := make([]float64, width)
	for s := 0; s < spans; s++ {
		for e, v := range acc[s*width : (s+1)*width] {
			r[e] += v
		}
	}
	return r
}

// partialErrorSpans is the number of entry spans PartialErrors sums
// separately. It is fixed rather than derived from Threads, so no bit of
// R(β) — and so no truncation or Sparsify decision at a near-tie — depends
// on the thread count.
const partialErrorSpans = 64

// rankByPartialError returns the core entry positions ordered by R(β)
// descending (Algorithm 4 line 3), ties broken by entry index so the order
// is a pure function of the R values. An unstable comparison on ties would
// let the sort implementation pick which tied entries die, violating the
// "equal seeds are bit-for-bit reproducible" guarantee of truncateCore and
// sparsifyCore.
func rankByPartialError(r []float64) []int {
	order := make([]int, len(r))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := r[order[a]], r[order[b]]
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	return order
}

// truncateCore removes the top-p fraction of live core entries ranked by
// R(β) descending (Algorithm 4). At least one entry always survives so the
// model never degenerates to the empty sum.
func (st *state) truncateCore() {
	g := st.core
	width := g.NNZ()
	if width <= 1 {
		return
	}
	r := PartialErrors(st)

	k := int(st.cfg.TruncationRate * float64(width))
	if k <= 0 {
		return
	}
	if k >= width {
		k = width - 1
	}

	order := rankByPartialError(r)
	drop := make([]bool, width)
	for i := 0; i < k; i++ {
		drop[order[i]] = true
	}
	g.RemoveEntries(drop)
}

// NewStateForAnalysis exposes a read-only factorization state over existing
// factors and core so that experiment code (Figure 5) can evaluate
// PartialErrors outside a Decompose run.
func NewStateForAnalysis(x *tensor.Coord, factors []*mat.Dense, g *CoreTensor, threads int) *state {
	if threads < 1 {
		threads = 1
	}
	return &state{x: x, factors: factors, core: g, cfg: Config{Threads: threads, Ranks: g.Dims()}}
}

package core

import "math"

// aZeroTol is the threshold below which a factor entry is treated as zero in
// the cached δ computation; dividing the memoized product by such an entry
// would amplify noise, so the paper falls back to the direct product
// (Algorithm 3, note under lines 12/19).
const aZeroTol = 1e-12

// computeDelta fills w.delta with the δ(n)_α vector of Eq. (12) for observed
// entry alpha and the given mode: δ(jn) = Σ_{β∈G, βn=jn} Gβ ∏_{k≠n}
// A(k)[ik][jk]. It returns the filled slice (length Jn).
//
// Plain P-Tucker runs the contraction kernel (contract.go), which forms the
// Kronecker product of the other factor rows once and makes one
// multiply-add per core entry; P-Tucker-Cache divides the memoized full
// product Pres[α][β] by the mode-n factor entry, costing O(1) per core entry
// (this is the entire time-vs-memory trade of the variant).
func (st *state) computeDelta(mode, alpha int, w *workspace) []float64 {
	g := st.core
	n := g.Order()
	jn := st.cfg.Ranks[mode]
	delta := w.delta[:jn]

	idx := st.x.Index(alpha)
	rows := w.rows
	for k := 0; k < n; k++ {
		rows[k] = st.factors[k].Row(idx[k])
	}

	if st.cache == nil {
		if len(w.kron) < g.kronMax {
			w.kron = make([]float64, g.kronMax)
		}
		g.contract(mode, rows, w.kron, delta, nil)
		return delta
	}

	for j := range delta {
		delta[j] = 0
	}
	gi := g.idx
	gv := g.val
	// Cached path: δ(jn) += Pres[α][e] / A(n)[in][jn], with the direct
	// product as fallback when the factor entry is (numerically) zero.
	row := st.cache[alpha*st.cacheW : alpha*st.cacheW+len(gv)]
	modeRow := rows[mode]
	for e := 0; e < len(gv); e++ {
		base := e * n
		j := gi[base+mode]
		a := modeRow[j]
		if math.Abs(a) > aZeroTol {
			delta[j] += row[e] / a
			continue
		}
		prod := gv[e]
		for k := 0; k < n; k++ {
			if k == mode {
				continue
			}
			prod *= rows[k][gi[base+k]]
		}
		delta[j] += prod
	}
	return delta
}

// buildCache (re)computes the Pres table from scratch (Algorithm 3 lines
// 1-4): Pres[α][e] = Gβ(e) · ∏_{k=1..N} A(k)[ik][jk(e)], in parallel over
// observed entries.
func (st *state) buildCache() {
	nnz := st.x.NNZ()
	width := st.core.NNZ()
	if cap(st.cache) < nnz*width {
		st.cache = make([]float64, nnz*width)
	} else {
		st.cache = st.cache[:nnz*width]
	}
	st.cacheW = width

	n := st.x.Order()
	g := st.core
	gi := g.idx
	gv := g.val
	rowsBuf := make([][][]float64, st.cfg.Threads)
	for t := range rowsBuf {
		rowsBuf[t] = make([][]float64, n)
	}
	runIndexed(st.cfg.Threads, ScheduleStatic, nnz, func(tid, alpha int) {
		rows := rowsBuf[tid]
		idx := st.x.Index(alpha)
		for k := 0; k < n; k++ {
			rows[k] = st.factors[k].Row(idx[k])
		}
		out := st.cache[alpha*width : (alpha+1)*width]
		for e := 0; e < width; e++ {
			base := e * n
			prod := gv[e]
			for k := 0; k < n; k++ {
				prod *= rows[k][gi[base+k]]
			}
			out[e] = prod
		}
	})
}

// rescaleCache updates Pres after A(mode) changed (Algorithm 3 lines 16-19):
// each memoized product is multiplied by new/old of the mode's factor entry.
// When the old entry was (numerically) zero the ratio is undefined and the
// product is recomputed from scratch, mirroring the fallback in computeDelta.
func (st *state) rescaleCache(mode int, oldA interface {
	Row(int) []float64
}) {
	n := st.x.Order()
	g := st.core
	gi := g.idx
	gv := g.val
	width := st.cacheW
	rowsBuf := make([][][]float64, st.cfg.Threads)
	for t := range rowsBuf {
		rowsBuf[t] = make([][]float64, n)
	}
	runIndexed(st.cfg.Threads, ScheduleStatic, st.x.NNZ(), func(tid, alpha int) {
		idx := st.x.Index(alpha)
		in := idx[mode]
		oldRow := oldA.Row(in)
		newRow := st.factors[mode].Row(in)
		out := st.cache[alpha*width : alpha*width+len(gv)]
		var rows [][]float64
		for e := 0; e < len(gv); e++ {
			base := e * n
			j := gi[base+mode]
			oldV := oldRow[j]
			if math.Abs(oldV) > aZeroTol {
				out[e] *= newRow[j] / oldV
				continue
			}
			// Recompute the full product.
			if rows == nil {
				rows = rowsBuf[tid]
				for k := 0; k < n; k++ {
					rows[k] = st.factors[k].Row(idx[k])
				}
			}
			prod := gv[e]
			for k := 0; k < n; k++ {
				prod *= rows[k][gi[base+k]]
			}
			out[e] = prod
		}
	})
}

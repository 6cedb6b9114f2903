package core

// The contraction kernel. Every loop of P-Tucker that walks the core for one
// observed entry α runs through contract: Eq. 12's δ(n) in the row update
// (Algorithm 3, and so fold-in), Eq. 4's prediction (δ of the last mode
// dotted with its row), the recommender's free-mode weights, and the
// per-entry products pβ(α) of R(β) (Eq. 13).
//
// For mode n the kernel forms the Kronecker product of the other N−1 factor
// rows once, at Π_{k≠n} J_k multiplies, then makes one pass over the live
// entries: δ[βn] += Gβ·kron[off], where off is β's little-endian offset with
// mode n left out. The two int32 indices of each (entry, mode) pair are
// built with the entry list (see index), so a step of the pass is one
// multiply-add instead of N−1 multiplies and N index loads.
//
// Where Π_{k≠n} J_k exceeds |G| — a core truncated below 1/Jn of its cells,
// or the dims a model file declares — the product would cost more than the
// pass saves and its buffer could outgrow the core. Such a mode runs a
// per-entry loop instead, which multiplies the other rows left to right in
// the Kronecker's order and then by Gβ. Both sides give identical bits, so
// which side a mode takes, decided by the core's shape and |G| alone, never
// shows in a result.

// coreMode is the kernel's index of one mode n of a core.
type coreMode struct {
	beta []int32 // βn of each entry
	off  []int32 // offset of β without mode n into the Kronecker product; nil on the per-entry side
}

// index rebuilds the kernel's per-mode arrays from the entry list. Every
// function that makes or changes the entry list calls it.
func (c *CoreTensor) index() { c.indexModes(len(c.val)) }

// indexModes puts every mode whose Π_{k≠n} J_k is at most limit on the
// Kronecker side. The product saturates at limit+1, so no declared dims can
// overflow it, and no Kronecker buffer exceeds limit floats.
func (c *CoreTensor) indexModes(limit int) {
	order, nnz := len(c.dims), len(c.val)
	slab := make([]int32, 2*order*nnz)
	c.modes = make([]coreMode, order)
	c.kronMax = 0
	for n := range c.modes {
		m := &c.modes[n]
		m.beta, slab = slab[:nnz:nnz], slab[nnz:]
		off := slab[:nnz:nnz]
		slab = slab[nnz:]
		for e := range m.beta {
			m.beta[e] = int32(c.idx[e*order+n])
		}
		size := 1
		for k, j := range c.dims {
			if k != n {
				size = mulSat(size, j, limit+1)
			}
		}
		if size > limit || nnz == 0 {
			continue
		}
		for e := range off {
			o, stride := 0, 1
			for k, j := range c.dims {
				if k != n {
					o += c.idx[e*order+k] * stride
					stride *= j
				}
			}
			off[e] = int32(o)
		}
		m.off = off
		c.kronMax = max(c.kronMax, size)
	}
}

// mulSat returns min(a·b, limit) for a, b ≥ 0 without overflowing.
func mulSat(a, b, limit int) int {
	if b != 0 && a > limit/b {
		return limit
	}
	return min(a*b, limit)
}

// contract runs the kernel for mode n on one observed entry whose factor
// rows are rows (rows[n] is read only for terms). kron is scratch of at
// least c.kronMax floats.
//
// With terms nil it fills delta[:Jn] with δ(n)(j) = Σ_{β: βn=j} Gβ·∏_{k≠n}
// rows[k][βk] (Eq. 12), summed in entry order. Otherwise it leaves delta
// alone and sets terms[e] to entry e's full product Gβ·∏_k rows[k][βk], with
// mode n's factor multiplied last.
func (c *CoreTensor) contract(n int, rows [][]float64, kron, delta, terms []float64) {
	m := &c.modes[n]
	val := c.val
	if terms == nil {
		delta = delta[:c.dims[n]]
		clear(delta)
	} else {
		terms = terms[:len(val)]
	}

	if m.off != nil {
		kron = c.kronecker(n, rows, kron)
		beta, off := m.beta[:len(val)], m.off[:len(val)]
		if terms != nil {
			r := rows[n]
			for e, g := range val {
				terms[e] = g * kron[off[e]] * r[beta[e]]
			}
			return
		}
		for e, g := range val {
			delta[beta[e]] += g * kron[off[e]]
		}
		return
	}

	// The per-entry side. An order-1 core with entries never takes it: its
	// empty product, 1, never exceeds |G|.
	order := len(c.dims)
	lo := 0 // the lowest mode other than n
	if n == 0 {
		lo = 1
	}
	if terms != nil {
		for e, g := range val {
			idx := c.idx[e*order : e*order+order]
			terms[e] = g * rowProduct(rows, idx, n, lo) * rows[n][idx[n]]
		}
		return
	}
	for e, g := range val {
		idx := c.idx[e*order : e*order+order]
		delta[idx[n]] += g * rowProduct(rows, idx, n, lo)
	}
}

// rowProduct is the per-entry side's product of rows[k][idx[k]] over the
// modes k ≠ n, multiplied left to right from lo, the lowest such mode, like
// the Kronecker product (whose leading 1· is exact and left out).
func rowProduct(rows [][]float64, idx []int, n, lo int) float64 {
	p := rows[lo][idx[lo]]
	for k := lo + 1; k < len(idx); k++ {
		if k != n {
			p *= rows[k][idx[k]]
		}
	}
	return p
}

// kronecker forms in buf the little-endian Kronecker product of rows[k],
// k ≠ n — the lowest such mode varying fastest — and returns it. Entry off
// is 1·r_{k1}[j1]·r_{k2}[j2]···, multiplied left to right in increasing mode
// order, which is the per-entry loop's order in contract.
func (c *CoreTensor) kronecker(n int, rows [][]float64, buf []float64) []float64 {
	kron := buf[:1]
	kron[0] = 1
	for k, r := range rows {
		if k == n {
			continue
		}
		r = r[:c.dims[k]]
		l := len(kron)
		kron = buf[:l*len(r)]
		// Expand from the back, so block j ≥ 1 reads the block-0 product
		// before block 0 is overwritten last, in place.
		for j := len(r) - 1; j >= 0; j-- {
			rj := r[j]
			dst := kron[j*l : (j+1)*l]
			for i, v := range kron[:l] {
				dst[i] = v * rj
			}
		}
	}
	return kron
}

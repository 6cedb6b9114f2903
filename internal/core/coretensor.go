package core

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// RotationDropTol is the relative magnitude below which a core entry produced
// by the sparse finalize rotation (RotateAllSparse) is treated as numerical
// noise and dropped: entries with |Gβ| ≤ RotationDropTol · max|Gγ| do not
// survive the rotation. The threshold sits a little above float64 machine
// epsilon, so it removes exact zeros and cancellation residue without ever
// touching an entry that carries signal.
const RotationDropTol = 1e-14

// CoreTensor is the Tucker core G represented as an explicit list of live
// entries (β, Gβ). A dense array would suffice for P-Tucker and
// P-Tucker-Cache, but P-Tucker-Approx removes entries each iteration, and all
// three variants iterate "∀β ∈ G" in their inner loops — the entry list makes
// that loop a flat scan and makes |G| shrink for free after truncation.
//
// Entry e has multi-index Idx[e*N : (e+1)*N] and value Val[e]. Every core
// the library builds keeps its entries in little-endian linear offset order
// (mode 0 fastest): NewRandomCore and FromDense enumerate that order, the
// sparse rotation emits it, and RemoveEntries preserves it. Each of them,
// Clone and the model decoder also build the contraction kernel's per-mode
// index (see contract.go).
type CoreTensor struct {
	dims []int
	idx  []int
	val  []float64

	modes   []coreMode // the kernel's index of each mode
	kronMax int        // the largest Kronecker product any mode forms
}

// NewRandomCore returns a full core with dims = ranks whose values are drawn
// uniformly from [0,1), matching P-Tucker's initialization (Algorithm 2,
// line 1).
func NewRandomCore(ranks []int, rng *rand.Rand) *CoreTensor {
	n := len(ranks)
	size := 1
	for _, j := range ranks {
		size *= j
	}
	c := &CoreTensor{
		dims: append([]int(nil), ranks...),
		idx:  make([]int, 0, size*n),
		val:  make([]float64, 0, size),
	}
	// Enumerate multi-indices in little-endian order (mode 0 fastest).
	cur := make([]int, n)
	for e := 0; e < size; e++ {
		c.idx = append(c.idx, cur...)
		c.val = append(c.val, rng.Float64())
		for k := 0; k < n; k++ {
			cur[k]++
			if cur[k] < ranks[k] {
				break
			}
			cur[k] = 0
		}
	}
	c.index()
	return c
}

// Order returns the number of modes.
func (c *CoreTensor) Order() int { return len(c.dims) }

// Dims returns the core dimensionalities J1..JN; the slice must not be
// modified.
func (c *CoreTensor) Dims() []int { return c.dims }

// NNZ returns |G|, the number of live entries.
func (c *CoreTensor) NNZ() int { return len(c.val) }

// Index returns entry e's multi-index as a shared view.
func (c *CoreTensor) Index(e int) []int {
	n := len(c.dims)
	return c.idx[e*n : (e+1)*n]
}

// Value returns entry e's value.
func (c *CoreTensor) Value(e int) float64 { return c.val[e] }

// SetValue overwrites entry e's value.
func (c *CoreTensor) SetValue(e int, v float64) { c.val[e] = v }

// Clone returns a deep copy.
func (c *CoreTensor) Clone() *CoreTensor {
	d := &CoreTensor{
		dims: append([]int(nil), c.dims...),
		idx:  append([]int(nil), c.idx...),
		val:  append([]float64(nil), c.val...),
	}
	d.index()
	return d
}

// strides returns the little-endian linear strides of the core's shape:
// stride[0] = 1, stride[k] = stride[k-1]·dims[k-1], so an entry's linear
// offset is Σ_k idx[k]·stride[k] — the enumeration order of NewRandomCore,
// tensor.Dense, and FromDense.
func (c *CoreTensor) strides() []int {
	s := make([]int, len(c.dims))
	acc := 1
	for k := range c.dims {
		s[k] = acc
		acc *= c.dims[k]
	}
	return s
}

// entryOffset returns entry e's little-endian linear offset given
// precomputed strides.
func (c *CoreTensor) entryOffset(e int, strides []int) int {
	n := len(c.dims)
	base := e * n
	off := 0
	for k := 0; k < n; k++ {
		off += c.idx[base+k] * strides[k]
	}
	return off
}

// offsetSorted reports whether the entries are in strictly increasing
// little-endian linear offset order, the order bit 0 of a model file's core
// flags asserts.
func (c *CoreTensor) offsetSorted() bool {
	strides := c.strides()
	prev := -1
	for e := range c.val {
		off := c.entryOffset(e, strides)
		if off <= prev {
			return false
		}
		prev = off
	}
	return true
}

// RemoveEntries deletes the entries whose positions (into the current entry
// list) are marked true in drop, compacting the list in place. It returns the
// number of removed entries. The survivors keep their relative order.
func (c *CoreTensor) RemoveEntries(drop []bool) int {
	n := len(c.dims)
	w := 0
	removed := 0
	for e := 0; e < len(c.val); e++ {
		if e < len(drop) && drop[e] {
			removed++
			continue
		}
		if w != e {
			copy(c.idx[w*n:(w+1)*n], c.idx[e*n:(e+1)*n])
			c.val[w] = c.val[e]
		}
		w++
	}
	c.idx = c.idx[:w*n]
	c.val = c.val[:w]
	c.index()
	return removed
}

// ToDense materializes the core as a dense tensor (truncated entries are
// zeros).
func (c *CoreTensor) ToDense() *tensor.Dense {
	d := tensor.NewDenseTensor(c.dims)
	n := len(c.dims)
	for e := 0; e < len(c.val); e++ {
		d.Set(c.idx[e*n:(e+1)*n], c.val[e])
	}
	return d
}

// FromDense rebuilds the live entry list from a dense tensor in offset
// order, keeping every cell — including zeros, because a mode product can
// legitimately produce structural zeros that later rotations revive.
func (c *CoreTensor) FromDense(d *tensor.Dense) {
	n := d.Order()
	c.dims = append(c.dims[:0], d.Dims()...)
	c.idx = c.idx[:0]
	c.val = c.val[:0]
	idx := make([]int, n)
	for off, v := range d.Data() {
		d.IndexOf(off, idx)
		c.idx = append(c.idx, idx...)
		c.val = append(c.val, v)
	}
	c.index()
}

// RotateAll applies G ← G ×1 R(1) ··· ×N R(N) (Eq. 8), the core update that
// accompanies QR orthogonalization of the factor matrices. Each R must be
// Jn x Jn. Entries that were truncated stay absent only if the rotation
// leaves them exactly zero; in general the rotated core is dense again, which
// matches the semantics of Eq. (8). This is the escape hatch that preserves
// the dense-core semantics for non-sparse fits; truncated fits use
// RotateAllSparse, which keeps |G| through the rotation.
func (c *CoreTensor) RotateAll(rs []*mat.Dense) {
	d := c.ToDense()
	d = d.ModeProductChain(rs)
	c.FromDense(d)
}

// RotateAllSparse is the sparsity-preserving form of RotateAll: it applies
// G ← G ×n R(n) mode-by-mode directly on the live entry list, never
// materializing the dense core. Because each R is upper triangular, the
// rotation spreads every surviving entry over the down-set of its index — the
// rotated support genuinely grows — so after rotating, the core is
// re-truncated: entries with |Gβ| ≤ tol · max|Gγ| are dropped as numerical
// noise (pass RotationDropTol for the documented default), and if keep > 0
// the keep largest-magnitude entries are retained (ties broken by ascending
// offset). With orthonormal factors the Frobenius norm of the dropped core
// entries equals the reconstruction change ‖ΔX̂‖_F exactly, so
// largest-magnitude retention is the error-optimal re-truncation.
//
// The entry list comes out in canonical offset order; per-offset
// accumulation follows the source entry order, so equal inputs rotate
// bit-identically.
func (c *CoreTensor) RotateAllSparse(rs []*mat.Dense, keep int, tol float64) {
	n := len(c.dims)
	strides := c.strides()
	for mode := 0; mode < n; mode++ {
		r := rs[mode]
		jn := c.dims[mode]
		acc := make(map[int]float64, len(c.val))
		for e := 0; e < len(c.val); e++ {
			off := c.entryOffset(e, strides)
			in := c.idx[e*n+mode]
			rem := off - in*strides[mode]
			v := c.val[e]
			for j := 0; j < jn; j++ {
				w := r.At(j, in)
				if w == 0 {
					continue
				}
				acc[rem+j*strides[mode]] += v * w
			}
		}
		// Deterministic rebuild: collect the offsets, sort, emit in order.
		keys := make([]int, 0, len(acc))
		for off := range acc {
			keys = append(keys, off)
		}
		sort.Ints(keys)
		c.idx = c.idx[:0]
		c.val = c.val[:0]
		for _, off := range keys {
			rem := off
			for k := 0; k < n; k++ {
				c.idx = append(c.idx, rem%c.dims[k])
				rem /= c.dims[k]
			}
			c.val = append(c.val, acc[off])
		}
	}

	// Drop sub-epsilon noise, but never the last entry standing: the largest
	// survivor is exempt so the core cannot degenerate to the empty sum.
	maxAbs, argmax := 0.0, -1
	for e, v := range c.val {
		if a := math.Abs(v); a > maxAbs || argmax < 0 {
			maxAbs, argmax = a, e
		}
	}
	if len(c.val) > 0 {
		thr := tol * maxAbs
		drop := make([]bool, len(c.val))
		any := false
		for e, v := range c.val {
			if e != argmax && math.Abs(v) <= thr {
				drop[e] = true
				any = true
			}
		}
		if any {
			c.RemoveEntries(drop)
		}
	}

	// Re-truncate to the keep largest-|Gβ| entries. Entry order is offset
	// order, so the index tie-break is an offset tie-break.
	if keep > 0 && len(c.val) > keep {
		ord := make([]int, len(c.val))
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool {
			va, vb := math.Abs(c.val[ord[a]]), math.Abs(c.val[ord[b]])
			if va != vb {
				return va > vb
			}
			return ord[a] < ord[b]
		})
		drop := make([]bool, len(c.val))
		for _, e := range ord[keep:] {
			drop[e] = true
		}
		c.RemoveEntries(drop)
	}
	c.index()
}

// MaxAbsEntries returns the k entries with the largest |Gβ| along with their
// indices, for relation discovery (Section V). The result is ordered by
// descending |Gβ|, ties broken by ascending entry position — the same total
// order the recommendation heap uses, via the same bounded min-heap, so the
// scan is O(|G|·log k) instead of the k·|G| of a selection sort.
func (c *CoreTensor) MaxAbsEntries(k int) (indices [][]int, values []float64) {
	n := len(c.dims)
	if k > len(c.val) {
		k = len(c.val)
	}
	if k <= 0 {
		return nil, nil
	}
	h := make(recHeap, 0, k)
	for e, v := range c.val {
		cand := Rec{Index: e, Score: math.Abs(v)}
		if len(h) < k {
			heap.Push(&h, cand)
			continue
		}
		if better(cand, h[0]) {
			h[0] = cand
			heap.Fix(&h, 0)
		}
	}
	indices = make([][]int, len(h))
	values = make([]float64, len(h))
	for i := len(values) - 1; i >= 0; i-- {
		rec := heap.Pop(&h).(Rec)
		e := rec.Index
		idx := make([]int, n)
		copy(idx, c.idx[e*n:(e+1)*n])
		indices[i] = idx
		values[i] = c.val[e]
	}
	return indices, values
}

// Package tensor provides the sparse and dense tensor substrate for the
// P-Tucker reproduction: coordinate-format sparse tensors with per-mode
// inverted indexes (the Ω(n)[in] sets of the paper), dense tensors with
// strided storage, matricization (Definition 2), n-mode products
// (Definition 3), Frobenius norms (Definition 1), text IO in the format used
// by the paper's published datasets, and train/test splitting.
//
// Indices are 0-based internally; the on-disk format is 1-based to match the
// published P-Tucker datasets.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrDimension indicates indices that fall outside a tensor's shape.
var ErrDimension = errors.New("tensor: index out of range for tensor dimensions")

// Coord is a sparse tensor in coordinate (COO) format. Entry e occupies
// Indices[e*N : (e+1)*N] and Values[e], where N is the tensor order. The
// flat index layout keeps all coordinates of an entry on one cache line,
// which the row-update inner loops of P-Tucker depend on.
type Coord struct {
	dims    []int
	indices []int // flat, len = nnz * order
	values  []float64
}

// NewCoord returns an empty sparse tensor with the given mode dimensions.
func NewCoord(dims []int) *Coord {
	if len(dims) == 0 {
		panic("tensor: empty dimension list")
	}
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %v", dims))
		}
	}
	d := make([]int, len(dims))
	copy(d, dims)
	return &Coord{dims: d}
}

// Order returns the number of modes N.
func (t *Coord) Order() int { return len(t.dims) }

// Dims returns the mode dimensions. The slice must not be modified.
func (t *Coord) Dims() []int { return t.dims }

// Dim returns the length of mode n.
func (t *Coord) Dim(n int) int { return t.dims[n] }

// NNZ returns the number of stored (observed) entries, |Ω|.
func (t *Coord) NNZ() int { return len(t.values) }

// Values returns the value slice. The slice must not be resized by callers.
func (t *Coord) Values() []float64 { return t.values }

// Index returns the coordinates of entry e as a view into the flat index
// storage; the returned slice must not be modified.
func (t *Coord) Index(e int) []int {
	n := len(t.dims)
	return t.indices[e*n : (e+1)*n]
}

// Value returns the value of entry e.
func (t *Coord) Value(e int) float64 { return t.values[e] }

// SetValue overwrites the value of entry e.
func (t *Coord) SetValue(e int, v float64) { t.values[e] = v }

// Append adds an observed entry. It returns ErrDimension if idx is out of
// range. idx is copied.
func (t *Coord) Append(idx []int, v float64) error {
	if len(idx) != len(t.dims) {
		return fmt.Errorf("tensor: entry order %d does not match tensor order %d", len(idx), len(t.dims))
	}
	for n, i := range idx {
		if i < 0 || i >= t.dims[n] {
			return fmt.Errorf("%w: index %d of mode %d exceeds dimension %d", ErrDimension, i, n, t.dims[n])
		}
	}
	t.indices = append(t.indices, idx...)
	t.values = append(t.values, v)
	return nil
}

// MustAppend is Append that panics on error; for use by generators whose
// indices are correct by construction.
func (t *Coord) MustAppend(idx []int, v float64) {
	if err := t.Append(idx, v); err != nil {
		panic(err)
	}
}

// GrowMode extends mode n to newDim slices, keeping every stored entry. It
// panics if newDim is smaller than the current dimensionality. Growing a mode
// is how online fold-in admits a brand-new row (a cold-start user, a new
// item): the tensor's shape stretches, then observations for the new slice
// are Appended like any others.
func (t *Coord) GrowMode(n, newDim int) {
	if n < 0 || n >= len(t.dims) {
		panic(fmt.Sprintf("tensor: mode %d out of range for order %d", n, len(t.dims)))
	}
	if newDim < t.dims[n] {
		panic(fmt.Sprintf("tensor: cannot shrink mode %d from %d to %d", n, t.dims[n], newDim))
	}
	t.dims[n] = newDim
}

// Clone returns a deep copy of t.
func (t *Coord) Clone() *Coord {
	c := NewCoord(t.dims)
	c.indices = append([]int(nil), t.indices...)
	c.values = append([]float64(nil), t.values...)
	return c
}

// Norm returns the Frobenius norm over the observed entries (Definition 1
// restricted to Ω, which is how sparse methods evaluate it).
func (t *Coord) Norm() float64 {
	var s float64
	for _, v := range t.values {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxValue returns the largest observed value, or 0 if the tensor is empty.
func (t *Coord) MaxValue() float64 {
	var mx float64
	for i, v := range t.values {
		if i == 0 || v > mx {
			mx = v
		}
	}
	return mx
}

// MinValue returns the smallest observed value, or 0 if the tensor is empty.
func (t *Coord) MinValue() float64 {
	var mn float64
	for i, v := range t.values {
		if i == 0 || v < mn {
			mn = v
		}
	}
	return mn
}

// Normalize linearly rescales all observed values into [0,1], as the paper
// does for its real-world tensors ("we normalize all values of real-world
// tensors to numbers between 0 to 1"). Constant tensors map to 0.
func (t *Coord) Normalize() {
	if len(t.values) == 0 {
		return
	}
	mn, mx := t.MinValue(), t.MaxValue()
	span := mx - mn
	if span == 0 {
		for i := range t.values {
			t.values[i] = 0
		}
		return
	}
	inv := 1 / span
	for i, v := range t.values {
		t.values[i] = (v - mn) * inv
	}
}

// Density returns |Ω| / ∏ In, the fraction of observable cells.
func (t *Coord) Density() float64 {
	cells := 1.0
	for _, d := range t.dims {
		cells *= float64(d)
	}
	return float64(t.NNZ()) / cells
}

// Split partitions the observed entries into a training tensor holding
// trainFrac of them and a test tensor holding the rest, shuffled with rng.
// The paper uses trainFrac = 0.9 ("90% of observed entries as training data
// and the rest of them as test data").
func (t *Coord) Split(trainFrac float64, rng *rand.Rand) (train, test *Coord) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("tensor: train fraction %v out of [0,1]", trainFrac))
	}
	nnz := t.NNZ()
	perm := rng.Perm(nnz)
	nTrain := int(math.Round(trainFrac * float64(nnz)))
	train = NewCoord(t.dims)
	test = NewCoord(t.dims)
	for i, e := range perm {
		dst := train
		if i >= nTrain {
			dst = test
		}
		dst.indices = append(dst.indices, t.Index(e)...)
		dst.values = append(dst.values, t.values[e])
	}
	return train, test
}

// String summarizes the tensor shape and density.
func (t *Coord) String() string {
	return fmt.Sprintf("Coord(order=%d dims=%v nnz=%d density=%.3g)", t.Order(), t.dims, t.NNZ(), t.Density())
}

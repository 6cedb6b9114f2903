package mat

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L*Lᵀ. It is the solver of choice for the regularized
// normal matrices [B + λI] arising in the P-Tucker row update (Eq. 9): those
// matrices are SPD by construction (B is a sum of outer products δδᵀ and
// λ > 0), so Cholesky is both the fastest and the most numerically stable
// option.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle in n x n storage; the upper part is never read
}

// NewCholesky factorizes the SPD matrix a. It returns ErrNotSPD if a is not
// (numerically) symmetric positive definite. a is not modified.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := new(Cholesky)
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize computes the factor of the SPD matrix a into c, reusing c's
// storage when it is large enough, so a solver called once per row (the
// P-Tucker row update) holds one factor instead of allocating one per
// solve. It returns ErrShape or ErrNotSPD like NewCholesky; after an error
// c holds no usable factor. a is not modified.
func (c *Cholesky) Factorize(a *Dense) error {
	if a.rows != a.cols {
		return ErrShape
	}
	n := a.rows
	if cap(c.l) < n*n {
		c.l = make([]float64, n*n)
	}
	c.n, c.l = n, c.l[:n*n]
	l := c.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotSPD
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return nil
}

// SolveVec solves A*x = b for x, overwriting and returning x in a new slice.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	if len(b) != c.n {
		panic(ErrShape)
	}
	n := c.n
	x := make([]float64, n)
	copy(x, b)
	c.SolveVecInPlace(x)
	return x
}

// SolveVecInPlace solves A*x = b where b is supplied (and overwritten) in x.
func (c *Cholesky) SolveVecInPlace(x []float64) {
	n := c.n
	l := c.l
	// Forward substitution: L*y = b.
	for i := 0; i < n; i++ {
		sum := x[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	// Back substitution: Lᵀ*x = y.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
}

// Inverse returns A⁻¹ computed column-by-column from the factorization.
func (c *Cholesky) Inverse() *Dense {
	n := c.n
	inv := NewDense(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		c.SolveVecInPlace(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, e[i])
		}
	}
	return inv
}

// LogDet returns log(det(A)) = 2*Σ log(L[i][i]).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[i*c.n+i])
	}
	return 2 * s
}

// SolveSPDVec is a convenience wrapper: it factorizes a (which must be SPD)
// and solves a*x = b in one call.
func SolveSPDVec(a *Dense, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b), nil
}

package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDense returns an r x c matrix with entries uniform in [-1, 1).
func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.Float64()*2 - 1
	}
	return m
}

// randomSPD returns a random symmetric positive definite n x n matrix.
func randomSPD(rng *rand.Rand, n int) *Dense {
	a := randomDense(rng, n, n)
	spd := TMul(a, a)
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n)) // diagonal boost guarantees positive definiteness
	}
	return spd
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for data length mismatch")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Fatalf("after Add, At(1,2) = %v want 8", got)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d][%d] = %v want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestRowIsView(t *testing.T) {
	m := NewDense(2, 2)
	row := m.Row(1)
	row[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must return a mutable view, not a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v want %v", got, want)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulTAndTMulAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 6)
	b := randomDense(rng, 5, 6)
	if got, want := MulT(a, b), Mul(a, b.T()); !got.Equal(want, 1e-12) {
		t.Fatal("MulT disagrees with Mul(a, b.T())")
	}
	c := randomDense(rng, 6, 4)
	d := randomDense(rng, 6, 5)
	if got, want := TMul(c, d), Mul(c.T(), d); !got.Equal(want, 1e-12) {
		t.Fatal("TMul disagrees with Mul(a.T(), b)")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 8, 4)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		if g.At(i, i) < 0 {
			t.Fatalf("Gram diagonal negative at %d", i)
		}
		for j := 0; j < 4; j++ {
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-12 {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecVecMul(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	got := MulVec(a, x)
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v want [-2 -2]", got)
	}
	y := []float64{1, -1}
	got2 := VecMul(y, a)
	want2 := []float64{-3, -3, -3}
	for i := range want2 {
		if math.Abs(got2[i]-want2[i]) > 1e-12 {
			t.Fatalf("VecMul = %v want %v", got2, want2)
		}
	}
}

func TestDotNormAxpy(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Fatalf("Dot = %v want 25", Dot(x, x))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v want 5", Norm2(x))
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v want [7 9]", y)
	}
}

func TestAddScaledScaleFill(t *testing.T) {
	m := NewDense(2, 2)
	m.Fill(2)
	n := NewDense(2, 2)
	n.Fill(3)
	m.AddScaled(n, 2) // 2 + 6 = 8
	if m.At(1, 1) != 8 {
		t.Fatalf("AddScaled result %v want 8", m.At(1, 1))
	}
	m.Scale(0.5)
	if m.At(0, 0) != 4 {
		t.Fatalf("Scale result %v want 4", m.At(0, 0))
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero did not clear the matrix")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if got, want := m.FrobeniusNorm(), 5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v want %v", got, want)
	}
}

func TestIsFinite(t *testing.T) {
	m := NewDense(1, 2)
	if !m.IsFinite() {
		t.Fatal("zero matrix must be finite")
	}
	m.Set(0, 1, math.NaN())
	if m.IsFinite() {
		t.Fatal("NaN matrix must not be finite")
	}
	m.Set(0, 1, math.Inf(1))
	if m.IsFinite() {
		t.Fatal("Inf matrix must not be finite")
	}
}

// Property: matrix multiplication is associative (A*B)*C == A*(B*C).
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1, d2, d3, d4 := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(r, d1, d2)
		b := randomDense(r, d2, d3)
		c := randomDense(r, d3, d4)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1, d2, d3 := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomDense(r, d1, d2)
		b := randomDense(r, d2, d3)
		return Mul(a, b).T().Equal(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 12; n++ {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		b := MulVec(a, x)
		got := ch.SolveVec(b)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: solve mismatch at %d: %v vs %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v want ErrNotSPD", err)
	}
	if _, err := NewCholesky(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

// One Cholesky refactorized across systems of different sizes, including
// after a rejected one, must solve bit-identically to a fresh NewCholesky and
// stop allocating once its storage has grown to the largest size.
func TestCholeskyFactorizeReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ch Cholesky
	for _, n := range []int{6, 2, 9, 1, 9, 4} {
		a := randomSPD(rng, n)
		if err := ch.Factorize(NewDenseData(2, 2, []float64{1, 2, 2, 1})); err != ErrNotSPD {
			t.Fatalf("n=%d: non-SPD err = %v want ErrNotSPD", n, err)
		}
		if err := ch.Factorize(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fresh, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, want := ch.SolveVec(b), fresh.SolveVec(b)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: reused factor solves x[%d] = %v, fresh %v", n, i, got[i], want[i])
			}
		}
	}
	a := randomSPD(rng, 8)
	if allocs := testing.AllocsPerRun(20, func() { _ = ch.Factorize(a) }); allocs != 0 {
		t.Fatalf("refactorizing into grown storage allocates %v times", allocs)
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	if !Mul(a, inv).Equal(Identity(6), 1e-8) {
		t.Fatal("A * A^-1 != I")
	}
}

func TestCholeskyLogDetMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomSPD(rng, 5)
	ch, _ := NewCholesky(a)
	lu, _ := NewLU(a)
	if got, want := ch.LogDet(), math.Log(lu.Det()); math.Abs(got-want) > 1e-8 {
		t.Fatalf("LogDet = %v, log(LU.Det) = %v", got, want)
	}
}

func TestSolveSPDVec(t *testing.T) {
	a := NewDenseData(2, 2, []float64{4, 1, 1, 3})
	x, err := SolveSPDVec(a, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Verify a*x = b.
	b := MulVec(a, x)
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-2) > 1e-12 {
		t.Fatalf("residual too large: %v", b)
	}
}

func TestLUSolveAndDet(t *testing.T) {
	a := NewDenseData(3, 3, []float64{
		2, 1, 1,
		4, -6, 0,
		-2, 7, 2,
	})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	// det = -16 for this classic example.
	if got := lu.Det(); math.Abs(got-(-16)) > 1e-9 {
		t.Fatalf("Det = %v want -16", got)
	}
	x := lu.SolveVec([]float64{5, -2, 9})
	b := MulVec(a, x)
	want := []float64{5, -2, 9}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-9 {
			t.Fatalf("solve residual at %d: %v vs %v", i, b[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 4})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("err = %v want ErrSingular", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n, n)
		// Make well-conditioned by diagonal dominance.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if !Mul(a, inv).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: A*A^-1 != I", trial)
		}
		if !Mul(inv, a).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: A^-1*A != I", trial)
		}
	}
}

// Property: Cholesky and LU agree on SPD systems.
func TestCholeskyLUAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		x1 := ch.SolveVec(b)
		x2 := lu.SolveVec(b)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(20)
		n := 1 + rng.Intn(m) // m >= n
		a := randomDense(rng, m, n)
		q, r, err := QRFactor(a)
		if err != nil {
			t.Fatal(err)
		}
		if !Mul(q, r).Equal(a, 1e-9) {
			t.Fatalf("trial %d: QR does not reconstruct A", trial)
		}
		// Q orthonormal columns.
		if !Gram(q).Equal(Identity(n), 1e-9) {
			t.Fatalf("trial %d: Q columns not orthonormal", trial)
		}
		// R upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-10 {
					t.Fatalf("trial %d: R not upper triangular at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestQRWideRejected(t *testing.T) {
	if _, err := NewQR(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestQRZeroColumn(t *testing.T) {
	a := NewDense(4, 2)
	a.Set(0, 0, 1)
	a.Set(1, 0, 1) // column 1 all zeros
	q, r, err := QRFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(q, r).Equal(a, 1e-10) {
		t.Fatal("QR with zero column does not reconstruct A")
	}
}

func TestGramSchmidt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomDense(rng, 10, 4)
	rank := GramSchmidt(a)
	if rank != 4 {
		t.Fatalf("rank = %d want 4", rank)
	}
	if !Gram(a).Equal(Identity(4), 1e-9) {
		t.Fatal("columns not orthonormal after Gram-Schmidt")
	}
	// Rank-deficient input: duplicate columns.
	b := NewDense(5, 2)
	for i := 0; i < 5; i++ {
		b.Set(i, 0, float64(i+1))
		b.Set(i, 1, 2*float64(i+1))
	}
	if rank := GramSchmidt(b); rank != 1 {
		t.Fatalf("rank of duplicated columns = %d want 1", rank)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewDenseData(3, 3, []float64{3, 0, 0, 0, 1, 0, 0, 0, 2})
	vals, v, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v want %v", vals, want)
		}
	}
	// V should be a permutation of the identity (up to sign).
	if !Mul(v, v.T()).Equal(Identity(3), 1e-12) {
		t.Fatal("eigenvectors not orthogonal")
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		vals, v, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not descending: %v", vals)
			}
		}
		// Reconstruct: V * diag * Vᵀ == A.
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, vals[i])
		}
		recon := Mul(Mul(v, d), v.T())
		if !recon.Equal(a, 1e-8) {
			t.Fatalf("trial %d: eigen reconstruction failed", trial)
		}
	}
}

func TestSymEigenRejectsNonSquare(t *testing.T) {
	if _, _, err := SymEigen(NewDense(2, 3)); err != ErrShape {
		t.Fatalf("err = %v want ErrShape", err)
	}
}

func TestSymEigenEmpty(t *testing.T) {
	vals, v, err := SymEigen(NewDense(0, 0))
	if err != nil || len(vals) != 0 || v.Rows() != 0 {
		t.Fatalf("empty eigen failed: %v %v %v", vals, v, err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(15)
		n := 1 + rng.Intn(8)
		a := randomDense(rng, m, n)
		st, err := SVD(a)
		if err != nil {
			t.Fatal(err)
		}
		// Singular values non-negative, descending.
		k := len(st.S)
		for i := 0; i < k; i++ {
			if st.S[i] < 0 {
				t.Fatalf("negative singular value %v", st.S[i])
			}
			if i > 0 && st.S[i] > st.S[i-1]+1e-10 {
				t.Fatalf("singular values not descending: %v", st.S)
			}
		}
		// Reconstruct.
		d := NewDense(k, k)
		for i := 0; i < k; i++ {
			d.Set(i, i, st.S[i])
		}
		recon := Mul(Mul(st.U, d), st.V.T())
		if a.rows < a.cols {
			// SVD of wide matrix returns factors for the original shape.
			if recon.Rows() != a.rows || recon.Cols() != a.cols {
				t.Fatalf("unexpected recon shape %dx%d", recon.Rows(), recon.Cols())
			}
		}
		if !recon.Equal(a, 1e-7) {
			t.Fatalf("trial %d (m=%d n=%d): SVD does not reconstruct A", trial, m, n)
		}
		// U columns orthonormal.
		if !Gram(st.U).Equal(Identity(k), 1e-7) {
			t.Fatalf("trial %d: U columns not orthonormal", trial)
		}
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomDense(rng, 3, 7)
	st, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	k := len(st.S)
	d := NewDense(k, k)
	for i := 0; i < k; i++ {
		d.Set(i, i, st.S[i])
	}
	if !Mul(Mul(st.U, d), st.V.T()).Equal(a, 1e-7) {
		t.Fatal("wide SVD does not reconstruct A")
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewDense(6, 3)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(i+1)*float64(j+1))
		}
	}
	st, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	// The Gram route squares the condition number, so "zero" singular values
	// carry O(sqrt(eps)) noise relative to the leading one.
	if st.S[1] > 1e-6*st.S[0] || st.S[2] > 1e-6*st.S[0] {
		t.Fatalf("expected rank-1 spectrum, got %v", st.S)
	}
	// Even for rank-deficient input, U columns must be orthonormal.
	if !Gram(st.U).Equal(Identity(3), 1e-7) {
		t.Fatal("U columns not orthonormal for rank-deficient input")
	}
}

func TestLeadingLeftSingularVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomDense(rng, 12, 5)
	u, err := LeadingLeftSingularVectors(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows() != 12 || u.Cols() != 3 {
		t.Fatalf("shape = %dx%d want 12x3", u.Rows(), u.Cols())
	}
	if !Gram(u).Equal(Identity(3), 1e-8) {
		t.Fatal("leading singular vectors not orthonormal")
	}
	if _, err := LeadingLeftSingularVectors(a, 9); err != ErrShape {
		t.Fatalf("err = %v want ErrShape for k > cols", err)
	}
}

func TestLeftSingularFromGramMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m, n, k := 20, 4, 3
	a := randomDense(rng, m, n)
	gram := Gram(a)
	u, s, err := LeftSingularFromGram(gram, m, k, func(v []float64) []float64 {
		return MulVec(a, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		if math.Abs(s[j]-st.S[j]) > 1e-8 {
			t.Fatalf("singular value %d: %v vs %v", j, s[j], st.S[j])
		}
		// Columns match up to sign.
		var dot float64
		for i := 0; i < m; i++ {
			dot += u.At(i, j) * st.U.At(i, j)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-6 {
			t.Fatalf("column %d mismatch, |dot| = %v", j, math.Abs(dot))
		}
	}
}

// Property: SVD singular values are invariant under orthogonal column mixing.
func TestSVDOrthogonalInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 6+r.Intn(6), 2+r.Intn(3)
		a := randomDense(r, m, n)
		// Random orthogonal Q from QR of a random matrix.
		q, _, err := QRFactor(randomDense(r, n, n))
		if err != nil {
			return false
		}
		s1, err := SVD(a)
		if err != nil {
			return false
		}
		s2, err := SVD(Mul(a, q))
		if err != nil {
			return false
		}
		for i := range s1.S {
			if math.Abs(s1.S[i]-s2.S[i]) > 1e-7*(1+s1.S[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholeskySolve10(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	a := randomSPD(rng, 10)
	rhs := make([]float64, 10)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch, err := NewCholesky(a)
		if err != nil {
			b.Fatal(err)
		}
		_ = ch.SolveVec(rhs)
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	x := randomDense(rng, 64, 64)
	y := randomDense(rng, 64, 64)
	out := NewDense(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulInto(out, x, y)
	}
}

func BenchmarkSymEigen16(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	a := randomSPD(rng, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := SymEigen(a); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTopKEigenSPDMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// A 100x100 PSD matrix with a clear spectral gap.
	a := randomDense(rng, 100, 8)
	spd := MulT(a, a) // wait: MulT(a,a) = a*aT, 100x100 PSD of rank 8
	vals, vecs, err := TopKEigenSPD(spd, 3, 300, 1e-12, 7)
	if err != nil {
		t.Fatal(err)
	}
	full, fv, err := SymEigen(spd)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if math.Abs(vals[j]-full[j]) > 1e-6*(1+full[0]) {
			t.Fatalf("eigenvalue %d: %v vs %v", j, vals[j], full[j])
		}
		var dot float64
		for i := 0; i < 100; i++ {
			dot += vecs.At(i, j) * fv.At(i, j)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-4 {
			t.Fatalf("eigenvector %d misaligned: |dot| = %v", j, math.Abs(dot))
		}
	}
}

func TestEigenTopKDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Small path.
	s := randomSPD(rng, 10)
	vals, vecs, err := EigenTopK(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 || vecs.Cols() != 4 || vecs.Rows() != 10 {
		t.Fatalf("small-path shapes wrong: %d vals, %dx%d vecs", len(vals), vecs.Rows(), vecs.Cols())
	}
	full, _, _ := SymEigen(s)
	for j := 0; j < 4; j++ {
		if math.Abs(vals[j]-full[j]) > 1e-9 {
			t.Fatalf("small-path eigenvalue %d mismatch", j)
		}
	}
	// Errors.
	if _, _, err := EigenTopK(NewDense(3, 4), 1); err != ErrShape {
		t.Fatal("non-square must be rejected")
	}
	if _, _, err := EigenTopK(s, 11); err != ErrShape {
		t.Fatal("k > n must be rejected")
	}
}

func TestLeadingLeftSingularVectorsLargePath(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// 200 columns forces the truncated path; compare with the dense path by
	// checking orthonormality and the captured variance.
	a := randomDense(rng, 300, 200)
	u, err := LeadingLeftSingularVectors(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Gram(u).Equal(Identity(4), 1e-6) {
		t.Fatal("truncated-path singular vectors not orthonormal")
	}
	// Captured energy ||Uᵀa||_F must be close to the sum of top-4 σ².
	proj := TMul(u, a)
	got := proj.FrobeniusNorm()
	st, err := SVD(a)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for j := 0; j < 4; j++ {
		want += st.S[j] * st.S[j]
	}
	want = math.Sqrt(want)
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("captured energy %v vs %v", got, want)
	}
}

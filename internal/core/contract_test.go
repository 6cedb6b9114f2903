package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/mat"
)

// kernelCore builds a random core of the given ranks and keeps the entries
// whose position is a multiple of every (every = 1 keeps the dense core).
func kernelCore(seed int64, ranks []int, every int) *CoreTensor {
	g := NewRandomCore(ranks, rand.New(rand.NewSource(seed)))
	drop := make([]bool, g.NNZ())
	for e := range drop {
		drop[e] = e%every != 0
	}
	g.RemoveEntries(drop)
	return g
}

// withSides returns two clones of g, one with every mode on the kernel's
// Kronecker side and one with every mode on its per-entry side.
func withSides(g *CoreTensor) (kron, perEntry *CoreTensor) {
	kron, perEntry = g.Clone(), g.Clone()
	kron.indexModes(math.MaxInt32)
	perEntry.indexModes(0)
	return kron, perEntry
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The two sides of the contraction kernel are one computation: on dense,
// skewed, pruned and order-5 cores they give the same bits for δ of every
// mode, the per-entry products, Predict and TopK, and δ agrees with Eq. 12
// summed term by term. The production index puts each mode on the side its
// shape and |G| call for.
func TestContractSidesBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		ranks []int
		every int
		kron  []bool // the production side of each mode
	}{
		{"dense 5³", []int{5, 5, 5}, 1, []bool{true, true, true}},
		{"6,6,2,2 at |G| 93", []int{6, 6, 2, 2}, 0, []bool{true, true, true, true}},
		{"6,6,2,2 at 10%", []int{6, 6, 2, 2}, 11, []bool{false, false, false, false}},
		{"dense 3⁵", []int{3, 3, 3, 3, 3}, 1, []bool{true, true, true, true, true}},
		{"3⁵ at 5%", []int{3, 3, 3, 3, 3}, 20, []bool{false, false, false, false, false}},
	}
	for ci, c := range cases {
		var g *CoreTensor
		if c.every == 0 {
			// The served skewed core: 93 of the 144 cells survive truncation.
			g = NewRandomCore(c.ranks, rand.New(rand.NewSource(int64(ci))))
			drop := make([]bool, g.NNZ())
			for _, e := range rand.New(rand.NewSource(5)).Perm(g.NNZ())[:g.NNZ()-93] {
				drop[e] = true
			}
			g.RemoveEntries(drop)
		} else {
			g = kernelCore(int64(ci), c.ranks, c.every)
		}
		for n, want := range c.kron {
			if got := g.modes[n].off != nil; got != want {
				t.Fatalf("%s: mode %d on the Kronecker side = %v, want %v (|G| %d)", c.name, n, got, want, g.NNZ())
			}
		}

		rng := rand.New(rand.NewSource(int64(100 + ci)))
		order := len(c.ranks)
		factors := make([]*mat.Dense, order)
		for k, j := range c.ranks {
			factors[k] = mat.NewDense(7, j)
			for i := range factors[k].Data() {
				factors[k].Data()[i] = rng.NormFloat64()
			}
		}
		kron, perEntry := withSides(g)
		sides := []*CoreTensor{g, kron, perEntry}
		scratch := make([]float64, kron.kronMax)
		rows := make([][]float64, order)
		idx := make([]int, order)
		for trial := 0; trial < 50; trial++ {
			for k := range idx {
				idx[k] = rng.Intn(7)
				rows[k] = factors[k].Row(idx[k])
			}
			for n := 0; n < order; n++ {
				var deltas, terms [3][]float64
				for s, side := range sides {
					deltas[s] = make([]float64, c.ranks[n])
					terms[s] = make([]float64, side.NNZ())
					side.contract(n, rows, scratch, deltas[s], nil)
					side.contract(n, rows, scratch, nil, terms[s])
				}
				for s := 1; s < 3; s++ {
					if !sameBits(deltas[0], deltas[s]) || !sameBits(terms[0], terms[s]) {
						t.Fatalf("%s mode %d: the kernel's sides disagree:\nδ %v vs %v\nterms %v vs %v",
							c.name, n, deltas[0], deltas[s], terms[0], terms[s])
					}
				}
				// Eq. 12 term by term, within rounding.
				ref := make([]float64, c.ranks[n])
				scale := make([]float64, c.ranks[n])
				for e := 0; e < g.NNZ(); e++ {
					beta := g.Index(e)
					p := g.Value(e)
					for k := range beta {
						if k != n {
							p *= rows[k][beta[k]]
						}
					}
					ref[beta[n]] += p
					scale[beta[n]] += math.Abs(p)
				}
				for j := range ref {
					if math.Abs(ref[j]-deltas[0][j]) > 1e-13*scale[j] {
						t.Fatalf("%s mode %d: δ[%d] = %v, Eq. 12 gives %v", c.name, n, j, deltas[0][j], ref[j])
					}
				}
			}
			var preds [3]float64
			for s, side := range sides {
				preds[s] = (&Model{Factors: factors, Core: side}).Predict(idx)
			}
			if !sameBits(preds[:1], preds[1:2]) || !sameBits(preds[:1], preds[2:]) {
				t.Fatalf("%s: Predict at %v differs between the sides: %v", c.name, idx, preds)
			}
		}
		for mode := 0; mode < order; mode++ {
			var tops [3][]Rec
			for s, side := range sides {
				recs, err := NewPredictor(&Model{Factors: factors, Core: side}).Recommender().TopK(idx, mode, 5)
				if err != nil {
					t.Fatal(err)
				}
				tops[s] = recs
			}
			for s := 1; s < 3; s++ {
				for i := range tops[0] {
					a, b := tops[0][i], tops[s][i]
					if a.Index != b.Index || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
						t.Fatalf("%s mode %d: TopK differs between the sides: %v vs %v", c.name, mode, tops[0], tops[s])
					}
				}
			}
		}
	}
}

// Over the last mode a TopK score is Predict's own sum, so it matches
// Predict bit for bit.
func TestTopKLastModeEqualsPredict(t *testing.T) {
	m, p, _ := predictorFixture(t)
	last := m.Order() - 1
	query := make([]int, m.Order())
	recs, err := p.Recommender().TopK(query, last, m.Factors[last].Rows())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		query[last] = r.Index
		if want := m.Predict(query); math.Float64bits(r.Score) != math.Float64bits(want) {
			t.Fatalf("TopK score of %v is %v, Predict %v", query, r.Score, want)
		}
	}
}

// hostileDimsStream encodes a v4 model with four factors of 0 rows × cols
// columns and core dims of cols each, and no core entries. A factor with no
// rows passes the decoder's size cap at any column count, so cols = 2³¹
// declares core dims whose product overflows int.
func hostileDimsStream(tb testing.TB, cols int) []byte {
	tb.Helper()
	dims := []int{cols, cols, cols, cols}
	factors := make([]*mat.Dense, len(dims))
	for k := range factors {
		factors[k] = mat.NewDense(0, cols)
	}
	m := &Model{
		Factors: factors,
		Core:    &CoreTensor{dims: dims},
		Config:  Defaults(dims),
	}
	m.Core.index()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// A model file may declare core dims of 2³¹ each. Both decoders load such a
// stream (or reject it as malformed) without a panic, the kernel's
// Kronecker product saturates instead of overflowing, and opening the
// stream and answering from it allocates no more than the same stream with
// dims of 2. A stream that declares no modes is rejected.
func TestHostileCoreDimsStayBounded(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("2³¹ does not fit a 32-bit int")
	}
	hostile, small := hostileDimsStream(t, 1<<31), hostileDimsStream(t, 2)
	open := func(data []byte) (heapBytes uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, decode := range []func([]byte) (*Model, error){
			func(b []byte) (*Model, error) { return ReadModel(bytes.NewReader(b)) },
			ModelFromMapping,
		} {
			m, err := decode(alignedCopy(data))
			if err != nil {
				if !errors.Is(err, ErrBadModelFormat) {
					t.Fatalf("stream rejected with %v, want ErrBadModelFormat", err)
				}
				continue
			}
			if m.Core.kronMax != 0 {
				t.Fatalf("a core with no entries sizes a Kronecker buffer of %d", m.Core.kronMax)
			}
			p := NewPredictorShared(m)
			if _, err := p.PredictChecked([]int{0, 0, 0, 0}); !errors.Is(err, ErrBadIndex) {
				t.Fatalf("predict on a model with no rows: %v", err)
			}
			if recs, err := p.Recommender().TopK([]int{0, 0, 0, 0}, 0, 3); err == nil && len(recs) != 0 {
				t.Fatalf("TopK on a model with no rows returned %v", recs)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// TotalAlloc counts the whole process. On a loaded machine the runtime
	// can start an OS thread as the world restarts inside a window, and its
	// m and g structs are heap allocations: about 5 KB more in single
	// windows under -race. So each side is its least over a few opens,
	// after one warm-up open. A stray allocation adds to some windows; a
	// buffer sized by the declared dims adds to all of them.
	open(hostile)
	least := func(data []byte) uint64 {
		n := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			n = min(n, open(data))
		}
		return n
	}
	if h, s := least(hostile), least(small); h > s+4096 {
		t.Fatalf("opening the stream with 2³¹ dims allocated %d bytes, with dims of 2 %d", h, s)
	}
	if got := mulSat(1<<31, 1<<31, 94); got != 94 {
		t.Fatalf("mulSat(2³¹, 2³¹, 94) = %d", got)
	}

	// A stream with no modes at all leaves prediction no mode to contract:
	// both decoders refuse it.
	var buf bytes.Buffer
	noModes := &Model{Core: &CoreTensor{val: []float64{1.5}}, Config: Defaults(nil)}
	if _, err := noModes.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadModelFormat) {
		t.Fatalf("ReadModel of a model with no modes: err = %v, want ErrBadModelFormat", err)
	}
	if _, err := ModelFromMapping(alignedCopy(buf.Bytes())); !errors.Is(err, ErrBadModelFormat) {
		t.Fatalf("ModelFromMapping of a model with no modes: err = %v, want ErrBadModelFormat", err)
	}
}

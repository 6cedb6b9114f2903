package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// The fitted-bits pin table. Every other bit-identity test compares two runs
// of one build (thread counts, replay, follower against primary, mmap
// against heap); this one compares a build against the bits checked into
// testdata/fit_pins.json, so a change in float association anywhere on the
// fit, predict or recommend path fails here and names the configuration.
//
// A change that moves these bits on purpose re-pins with
//
//	go test ./internal/core -run TestFittedBitsPinned -update
//
// and says why in CHANGES.md, with the largest relative change of a Trace
// error. The table has no tolerance.

var updatePins = flag.Bool("update", false, "rewrite testdata/fit_pins.json from this build")

const pinFile = "testdata/fit_pins.json"

// pin is one row of the table: a model hash and/or a list of float bits.
type pin struct {
	Name   string   `json:"name"`
	SHA256 string   `json:"sha256,omitempty"`
	Bits   []string `json:"bits,omitempty"`
}

// pinTensor plants nnz distinct cells of a random Tucker model (ranks) plus
// Gaussian noise. With skew set, each coordinate is drawn as ⌊d·u³⌋, so low
// indices hold most entries. The planted values are summed here, by an
// explicit loop, rather than by the package's kernels, so the inputs stay
// fixed when a kernel's float association changes.
func pinTensor(seed int64, dims, ranks []int, nnz int, skew bool) *tensor.Coord {
	rng := rand.New(rand.NewSource(seed))
	n := len(dims)
	factors := make([][]float64, n)
	for k := range factors {
		factors[k] = make([]float64, dims[k]*ranks[k])
		for i := range factors[k] {
			factors[k][i] = rng.Float64()
		}
	}
	size := 1
	for _, j := range ranks {
		size *= j
	}
	core := make([]float64, size)
	for i := range core {
		core[i] = rng.Float64()
	}
	x := tensor.NewCoord(dims)
	idx := make([]int, n)
	beta := make([]int, n)
	seen := make(map[int]bool)
	for x.NNZ() < nnz {
		flat, stride := 0, 1
		for k, d := range dims {
			u := rng.Float64()
			if skew {
				u = u * u * u
			}
			idx[k] = int(u * float64(d))
			flat += idx[k] * stride
			stride *= d
		}
		if seen[flat] {
			continue
		}
		seen[flat] = true
		var v float64
		for off, g := range core {
			rem := off
			for k := range beta {
				beta[k] = rem % ranks[k]
				rem /= ranks[k]
			}
			p := g
			for k := 0; k < n; k++ {
				p *= factors[k][idx[k]*ranks[k]+beta[k]]
			}
			v += p
		}
		x.MustAppend(idx, v+0.1*rng.NormFloat64())
	}
	return x
}

// pinModel hashes m's WriteTo bytes with the run-dependent fields —
// WorkPerThread and every Trace Elapsed — zeroed, and lists every Trace
// error as float bits.
func pinModel(t *testing.T, name string, m *Model) pin {
	t.Helper()
	c := *m
	c.WorkPerThread = make([]int64, len(m.WorkPerThread))
	c.Trace = append([]IterStats(nil), m.Trace...)
	var errs []string
	for i := range c.Trace {
		c.Trace[i].Elapsed = 0
		errs = append(errs, floatBits(c.Trace[i].Error))
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return pin{Name: name, SHA256: hex.EncodeToString(sum[:]), Bits: errs}
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// fitPins runs the 30 pinned fits: five variants at Threads 1, 2 and 4 on a
// planted 60×50×40 tensor (20k entries, ranks 4³) and a skewed 40×30×20×10
// one (15k entries, ranks 3⁴), 4 iterations from seed 7. The fits run as
// parallel subtests, each filling its own slot of the result.
func fitPins(t *testing.T) []pin {
	inputs := []struct {
		name  string
		x     *tensor.Coord
		ranks []int
	}{
		{"planted", pinTensor(1, []int{60, 50, 40}, []int{4, 4, 4}, 20000, false), []int{4, 4, 4}},
		{"skewed", pinTensor(2, []int{40, 30, 20, 10}, []int{3, 3, 3, 3}, 15000, true), []int{3, 3, 3, 3}},
	}
	variants := []struct {
		name     string
		method   Method
		sparsify float64
	}{
		{"plain", PTucker, 0},
		{"cache", PTuckerCache, 0},
		{"approx", PTuckerApprox, 0},
		{"sparsify", PTucker, 0.05},
		{"approx+sparsify", PTuckerApprox, 0.05},
	}
	threads := []int{1, 2, 4}
	pins := make([]pin, 0, len(inputs)*len(variants)*len(threads))
	t.Run("fits", func(t *testing.T) {
		for _, in := range inputs {
			for _, v := range variants {
				for _, th := range threads {
					cfg := Defaults(in.ranks)
					cfg.Method = v.method
					cfg.Sparsify = v.sparsify
					cfg.MaxIters = 4
					cfg.Tol = 0
					cfg.Threads = th
					cfg.Seed = 7
					name := fmt.Sprintf("%s/%s/t%d", in.name, v.name, th)
					pins = append(pins, pin{Name: name})
					slot := &pins[len(pins)-1]
					x := in.x
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						m, err := DecomposeContext(context.Background(), x, cfg)
						if err != nil {
							t.Fatal(err)
						}
						*slot = pinModel(t, name, m)
					})
				}
			}
		}
	})
	return pins
}

// onlinePins pins one online sequence on a small plain fit: ResumeFitter,
// FoldIn of a new mode-0 row, Observe, and a 2-iteration Refit.
func onlinePins(t *testing.T) []pin {
	x := pinTensor(3, []int{30, 20, 10}, []int{3, 3, 3}, 3000, false)
	cfg := Defaults([]int{3, 3, 3})
	cfg.MaxIters = 4
	cfg.Tol = 0
	cfg.Threads = 2
	cfg.Seed = 7
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.MaxIters = 2
	f, err := ResumeFitter(m, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	obs := func(count int, row int) []Observation {
		out := make([]Observation, count)
		for i := range out {
			idx := []int{row, rng.Intn(20), rng.Intn(10)}
			if row < 0 {
				idx[0] = rng.Intn(30)
			}
			out[i] = Observation{Index: idx, Value: rng.Float64()}
		}
		return out
	}
	if _, err := f.FoldIn(0, obs(8, 30)); err != nil {
		t.Fatal(err)
	}
	pins := []pin{pinModel(t, "online/foldin", f.Snapshot())}
	if err := f.Observe(obs(200, -1)); err != nil {
		t.Fatal(err)
	}
	refit, err := f.Refit(context.Background(), obs(50, -1))
	if err != nil {
		t.Fatal(err)
	}
	return append(pins, pinModel(t, "online/refit", refit))
}

// fixturePins pins Predict and TopK of testdata/model_v4.ptkm (a sparsified
// 9×8×7 model) on fixed cells and queries.
func fixturePins(t *testing.T) []pin {
	m, err := LoadModel("testdata/model_v4.ptkm")
	if err != nil {
		t.Fatal(err)
	}
	predict := pin{Name: "model_v4/predict"}
	for _, idx := range [][]int{{0, 0, 0}, {1, 2, 3}, {4, 7, 6}, {8, 5, 2}, {3, 3, 3}, {6, 1, 5}} {
		predict.Bits = append(predict.Bits, floatBits(m.Predict(idx)))
	}
	pins := []pin{predict}
	r := NewPredictor(m).Recommender()
	for mode := 0; mode < m.Order(); mode++ {
		recs, err := r.TopK([]int{2, 5, 4}, mode, 4)
		if err != nil {
			t.Fatal(err)
		}
		p := pin{Name: fmt.Sprintf("model_v4/topk/mode%d", mode)}
		for _, rec := range recs {
			p.Bits = append(p.Bits, fmt.Sprintf("%d:%s", rec.Index, floatBits(rec.Score)))
		}
		pins = append(pins, p)
	}
	return pins
}

// TestFittedBitsPinned compares this build's fitted, predicted and
// recommended bits with the checked-in table. Go may fuse x*y+z into one
// FMA instruction on arm64, ppc64le and s390x, which changes bits, so the
// table holds for amd64 only.
func TestFittedBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fitted bits are pinned for amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := append(append(fitPins(t), onlinePins(t)...), fixturePins(t)...)
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d pins", pinFile, len(got))
		return
	}
	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []pin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d pins, this build computes %d", pinFile, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("pin %d is %q in %s but %q here", i, w.Name, pinFile, g.Name)
		}
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s: model hash %.12s…, pinned %.12s…", w.Name, g.SHA256, w.SHA256)
		}
		if !slices.Equal(g.Bits, w.Bits) {
			t.Errorf("%s: bits %v, pinned %v", w.Name, g.Bits, w.Bits)
		}
	}
}

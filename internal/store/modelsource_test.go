package store

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mat"
)

// benchModel builds a servable model without fitting: rows scales factor 0
// (and with it the file size) while metadata stays fixed, which is what the
// open benchmarks need to show size-independent mapped opens.
func benchModel(tb testing.TB, rows int) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(77))
	ranks := []int{4, 3, 2}
	dims := []int{rows, 256, 64}
	factors := make([]*mat.Dense, len(dims))
	for k, d := range dims {
		data := make([]float64, d*ranks[k])
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		factors[k] = mat.NewDenseData(d, ranks[k], data)
	}
	g := core.NewRandomCore(ranks, rng)
	return &core.Model{Factors: factors, Core: g, Config: core.Defaults(ranks)}
}

func saveBenchModel(tb testing.TB, rows int) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "model.ptkm")
	if err := core.SaveModel(path, benchModel(tb, rows)); err != nil {
		tb.Fatal(err)
	}
	return path
}

// The acceptance pin: a model served from a read-only mapping predicts
// bit-identically to the same file heap-decoded.
func TestMmapModelBitIdenticalToHeap(t *testing.T) {
	if !mmapSupported {
		t.Skip("platform has no mmap")
	}
	path := saveBenchModel(t, 4096)

	src, err := OpenModel(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if !src.Mapped() || src.MappedBytes() <= 0 {
		t.Fatalf("OpenModel: mapped=%v bytes=%d", src.Mapped(), src.MappedBytes())
	}
	heap, err := core.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	mapped := src.Model()
	rng := rand.New(rand.NewSource(78))
	idx := make([]int, 3)
	for i := 0; i < 1000; i++ {
		for k, d := range []int{4096, 256, 64} {
			idx[k] = rng.Intn(d)
		}
		h, m := heap.Predict(idx), mapped.Predict(idx)
		if math.Float64bits(h) != math.Float64bits(m) {
			t.Fatalf("prediction at %v: heap %v, mapped %v", idx, h, m)
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if src.MappedBytes() != 0 {
		t.Fatalf("MappedBytes after Close = %d, want 0", src.MappedBytes())
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// OpenModel must fall back to the heap loader for streams the mapper cannot
// serve (here: the checked-in v2-era fixture predating the aligned layout)
// but must NOT retry a file the mapper proved corrupt.
func TestOpenModelFallbackAndVerdicts(t *testing.T) {
	v2 := filepath.Join("..", "core", "testdata", "model_v2.ptkm")
	src, err := OpenModel(v2, true)
	if err != nil {
		t.Fatalf("v2 fixture with mmap preference: %v", err)
	}
	defer src.Close()
	if src.Mapped() {
		t.Fatal("a pre-v4 stream cannot be mapped; expected the heap fallback")
	}

	path := saveBenchModel(t, 64)
	heapSrc, err := OpenModel(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer heapSrc.Close()
	if heapSrc.Mapped() || heapSrc.MappedBytes() != 0 {
		t.Fatal("preferMmap=false must heap-load")
	}

	if mmapSupported {
		mapped, err := OpenModel(path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		if !mapped.Mapped() {
			t.Fatal("v4 file on a mmap platform should map")
		}
	}

	// Corrupt a metadata byte: the mapped decoder's verdict is final.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[9] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.ptkm")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenModel(bad, true); err == nil {
		t.Fatal("corrupted model accepted")
	}
}

// BenchmarkMmapModelOpen is the acceptance benchmark: opening a mapped
// model must cost the same regardless of model size (the metadata, not the
// factor bytes, is what the opener touches), while the heap decode below
// scales linearly. rows=65536 is a 16x larger file than rows=4096.
func BenchmarkMmapModelOpen(b *testing.B) {
	if !mmapSupported {
		b.Skip("platform has no mmap")
	}
	for _, rows := range []int{4096, 65536} {
		b.Run(sizeName(rows), func(b *testing.B) {
			path := saveBenchModel(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := OpenModel(path, true)
				if err != nil {
					b.Fatal(err)
				}
				if !src.Mapped() {
					b.Fatal("OpenModel fell back to the heap loader")
				}
				src.Close()
			}
		})
	}
}

// BenchmarkHeapModelOpen is the comparison loader on the identical files.
func BenchmarkHeapModelOpen(b *testing.B) {
	for _, rows := range []int{4096, 65536} {
		b.Run(sizeName(rows), func(b *testing.B) {
			path := saveBenchModel(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := OpenModel(path, false)
				if err != nil {
					b.Fatal(err)
				}
				src.Close()
			}
		})
	}
}

func sizeName(rows int) string {
	if rows >= 1024 {
		return "rows=" + itoa(rows/1024) + "k"
	}
	return "rows=" + itoa(rows)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

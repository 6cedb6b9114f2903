package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/tensor"
)

// benchTensor is the synthetic benchmark tensor shared by the load
// benchmarks: the same shape regime as the tensor-package IO benchmarks.
func benchTensor(tb testing.TB, nnz int) *tensor.Coord {
	tb.Helper()
	rng := rand.New(rand.NewSource(55))
	return randomCoord(rng, []int{2000, 2000, 2000}, nnz)
}

// BenchmarkBinaryRead measures the fixed-width binary loader; compare with
// BenchmarkTextRead on the identical tensor for the speedup the format buys.
func BenchmarkBinaryRead(b *testing.B) {
	x := benchTensor(b, 20000)
	var buf bytes.Buffer
	if err := tensor.WriteBinary(&buf, x); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.ReadBinary(bytes.NewReader(data), 3, x.Dims()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTextRead is the line-parsing loader on the identical tensor.
func BenchmarkTextRead(b *testing.B) {
	x := benchTensor(b, 20000)
	var buf bytes.Buffer
	if err := tensor.Write(&buf, x); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Read(bytes.NewReader(data), 3, x.Dims()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppend measures one journaled observation batch under each
// sync policy (the batch size is a typical /v1/observe request).
func BenchmarkJournalAppend(b *testing.B) {
	for _, mode := range []SyncMode{SyncNone, SyncBatch, SyncAlways} {
		b.Run(mode.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(56))
			path := filepath.Join(b.TempDir(), "obs.ptkj")
			j, err := OpenJournal(path, 3, SyncPolicy{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			obs := obsBatch(rng, []int{2000, 2000, 2000}, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := j.Append(obs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBinaryLoadSpeedup pins the acceptance criterion that loading the
// synthetic benchmark tensor from the binary snapshot is at least 5× faster
// than the text loader. Each load is timed by this process's CPU time (see
// processCPU), so the test processes of other packages, which run in
// parallel with this one, cannot slow one loader on a busy machine. Each
// loader's time is its best of three alternating rounds to damp scheduler
// noise; the real ratio is typically well above 10×.
func TestBinaryLoadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation skews the loaders' relative cost")
	}
	x := benchTensor(t, 200000)

	var tb, bb bytes.Buffer
	if err := tensor.Write(&tb, x); err != nil {
		t.Fatal(err)
	}
	if err := tensor.WriteBinary(&bb, x); err != nil {
		t.Fatal(err)
	}

	// The loaders alternate round by round, so a burst of contention from
	// whatever else runs on the machine slows both instead of one; each
	// keeps its best round. A collection before each load keeps one
	// loader's garbage off the other's clock.
	timed := func(load func() error) time.Duration {
		runtime.GC()
		start := processCPU()
		if err := load(); err != nil {
			t.Fatal(err)
		}
		return processCPU() - start
	}
	textTime, binTime := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for round := 0; round < 3; round++ {
		textTime = min(textTime, timed(func() error {
			_, err := tensor.Read(bytes.NewReader(tb.Bytes()), 3, x.Dims())
			return err
		}))
		binTime = min(binTime, timed(func() error {
			_, err := tensor.ReadBinary(bytes.NewReader(bb.Bytes()), 3, x.Dims())
			return err
		}))
	}

	ratio := float64(textTime) / float64(binTime)
	t.Logf("text %v, binary %v — %.1fx", textTime, binTime, ratio)
	if ratio < 5 {
		t.Fatalf("binary load only %.1fx faster than text (want ≥5x): text %v, binary %v",
			ratio, textTime, binTime)
	}
}

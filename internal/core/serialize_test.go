package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// fittedModel trains a small model on planted data for persistence tests.
func fittedModel(t *testing.T, seed int64) (*Model, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dims := []int{15, 12, 10}
	x := plantedTensor(rng, dims, []int{2, 2, 2}, 1200, 0.02)
	cfg := smallConfig([]int{2, 2, 2})
	cfg.Method = PTuckerApprox // exercises a sparse (truncated-then-rotated) core
	m, err := DecomposeContext(context.Background(), x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([][]int, 200)
	for i := range idxs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		idxs[i] = idx
	}
	return m, idxs
}

func TestModelWriteToReadRoundTrip(t *testing.T) {
	m, idxs := fittedModel(t, 1)

	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical predictions: the acceptance bar for the format.
	for _, idx := range idxs {
		want, got := m.Predict(idx), back.Predict(idx)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("prediction at %v changed across round trip: %v vs %v", idx, want, got)
		}
	}

	// Everything else survives too.
	if back.Order() != m.Order() {
		t.Fatalf("order %d want %d", back.Order(), m.Order())
	}
	for k, a := range m.Factors {
		if !a.Equal(back.Factors[k], 0) {
			t.Fatalf("factor %d not bit-identical", k)
		}
	}
	if back.Core.NNZ() != m.Core.NNZ() {
		t.Fatalf("core nnz %d want %d", back.Core.NNZ(), m.Core.NNZ())
	}
	if len(back.Trace) != len(m.Trace) {
		t.Fatalf("trace length %d want %d", len(back.Trace), len(m.Trace))
	}
	for i, it := range m.Trace {
		if back.Trace[i] != it {
			t.Fatalf("trace[%d] = %+v want %+v", i, back.Trace[i], it)
		}
	}
	if back.TrainError != m.TrainError || back.Converged != m.Converged ||
		back.IntermediateBytes != m.IntermediateBytes || back.FinalCoreNNZ != m.FinalCoreNNZ {
		t.Fatal("summary statistics changed across round trip")
	}
	if len(back.Config.Ranks) != len(m.Config.Ranks) || back.Config.Lambda != m.Config.Lambda ||
		back.Config.Seed != m.Config.Seed || back.Config.Method != m.Config.Method {
		t.Fatalf("config changed across round trip: %+v vs %+v", back.Config, m.Config)
	}
}

func TestSaveLoadModelFile(t *testing.T) {
	m, idxs := fittedModel(t, 2)
	path := filepath.Join(t.TempDir(), "model.ptkm")
	if err := SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range idxs {
		if math.Float64bits(m.Predict(idx)) != math.Float64bits(back.Predict(idx)) {
			t.Fatalf("prediction at %v changed across save/load", idx)
		}
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(bytes.NewReader([]byte("this is not a model file"))); !errorIs(err, ErrBadModelFormat) {
		t.Fatalf("garbage: err = %v want ErrBadModelFormat", err)
	}
	if _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream: expected error")
	}
}

// writeModelV1 serializes m in the version-1 layout (no FinalCoreNNZ in the
// summary), so the reader's backward compatibility can be regression-tested
// without a checked-in binary fixture.
func writeModelV1(m *Model, buf *bytes.Buffer) error {
	crc := crc32.NewIEEE()
	bw := &binWriter{w: io.MultiWriter(buf, crc)}

	bw.write([]byte(modelMagic))
	bw.write(uint32(1))

	c := m.Config
	bw.writeInts(c.Ranks)
	bw.write(c.Lambda)
	bw.write(int64(c.MaxIters))
	bw.write(c.Tol)
	bw.write(int64(c.Threads))
	bw.write(int64(c.Method))
	bw.write(c.TruncationRate)
	bw.write(int64(c.Scheduling))
	bw.write(c.Seed)
	bw.write(uint8(0))   // retired slot: update-core
	bw.write(int64(8))   // retired slot: chunk size
	bw.write(float64(0)) // retired slot: sample rate

	bw.write(uint64(len(m.Factors)))
	for _, a := range m.Factors {
		bw.write(uint64(a.Rows()))
		bw.write(uint64(a.Cols()))
		bw.write(a.Data())
	}

	g := m.Core
	bw.writeInts(g.dims)
	bw.write(uint64(g.NNZ()))
	for _, i := range g.idx {
		bw.write(uint32(i))
	}
	bw.write(g.val)

	bw.write(uint64(len(m.Trace)))
	for _, it := range m.Trace {
		bw.write(int64(it.Iter))
		bw.write(it.Error)
		bw.write(int64(it.Elapsed))
		bw.write(int64(it.CoreNNZ))
	}

	bw.write(boolByte(m.Converged))
	bw.write(m.TrainError)
	bw.write(m.IntermediateBytes)
	bw.write(uint64(len(m.WorkPerThread)))
	bw.write(m.WorkPerThread)

	if bw.err != nil {
		return bw.err
	}
	return binary.Write(buf, binary.LittleEndian, crc.Sum32())
}

// Models saved by the previous build (format v1) must stay loadable: the
// reader accepts v1 and defaults the appended FinalCoreNNZ to 0.
func TestReadModelAcceptsVersion1(t *testing.T) {
	m, idxs := fittedModel(t, 4)
	var buf bytes.Buffer
	if err := writeModelV1(m, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if back.FinalCoreNNZ != 0 {
		t.Fatalf("v1 FinalCoreNNZ = %d want default 0", back.FinalCoreNNZ)
	}
	for _, idx := range idxs {
		if math.Float64bits(m.Predict(idx)) != math.Float64bits(back.Predict(idx)) {
			t.Fatalf("prediction at %v changed across v1 round trip", idx)
		}
	}
}

func TestReadModelRejectsWrongVersion(t *testing.T) {
	m, _ := fittedModel(t, 3)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // bump the little-endian version field past anything supported
	if _, err := ReadModel(bytes.NewReader(b)); !errorIs(err, ErrModelVersion) {
		t.Fatalf("err = %v want ErrModelVersion", err)
	}
}

func TestReadModelDetectsCorruption(t *testing.T) {
	m, _ := fittedModel(t, 4)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte: the checksum must catch it (unless the flip
	// happens to produce a structural error first, which is also a failure).
	b := append([]byte(nil), buf.Bytes()...)
	b[len(b)/2] ^= 0x40
	if _, err := ReadModel(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted payload: expected error")
	}

	// Truncation must be reported, not silently tolerated.
	if _, err := ReadModel(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); !errorIs(err, ErrBadModelFormat) {
		t.Fatalf("truncated: err = %v want ErrBadModelFormat", err)
	}
}

// A stream whose checksum is valid but whose core indices address columns
// outside the factor matrices must be rejected at load time — otherwise the
// first Predict would panic deep in the serve-path kernel.
func TestReadModelRejectsOutOfRangeCoreIndex(t *testing.T) {
	m, _ := fittedModel(t, 5)
	m.Core.idx[0] = m.Core.dims[0] + 3 // out of range, checksummed as written
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(&buf); !errorIs(err, ErrBadModelFormat) {
		t.Fatalf("err = %v want ErrBadModelFormat", err)
	}
}

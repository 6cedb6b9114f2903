package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Model persistence: a versioned binary format so a factorization fitted on
// one machine can be saved, shipped, and served on another. The encoding is
// little-endian and carries everything a consumer needs — factor matrices,
// core tensor, the normalized Config that produced the fit (minus the
// OnIteration hook, which is not data), the per-iteration Trace, and the
// summary statistics — followed by a CRC-32 of the stream so truncation or
// corruption is detected at load time rather than at serve time.
//
// Layout (version 4):
//
//	magic "PTKM" | version u32 | config | N factors | core | trace | summary |
//	crc32 u32 | metaCRC u32 | footer "PTKX"
//
// Version history — all older streams remain readable:
//
//   - v1: base format.
//   - v2: appended FinalCoreNNZ to the summary (v1 defaults it to 0).
//   - v3: appended Config.Sparsify to the config block, and prefixed the
//     core record with a flags byte. Bit 0 states that the entries are in
//     strictly increasing little-endian offset order (mode 0 fastest);
//     WriteTo sets it exactly when that holds, and the decoder rejects a
//     stream whose entries break an order its bit claims. No other bit is
//     defined. Dense cores carry the same dims/nnz/entries encoding as
//     before, so a v2-era dense core round-trips bit-identically through
//     the v3 record.
//   - v4: the mmap layout. The three bulk blocks — each factor's row-major
//     float64 data, the core index list, and the core value list — are
//     preceded by zero padding to an 8-byte stream offset, and core indices
//     are stored as int64 (v1..v3 used uint32), so on a little-endian 64-bit
//     host every block can be served as a []float64 / []int aliasing the
//     bytes it was read from. After the main CRC the stream carries a
//     footer, which must end it: a second CRC-32 covering only the non-block
//     bytes (config, shapes, padding, trace, summary), then the 4-byte footer
//     magic "PTKX".
//
// The config block of every version keeps three retired slots between Seed
// and Sparsify: update-core u8, chunk size i64 and sample rate f64, options
// the library no longer has. WriteTo writes 0, 8 and 0.0 there, their old
// defaults, which every file the CLI, the server and the examples saved
// already holds, so such files re-encode byte-identically. The decoder
// skips the slots, so a file holding other values still loads.
//
// One decoder, decodeModel in decode.go, reads every version from bytes
// held in memory.
//
// Float64 values are stored as their IEEE-754 bit patterns, which makes a
// save/load round trip bit-identical: a loaded model's Predict returns
// exactly the same float64 as the model that was saved.

const (
	modelMagic   = "PTKM"
	modelVersion = 4

	// footerMagic closes a v4+ stream, after the metadata CRC. Its presence
	// at the end of the stream is how the decoder finds both CRCs without
	// parsing forward.
	footerMagic = "PTKX"

	// footerSize is the v4 trailer past the main CRC: metaCRC u32 + magic.
	footerSize = 4 + len(footerMagic)

	// maxModelSlice bounds every length prefix read from a model stream so a
	// corrupted or hostile file cannot claim an absurd element count.
	maxModelSlice = 1 << 31

	// writeChunk is the element count of writeIntsAsI64Block's staging
	// buffer.
	writeChunk = 1 << 14

	// coreFlagSorted marks a v3+ core record whose entries are in strictly
	// increasing little-endian offset order.
	coreFlagSorted = 1 << 0
)

// Errors returned by the model readers.
var (
	// ErrBadModelFormat reports a stream that is not a P-Tucker model file
	// or is structurally inconsistent.
	ErrBadModelFormat = errors.New("core: not a valid P-Tucker model stream")
	// ErrModelVersion reports a model written by an incompatible format
	// version.
	ErrModelVersion = errors.New("core: unsupported model format version")
	// ErrModelChecksum reports a model stream whose CRC-32 does not match
	// its contents (truncation or corruption).
	ErrModelChecksum = errors.New("core: model stream corrupted (checksum mismatch)")
)

// countingWriter tracks the number of bytes forwarded to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// binWriter writes fixed-size little-endian values with a sticky error, so
// the encoder reads as a flat field list instead of an error-check ladder.
// Metadata goes through w; the bulk blocks (factor data, core indices, core
// values) go through blk when set, which lets WriteTo keep them out of the
// v4 metadata CRC.
type binWriter struct {
	w   io.Writer
	blk io.Writer
	err error
}

func (b *binWriter) write(v interface{}) {
	if b.err != nil {
		return
	}
	b.err = binary.Write(b.w, binary.LittleEndian, v)
}

// writeBlock writes v through the block writer (falling back to the
// metadata writer, for encoders that predate the split).
func (b *binWriter) writeBlock(v interface{}) {
	if b.err != nil {
		return
	}
	w := b.blk
	if w == nil {
		w = b.w
	}
	b.err = binary.Write(w, binary.LittleEndian, v)
}

// writeIntsAsI64Block writes xs as an int64 block (no length prefix) in
// bounded chunks.
func (b *binWriter) writeIntsAsI64Block(xs []int) {
	buf := make([]int64, 0, min(len(xs), writeChunk))
	for start := 0; start < len(xs) && b.err == nil; start += writeChunk {
		buf = buf[:0]
		for _, x := range xs[start:min(start+writeChunk, len(xs))] {
			buf = append(buf, int64(x))
		}
		b.writeBlock(buf)
	}
}

func (b *binWriter) writeInts(xs []int) {
	b.write(uint64(len(xs)))
	for _, x := range xs {
		b.write(int64(x))
	}
}

// WriteTo serializes the model in the versioned binary format, implementing
// io.WriterTo. It returns the number of bytes written.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	crc := crc32.NewIEEE()
	metaCRC := crc32.NewIEEE()
	bw := &binWriter{
		w:   io.MultiWriter(cw, crc, metaCRC),
		blk: io.MultiWriter(cw, crc),
	}
	// pad advances the stream to the next 8-byte offset with zero bytes, so
	// the block that follows can be aliased in place by the decoder. The
	// padding is metadata: both CRCs cover it.
	pad := func() {
		if p := int(-cw.n & 7); p > 0 && bw.err == nil {
			var zeros [8]byte
			bw.write(zeros[:p])
		}
	}

	bw.write([]byte(modelMagic))
	bw.write(uint32(modelVersion))

	// Config (OnIteration is a callback, not data; it is not persisted).
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
	// The retired update-core, chunk-size and sample-rate slots, at their
	// old defaults (see the layout comment above).
	bw.write(uint8(0))
	bw.write(int64(8))
	bw.write(float64(0))
	bw.write(c.Sparsify) // v3 (SparsifyHoldout is fit-time input, not data)

	// Factor matrices A(1)..A(N), each data block padded to an 8-byte
	// stream offset (v4).
	bw.write(uint64(len(m.Factors)))
	for _, a := range m.Factors {
		bw.write(uint64(a.Rows()))
		bw.write(uint64(a.Cols()))
		pad()
		bw.writeBlock(a.Data())
	}

	// Core tensor: flags (v3), dims, then the live entry list. v4 stores
	// indices as int64 in one aligned block (the value block that follows is
	// a whole number of 8-byte words, so one pad aligns both).
	g := m.Core
	var flags uint8
	if g.offsetSorted() {
		flags |= coreFlagSorted
	}
	bw.write(flags)
	bw.writeInts(g.dims)
	bw.write(uint64(g.NNZ()))
	pad()
	bw.writeIntsAsI64Block(g.idx)
	bw.writeBlock(g.val)

	// Per-iteration trace.
	bw.write(uint64(len(m.Trace)))
	for _, it := range m.Trace {
		bw.write(int64(it.Iter))
		bw.write(it.Error)
		bw.write(int64(it.Elapsed))
		bw.write(int64(it.CoreNNZ))
	}

	// Summary statistics.
	bw.write(boolByte(m.Converged))
	bw.write(m.TrainError)
	bw.write(m.IntermediateBytes)
	bw.write(int64(m.FinalCoreNNZ))
	bw.write(uint64(len(m.WorkPerThread)))
	bw.write(m.WorkPerThread)

	if bw.err != nil {
		return cw.n, bw.err
	}
	// Trailing checksum over everything above, written outside the CRC.
	if err := binary.Write(cw, binary.LittleEndian, crc.Sum32()); err != nil {
		return cw.n, err
	}
	// v4 footer: the metadata-only CRC plus the footer magic, which ends the
	// stream.
	if err := binary.Write(cw, binary.LittleEndian, metaCRC.Sum32()); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte(footerMagic)); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// SaveModel writes the model to path atomically: it serializes into a
// temporary file in the same directory and renames it into place, so readers
// never observe a half-written model.
func SaveModel(path string, m *Model) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	w := bufio.NewWriter(tmp)
	if _, err := m.WriteTo(w); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save model: %w", err)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

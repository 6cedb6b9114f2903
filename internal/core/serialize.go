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
	"time"

	"repro/internal/mat"
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
//     WriteTo sets it exactly when that holds, and both readers reject a
//     stream whose entries break an order its bit claims. No other bit is
//     defined. Dense cores carry the same dims/nnz/entries encoding as
//     before, so a v2-era dense core round-trips bit-identically through
//     the v3 record.
//   - v4: the mmap layout. The three bulk blocks — each factor's row-major
//     float64 data, the core index list, and the core value list — are
//     preceded by zero padding to an 8-byte stream offset, and core indices
//     are stored as int64 (v1..v3 used uint32), so on a 64-bit machine every
//     block can be served as a []float64 / []int aliasing the file mapping
//     directly. After the main CRC the stream carries a footer: a second
//     CRC-32 covering only the non-block bytes (config, shapes, padding,
//     trace, summary), then the 4-byte footer magic "PTKX". An mmap opener
//     (ModelFromMapping) validates that metadata CRC plus the blocks'
//     bounds, so open cost is O(metadata + core nnz), independent of the
//     factor bytes that dominate a large model. Streaming readers simply
//     stop after the main CRC and never see the footer.
//
// Float64 values are stored as their IEEE-754 bit patterns, which makes a
// save/load round trip bit-identical: a loaded model's Predict returns
// exactly the same float64 as the model that was saved.

const (
	modelMagic   = "PTKM"
	modelVersion = 4

	// footerMagic closes a v4+ stream, after the metadata CRC. Its presence
	// at the end of a file is how the mmap opener recognizes a mappable
	// stream without parsing forward.
	footerMagic = "PTKX"

	// footerSize is the v4 trailer past the main CRC: metaCRC u32 + magic.
	footerSize = 4 + len(footerMagic)

	// maxModelSlice bounds every length prefix read from a model stream so a
	// corrupted or hostile file cannot claim an absurd element count.
	maxModelSlice = 1 << 31

	// readChunk is the element granularity of the bulk readers: slices are
	// grown chunk-by-chunk as bytes actually arrive, so a hostile length
	// prefix (a tiny file claiming 2³¹ entries) hits EOF after a bounded
	// allocation instead of forcing gigabytes up front.
	readChunk = 1 << 14

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
	buf := make([]int64, 0, min(len(xs), readChunk))
	for start := 0; start < len(xs) && b.err == nil; start += readChunk {
		buf = buf[:0]
		for _, x := range xs[start:min(start+readChunk, len(xs))] {
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

// countingReader tracks the number of bytes consumed from r, so the v4
// decoder knows its stream offset and can skip alignment padding.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// binReader mirrors binWriter for decoding.
type binReader struct {
	r   io.Reader
	err error
}

func (b *binReader) read(v interface{}) {
	if b.err != nil {
		return
	}
	b.err = binary.Read(b.r, binary.LittleEndian, v)
}

func (b *binReader) readLen(what string) int {
	var n uint64
	b.read(&n)
	if b.err == nil && n > maxModelSlice {
		b.err = fmt.Errorf("%w: %s length %d exceeds limit", ErrBadModelFormat, what, n)
	}
	if b.err != nil {
		return 0
	}
	return int(n)
}

func (b *binReader) readInts(what string) []int {
	n := b.readLen(what)
	if b.err != nil {
		return nil
	}
	xs := make([]int, 0, min(n, readChunk))
	for i := 0; i < n && b.err == nil; i++ {
		var v int64
		b.read(&v)
		xs = append(xs, int(v))
	}
	if b.err != nil {
		return nil
	}
	return xs
}

// readFloats reads n float64 values in bounded chunks (see readChunk).
func (b *binReader) readFloats(n int) []float64 {
	out := make([]float64, 0, min(n, readChunk))
	for len(out) < n && b.err == nil {
		c := min(n-len(out), readChunk)
		buf := make([]float64, c)
		b.read(buf)
		if b.err == nil {
			out = append(out, buf...)
		}
	}
	if b.err != nil {
		return nil
	}
	return out
}

// readInt64s reads n int64 values in bounded chunks.
func (b *binReader) readInt64s(n int) []int64 {
	out := make([]int64, 0, min(n, readChunk))
	for len(out) < n && b.err == nil {
		c := min(n-len(out), readChunk)
		buf := make([]int64, c)
		b.read(buf)
		if b.err == nil {
			out = append(out, buf...)
		}
	}
	if b.err != nil {
		return nil
	}
	return out
}

// readI64sAsInts reads n int64 values (the v4 core index encoding) in
// bounded chunks, narrowing to int.
func (b *binReader) readI64sAsInts(n int) []int {
	out := make([]int, 0, min(n, readChunk))
	for len(out) < n && b.err == nil {
		c := min(n-len(out), readChunk)
		buf := make([]int64, c)
		b.read(buf)
		if b.err != nil {
			break
		}
		for _, v := range buf {
			out = append(out, int(v))
		}
	}
	if b.err != nil {
		return nil
	}
	return out
}

// readU32sAsInts reads n uint32 values (the v1..v3 core index encoding) in
// bounded chunks, widening to int.
func (b *binReader) readU32sAsInts(n int) []int {
	out := make([]int, 0, min(n, readChunk))
	for len(out) < n && b.err == nil {
		c := min(n-len(out), readChunk)
		buf := make([]uint32, c)
		b.read(buf)
		if b.err != nil {
			break
		}
		for _, v := range buf {
			out = append(out, int(v))
		}
	}
	if b.err != nil {
		return nil
	}
	return out
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
	// the block that follows can be aliased in place by the mmap reader. The
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
	bw.write(boolByte(c.UpdateCore))
	bw.write(int64(c.ChunkSize))
	bw.write(c.SampleRate)
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
	// v4 footer: the metadata-only CRC plus the footer magic. Streaming
	// readers stop at the main CRC and never consume these bytes; the mmap
	// opener starts from them.
	if err := binary.Write(cw, binary.LittleEndian, metaCRC.Sum32()); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte(footerMagic)); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadModel decodes a model previously written by Model.WriteTo. It verifies
// the magic, the format version, and the trailing CRC-32, and reconstructs
// factors and core bit-identically: predictions from the loaded model equal
// the saved model's exactly. The decoded Config has a nil OnIteration hook.
func ReadModel(r io.Reader) (*Model, error) {
	crc := crc32.NewIEEE()
	cr := &countingReader{r: r}
	br := &binReader{r: io.TeeReader(cr, crc)}

	magic := make([]byte, len(modelMagic))
	br.read(magic)
	if br.err == nil && string(magic) != modelMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadModelFormat, magic)
	}
	var version uint32
	br.read(&version)
	if br.err == nil && (version < 1 || version > modelVersion) {
		return nil, fmt.Errorf("%w: got v%d, want v1..v%d", ErrModelVersion, version, modelVersion)
	}
	// pad consumes the v4 alignment padding before a block, requiring the
	// bytes to be zero (anything else is not a stream WriteTo produced).
	pad := func(before string) {
		if version < 4 || br.err != nil {
			return
		}
		if p := int(-cr.n & 7); p > 0 {
			zeros := make([]byte, p)
			br.read(zeros)
			for _, z := range zeros {
				if br.err == nil && z != 0 {
					br.err = fmt.Errorf("%w: nonzero padding before %s", ErrBadModelFormat, before)
				}
			}
		}
	}

	var c Config
	c.Ranks = br.readInts("config ranks")
	br.read(&c.Lambda)
	var maxIters, threads, method, sched, chunk int64
	br.read(&maxIters)
	br.read(&c.Tol)
	br.read(&threads)
	br.read(&method)
	br.read(&c.TruncationRate)
	br.read(&sched)
	br.read(&c.Seed)
	c.UpdateCore = readBool(br)
	br.read(&chunk)
	br.read(&c.SampleRate)
	if version >= 3 {
		br.read(&c.Sparsify)
	}
	c.MaxIters = int(maxIters)
	c.Threads = int(threads)
	c.Method = Method(method)
	c.Scheduling = Scheduling(sched)
	c.ChunkSize = int(chunk)

	nFactors := br.readLen("factor count")
	factors := make([]*mat.Dense, 0, min(nFactors, readChunk))
	for k := 0; k < nFactors && br.err == nil; k++ {
		var rows, cols uint64
		br.read(&rows)
		br.read(&cols)
		if br.err == nil && (rows > maxModelSlice || cols > maxModelSlice || rows*cols > maxModelSlice) {
			br.err = fmt.Errorf("%w: factor %d shape %dx%d exceeds limit", ErrBadModelFormat, k, rows, cols)
			break
		}
		pad("factor data")
		data := br.readFloats(int(rows * cols))
		if br.err == nil {
			factors = append(factors, mat.NewDenseData(int(rows), int(cols), data))
		}
	}

	var coreFlags uint8
	if version >= 3 {
		br.read(&coreFlags)
		if br.err == nil && coreFlags&^uint8(coreFlagSorted) != 0 {
			return nil, fmt.Errorf("%w: unknown core flags %#x", ErrBadModelFormat, coreFlags)
		}
	}
	g := &CoreTensor{dims: br.readInts("core dims")}
	order := len(g.dims)
	nnz := br.readLen("core nnz")
	if br.err == nil && (order != nFactors || nnz*order > maxModelSlice) {
		return nil, fmt.Errorf("%w: core order %d / nnz %d inconsistent with %d factors",
			ErrBadModelFormat, order, nnz, nFactors)
	}
	if br.err == nil {
		pad("core indices")
		if version >= 4 {
			g.idx = br.readI64sAsInts(nnz * order)
		} else {
			g.idx = br.readU32sAsInts(nnz * order)
		}
		g.val = br.readFloats(nnz)
	}

	nTrace := br.readLen("trace length")
	trace := make([]IterStats, 0, min(nTrace, readChunk))
	for i := 0; i < nTrace && br.err == nil; i++ {
		var it IterStats
		var iter, elapsed, coreNNZ int64
		br.read(&iter)
		br.read(&it.Error)
		br.read(&elapsed)
		br.read(&coreNNZ)
		it.Iter = int(iter)
		it.Elapsed = time.Duration(elapsed)
		it.CoreNNZ = int(coreNNZ)
		if br.err == nil {
			trace = append(trace, it)
		}
	}

	m := &Model{Factors: factors, Core: g, Config: c, Trace: trace}
	m.Converged = readBool(br)
	br.read(&m.TrainError)
	br.read(&m.IntermediateBytes)
	if version >= 2 {
		var finalCoreNNZ int64
		br.read(&finalCoreNNZ)
		m.FinalCoreNNZ = int(finalCoreNNZ)
	}
	nWork := br.readLen("work-per-thread length")
	if br.err == nil {
		m.WorkPerThread = br.readInt64s(nWork)
	}

	if br.err != nil {
		if errors.Is(br.err, io.EOF) || errors.Is(br.err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated stream: %v", ErrBadModelFormat, br.err)
		}
		return nil, br.err
	}

	sum := crc.Sum32() // everything decoded so far; the trailer is outside the CRC
	var want uint32
	if err := binary.Read(cr, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadModelFormat, err)
	}
	if want != sum {
		return nil, fmt.Errorf("%w: got %08x, want %08x", ErrModelChecksum, sum, want)
	}

	if err := checkDecoded(factors, g, coreFlags); err != nil {
		return nil, err
	}
	return m, nil
}

// checkDecoded is the structural check both readers run once a stream's
// checksums pass, so a corrupt-but-checksummed (or crafted) file fails at
// load time instead of panicking inside a serve-path kernel: factor k must
// have exactly dims[k] columns, every core entry index must address a valid
// column, and a set sorted bit in flags must hold.
func checkDecoded(factors []*mat.Dense, g *CoreTensor, flags uint8) error {
	for k, a := range factors {
		if a.Cols() != g.dims[k] {
			return fmt.Errorf("%w: factor %d has %d columns but core dim is %d",
				ErrBadModelFormat, k, a.Cols(), g.dims[k])
		}
	}
	order := len(g.dims)
	for e := range g.val {
		for k := 0; k < order; k++ {
			if i := g.idx[e*order+k]; i < 0 || i >= g.dims[k] {
				return fmt.Errorf("%w: core entry %d mode %d index %d out of range [0,%d)",
					ErrBadModelFormat, e, k, i, g.dims[k])
			}
		}
	}
	if flags&coreFlagSorted != 0 && !g.offsetSorted() {
		return fmt.Errorf("%w: core flags claim offset order but the entries break it", ErrBadModelFormat)
	}
	return nil
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

// LoadModel reads a model previously written by SaveModel (or Model.WriteTo).
func LoadModel(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	m, err := ReadModel(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("core: load model %s: %w", path, err)
	}
	return m, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func readBool(br *binReader) bool {
	var v uint8
	br.read(&v)
	return v != 0
}

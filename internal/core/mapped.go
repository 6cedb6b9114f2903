package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/mat"
)

// Zero-copy model decoding. ModelFromMapping builds a *Model whose bulk
// arrays — factor data, core indices, core values — alias the provided byte
// slice (typically an mmap of a .ptkm file) instead of being decoded onto
// the heap. Open cost is O(metadata + core nnz): the v4 footer's metadata
// CRC covers everything except the bulk blocks, which are only
// bounds-checked (factor data) or range-validated (core indices, which
// prediction dereferences and which are small next to the factor bytes that
// dominate a large model).
//
// The returned model must be treated as read-only: writing through it is a
// fault when the mapping is PROT_READ. The serving layer upholds this —
// online learning resumes on deep clones (ResumeFitter), never in place.

// ErrNotMappable reports a stream that cannot be served in place on this
// machine: written before format v4, held at a base address that is not
// 8-byte aligned, or on a platform whose int is not 64-bit. Callers fall back
// to the heap decoder.
var ErrNotMappable = errors.New("core: model stream is not mappable in place")

// mapReader walks the metadata of a v4 stream held entirely in memory,
// hashing every metadata byte it consumes and bounds-checking the bulk
// blocks it skips, with the same sticky-error style as binReader.
type mapReader struct {
	data []byte
	off  int
	lim  int // metadata and blocks must end exactly here (start of the main CRC)
	meta hash.Hash32
	err  error
}

func (r *mapReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take consumes n metadata bytes, feeding them to the metadata hash.
func (r *mapReader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.lim-r.off {
		r.fail("%w: %s overruns the stream", ErrBadModelFormat, what)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.meta.Write(b)
	r.off += n
	return b
}

// block skips an n-byte bulk block (not hashed), returning its start offset.
func (r *mapReader) block(n int, what string) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > r.lim-r.off {
		r.fail("%w: %s block overruns the stream", ErrBadModelFormat, what)
		return 0
	}
	o := r.off
	r.off += n
	return o
}

// pad consumes the zero padding up to the next 8-byte offset.
func (r *mapReader) pad(before string) {
	if p := -r.off & 7; p > 0 {
		for _, z := range r.take(p, "padding") {
			if z != 0 {
				r.fail("%w: nonzero padding before %s", ErrBadModelFormat, before)
			}
		}
	}
}

func (r *mapReader) u8(what string) uint8 {
	b := r.take(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *mapReader) u64(what string) uint64 {
	b := r.take(8, what)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *mapReader) i64(what string) int64 { return int64(r.u64(what)) }

func (r *mapReader) f64(what string) float64 {
	b := r.take(8, what)
	if r.err != nil {
		return 0
	}
	return *(*float64)(unsafe.Pointer(&b[0]))
}

func (r *mapReader) length(what string) int {
	n := r.u64(what)
	if r.err == nil && n > maxModelSlice {
		r.fail("%w: %s length %d exceeds limit", ErrBadModelFormat, what, n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *mapReader) ints(what string) []int {
	n := r.length(what)
	if r.err != nil {
		return nil
	}
	xs := make([]int, 0, min(n, readChunk))
	for i := 0; i < n && r.err == nil; i++ {
		xs = append(xs, int(r.i64(what)))
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// aliasFloat64 reinterprets n float64 words of data starting at off. The
// caller guarantees bounds and 8-byte alignment of &data[off].
func aliasFloat64(data []byte, off, n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), n)
}

// aliasInt reinterprets n int64 words of data starting at off as []int
// (64-bit platforms only; the caller has checked strconv.IntSize).
func aliasInt(data []byte, off, n int) []int {
	if n == 0 {
		return []int{}
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&data[off])), n)
}

// ModelFromMapping decodes a v4 model stream held in data without copying
// its bulk blocks: the returned model's factor data, core indices, and core
// values alias data directly. The mapping must outlive every use of the
// model, and the model must not be mutated (the serving layer's online
// paths clone before writing, so this holds there by construction).
//
// Returns ErrNotMappable when the stream or platform cannot support
// in-place serving (pre-v4 stream, 32-bit int, misaligned base address) —
// the heap decoder handles those — and
// ErrBadModelFormat / ErrModelChecksum for streams no decoder should trust.
func ModelFromMapping(data []byte) (*Model, error) {
	if strconv.IntSize != 64 {
		return nil, fmt.Errorf("%w: %d-bit int cannot alias int64 indices", ErrNotMappable, strconv.IntSize)
	}
	headerSize := len(modelMagic) + 4
	if len(data) < headerSize+4+footerSize {
		return nil, fmt.Errorf("%w: %d bytes is too short for any model stream", ErrBadModelFormat, len(data))
	}
	if string(data[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadModelFormat, data[:len(modelMagic)])
	}
	version := binary.LittleEndian.Uint32(data[len(modelMagic):headerSize])
	if version < 1 || version > modelVersion {
		return nil, fmt.Errorf("%w: got v%d, want v1..v%d", ErrModelVersion, version, modelVersion)
	}
	if version < 4 {
		return nil, fmt.Errorf("%w: stream version v%d predates the aligned layout", ErrNotMappable, version)
	}
	if string(data[len(data)-len(footerMagic):]) != footerMagic {
		return nil, fmt.Errorf("%w: truncated stream (missing %q footer)", ErrBadModelFormat, footerMagic)
	}
	if uintptr(unsafe.Pointer(&data[0]))&7 != 0 {
		// mmap always hands back page-aligned memory; this only trips for
		// odd in-memory callers, which the heap decoder serves fine.
		return nil, fmt.Errorf("%w: base address not 8-byte aligned", ErrNotMappable)
	}

	storedMeta := binary.LittleEndian.Uint32(data[len(data)-footerSize : len(data)-len(footerMagic)])
	r := &mapReader{
		data: data,
		lim:  len(data) - 4 - footerSize, // metadata + blocks end at the main CRC
		meta: crc32.NewIEEE(),
	}
	r.take(headerSize, "header")

	var c Config
	c.Ranks = r.ints("config ranks")
	c.Lambda = r.f64("config lambda")
	c.MaxIters = int(r.i64("config max iters"))
	c.Tol = r.f64("config tol")
	c.Threads = int(r.i64("config threads"))
	c.Method = Method(r.i64("config method"))
	c.TruncationRate = r.f64("config truncation rate")
	c.Scheduling = Scheduling(r.i64("config scheduling"))
	c.Seed = int64(r.u64("config seed"))
	c.UpdateCore = r.u8("config update-core") != 0
	c.ChunkSize = int(r.i64("config chunk size"))
	c.SampleRate = r.f64("config sample rate")
	c.Sparsify = r.f64("config sparsify")

	nFactors := r.length("factor count")
	type factorBlock struct{ rows, cols, off int }
	fbs := make([]factorBlock, 0, min(nFactors, readChunk))
	for k := 0; k < nFactors && r.err == nil; k++ {
		rows := r.u64("factor rows")
		cols := r.u64("factor cols")
		if r.err == nil && (rows > maxModelSlice || cols > maxModelSlice || rows*cols > maxModelSlice) {
			r.fail("%w: factor %d shape %dx%d exceeds limit", ErrBadModelFormat, k, rows, cols)
			break
		}
		r.pad("factor data")
		off := r.block(int(rows*cols)*8, "factor data")
		fbs = append(fbs, factorBlock{rows: int(rows), cols: int(cols), off: off})
	}

	coreFlags := r.u8("core flags")
	if r.err == nil && coreFlags&^uint8(coreFlagSorted) != 0 {
		return nil, fmt.Errorf("%w: unknown core flags %#x", ErrBadModelFormat, coreFlags)
	}
	dims := r.ints("core dims")
	order := len(dims)
	nnz := r.length("core nnz")
	if r.err == nil && (order != nFactors || nnz*order > maxModelSlice) {
		return nil, fmt.Errorf("%w: core order %d / nnz %d inconsistent with %d factors",
			ErrBadModelFormat, order, nnz, nFactors)
	}
	r.pad("core indices")
	idxOff := r.block(nnz*order*8, "core index")
	valOff := r.block(nnz*8, "core value")

	nTrace := r.length("trace length")
	trace := make([]IterStats, 0, min(nTrace, readChunk))
	for i := 0; i < nTrace && r.err == nil; i++ {
		it := IterStats{
			Iter:    int(r.i64("trace iter")),
			Error:   r.f64("trace error"),
			Elapsed: time.Duration(r.i64("trace elapsed")),
			CoreNNZ: int(r.i64("trace core nnz")),
		}
		if r.err == nil {
			trace = append(trace, it)
		}
	}

	m := &Model{Config: c, Trace: trace}
	m.Converged = r.u8("summary converged") != 0
	m.TrainError = r.f64("summary train error")
	m.IntermediateBytes = r.i64("summary intermediate bytes")
	m.FinalCoreNNZ = int(r.i64("summary final core nnz"))
	nWork := r.length("work-per-thread length")
	work := make([]int64, 0, min(nWork, readChunk))
	for i := 0; i < nWork && r.err == nil; i++ {
		work = append(work, r.i64("work-per-thread"))
	}
	if r.err == nil {
		m.WorkPerThread = work
	}

	if r.err != nil {
		return nil, r.err
	}
	if r.off != r.lim {
		return nil, fmt.Errorf("%w: %d bytes between summary and checksum", ErrBadModelFormat, r.lim-r.off)
	}
	if sum := r.meta.Sum32(); sum != storedMeta {
		return nil, fmt.Errorf("%w: metadata got %08x, want %08x", ErrModelChecksum, sum, storedMeta)
	}

	// Metadata is trusted now; wire the bulk blocks in place. Block offsets
	// are 8-aligned by construction (pad ran before each block and every
	// block is a whole number of 8-byte words).
	m.Factors = make([]*mat.Dense, len(fbs))
	for k, fb := range fbs {
		m.Factors[k] = mat.NewDenseData(fb.rows, fb.cols, aliasFloat64(data, fb.off, fb.rows*fb.cols))
	}
	g := &CoreTensor{
		dims: dims,
		idx:  aliasInt(data, idxOff, nnz*order),
		val:  aliasFloat64(data, valOff, nnz),
	}
	if err := checkDecoded(m.Factors, g, coreFlags); err != nil {
		return nil, err
	}
	m.Core = g
	return m, nil
}

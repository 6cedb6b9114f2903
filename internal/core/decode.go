package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/mat"
)

// Model decoding. Every entry point hands a whole stream, held in memory, to
// decodeModel — the one place the layout is parsed:
//
//   - ReadModel and LoadModel read the stream onto the heap, verify the main
//     CRC over every byte, then decode. A v4 model's bulk arrays — factor
//     data, core indices, core values — alias that read buffer where the host
//     allows it (see wordsAliasable) instead of being decoded element by
//     element; pre-v4 blocks are always copied.
//   - ModelFromMapping decodes a v4 stream in place (typically an mmap of a
//     .ptkm file). Its bulk arrays alias the mapping, and only the footer's
//     metadata CRC is verified, so open cost is O(metadata + core nnz): the
//     bulk blocks are bounds-checked (factor data) or range-validated (core
//     indices, which prediction dereferences and which are small next to the
//     factor bytes that dominate a large model).
//
// A mapped model must be treated as read-only: writing through it is a fault
// when the mapping is PROT_READ. The serving layer upholds this — online
// learning resumes on deep clones (ResumeFitter), never in place.

// ErrNotMappable reports a stream that cannot be served in place on this
// host: written before format v4, held at a base address that is not 8-byte
// aligned, or on a host whose words are not little-endian 64-bit (a
// big-endian host). Callers fall back to the heap decoder, which copies the
// blocks.
var ErrNotMappable = errors.New("core: model stream is not mappable in place")

// wordsAliasable reports whether an 8-byte-aligned block of the stream's
// little-endian int64/float64 words can be reinterpreted in place as []int /
// []float64: int must be 64 bits and the host little-endian.
var wordsAliasable = strconv.IntSize == 64 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ReadModel decodes a model previously written by Model.WriteTo. It reads r
// to EOF — the stream must end where the model does, with the v4 footer —
// verifies the magic, the format version and the CRCs, and reconstructs
// factors and core bit-identically: predictions from the loaded model equal
// the saved model's exactly. The decoded Config has a nil OnIteration hook.
func ReadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: read model: %w", err)
	}
	return decodeModel(data, false)
}

// LoadModel reads a model previously written by SaveModel (or Model.WriteTo)
// in one piece and decodes it as ReadModel does.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	m, err := decodeModel(data, false)
	if err != nil {
		return nil, fmt.Errorf("core: load model %s: %w", path, err)
	}
	return m, nil
}

// ModelFromMapping decodes a v4 model stream held in data without copying
// its bulk blocks: the returned model's factor data, core indices, and core
// values alias data directly. The mapping must outlive every use of the
// model, and the model must not be mutated (the serving layer's online
// paths clone before writing, so this holds there by construction).
//
// Returns ErrNotMappable when the stream or host cannot support in-place
// serving (pre-v4 stream, big-endian host, misaligned base address) — the
// heap decoder handles those — and ErrBadModelFormat / ErrModelChecksum /
// ErrModelVersion for streams no decoder should trust.
func ModelFromMapping(data []byte) (*Model, error) {
	return decodeModel(data, true)
}

// decoder walks a model stream held in memory with a sticky error. Metadata
// goes through take, which folds it into the running metadata CRC; the bulk
// blocks go through block, which only bounds-checks them.
type decoder struct {
	data    []byte
	off     int
	lim     int // start of the main CRC: metadata and blocks end exactly here
	version uint32
	alias   bool   // bulk blocks alias data instead of being copied
	meta    uint32 // CRC-32 of the metadata consumed so far
	err     error
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// block consumes n bytes. The bulk blocks are read through it directly,
// which keeps them out of the metadata CRC.
func (d *decoder) block(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.lim-d.off {
		d.fail("%w: truncated stream: %s overruns it", ErrBadModelFormat, what)
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// take consumes n metadata bytes, feeding them to the metadata CRC.
func (d *decoder) take(n int, what string) []byte {
	b := d.block(n, what)
	d.meta = crc32.Update(d.meta, crc32.IEEETable, b)
	return b
}

// pad consumes the v4 zero padding up to the next 8-byte stream offset.
func (d *decoder) pad(before string) {
	if d.version < 4 {
		return
	}
	for _, z := range d.take(-d.off&7, "padding") {
		if z != 0 {
			d.fail("%w: nonzero padding before %s", ErrBadModelFormat, before)
		}
	}
}

func (d *decoder) u8(what string) uint8 {
	if b := d.take(1, what); b != nil {
		return b[0]
	}
	return 0
}

func (d *decoder) u64(what string) uint64 {
	if b := d.take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) i64(what string) int64 { return int64(d.u64(what)) }

func (d *decoder) f64(what string) float64 { return math.Float64frombits(d.u64(what)) }

// length reads an element count whose elements take at least size bytes
// each. A count above maxModelSlice, or one the bytes left cannot hold, is
// rejected before anything is allocated for it, so a hostile length prefix
// costs at most an allocation proportional to the stream itself.
func (d *decoder) length(what string, size int) int {
	n := d.u64(what)
	switch {
	case d.err != nil:
		return 0
	case n > maxModelSlice:
		d.fail("%w: %s length %d exceeds limit", ErrBadModelFormat, what, n)
		return 0
	case int(n)*size > d.lim-d.off:
		d.fail("%w: %s length %d overruns the stream", ErrBadModelFormat, what, n)
		return 0
	}
	return int(n)
}

func (d *decoder) ints(what string) []int {
	xs := make([]int, d.length(what, 8))
	for i := range xs {
		xs[i] = int(d.i64(what))
	}
	return xs
}

// floats consumes a block of n float64 words, aliasing it when d.alias is
// set and decoding it into a new slice otherwise.
func (d *decoder) floats(n int, what string) []float64 {
	b := d.block(8*n, what)
	if d.err != nil {
		return nil
	}
	if d.alias && n > 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

// indices consumes the core index block of n coordinates: int64 words since
// v4 (aliased like floats), uint32 before, widened to int.
func (d *decoder) indices(n int) []int {
	size := 8
	if d.version < 4 {
		size = 4
	}
	b := d.block(size*n, "core index")
	if d.err != nil {
		return nil
	}
	if d.alias && n > 0 {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
	}
	xs := make([]int, n)
	for i := range xs {
		if size == 8 {
			xs[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
		} else {
			xs[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return xs
}

// decodeModel parses the model stream held in data. inPlace selects
// ModelFromMapping's contract: the bulk blocks must alias data
// (ErrNotMappable otherwise) and only the v4 metadata CRC is verified.
// Otherwise the main CRC is verified over every byte before anything is
// parsed, and the blocks alias data only where the host allows it.
func decodeModel(data []byte, inPlace bool) (*Model, error) {
	const headerSize = len(modelMagic) + 4
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: truncated stream (%d bytes)", ErrBadModelFormat, len(data))
	}
	if string(data[:len(modelMagic)]) != modelMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadModelFormat, data[:len(modelMagic)])
	}
	version := binary.LittleEndian.Uint32(data[len(modelMagic):headerSize])
	if version < 1 || version > modelVersion {
		return nil, fmt.Errorf("%w: got v%d, want v1..v%d", ErrModelVersion, version, modelVersion)
	}
	aligned := uintptr(unsafe.Pointer(&data[0]))&7 == 0
	if inPlace {
		switch {
		case version < 4:
			return nil, fmt.Errorf("%w: stream version v%d predates the aligned layout", ErrNotMappable, version)
		case !wordsAliasable:
			return nil, fmt.Errorf("%w: host words are not little-endian 64-bit", ErrNotMappable)
		case !aligned:
			// mmap always hands back page-aligned memory; this only trips for
			// odd in-memory callers, which the heap decoder serves fine.
			return nil, fmt.Errorf("%w: base address not 8-byte aligned", ErrNotMappable)
		}
	}

	// The main CRC follows the summary; since v4 the footer follows it and
	// must end the stream.
	d := &decoder{
		data:    data,
		lim:     len(data) - 4,
		version: version,
		alias:   version >= 4 && wordsAliasable && aligned,
	}
	if version >= 4 {
		d.lim -= footerSize
		if string(data[len(data)-len(footerMagic):]) != footerMagic {
			return nil, fmt.Errorf("%w: truncated stream or trailing bytes (no %q footer at the end)", ErrBadModelFormat, footerMagic)
		}
	}
	if d.lim < headerSize {
		return nil, fmt.Errorf("%w: truncated stream (%d bytes)", ErrBadModelFormat, len(data))
	}
	if !inPlace {
		if sum, want := crc32.ChecksumIEEE(data[:d.lim]), binary.LittleEndian.Uint32(data[d.lim:]); sum != want {
			return nil, fmt.Errorf("%w: got %08x, want %08x", ErrModelChecksum, sum, want)
		}
	}
	d.take(headerSize, "header")

	var c Config
	c.Ranks = d.ints("config ranks")
	c.Lambda = d.f64("config lambda")
	c.MaxIters = int(d.i64("config max iters"))
	c.Tol = d.f64("config tol")
	c.Threads = int(d.i64("config threads"))
	c.Method = Method(d.i64("config method"))
	c.TruncationRate = d.f64("config truncation rate")
	c.Scheduling = Scheduling(d.i64("config scheduling"))
	c.Seed = d.i64("config seed")
	if !c.Method.known() {
		d.fail("%w: unknown config method %d", ErrBadModelFormat, int(c.Method))
	}
	if !c.Scheduling.known() {
		d.fail("%w: unknown config scheduling %d", ErrBadModelFormat, int(c.Scheduling))
	}
	// The retired update-core (u8), chunk-size (i64) and sample-rate (f64)
	// slots are skipped, whatever an older build wrote there.
	d.take(1+8+8, "config retired slots")
	if version >= 3 {
		c.Sparsify = d.f64("config sparsify")
	}

	factors := make([]*mat.Dense, d.length("factor count", 16))
	for k := range factors {
		rows, cols := d.u64("factor rows"), d.u64("factor cols")
		if d.err == nil && (rows > maxModelSlice || cols > maxModelSlice || rows*cols > maxModelSlice) {
			d.fail("%w: factor %d shape %dx%d exceeds limit", ErrBadModelFormat, k, rows, cols)
		}
		if d.err != nil {
			break
		}
		d.pad("factor data")
		vals := d.floats(int(rows*cols), "factor data")
		if d.err != nil {
			break
		}
		factors[k] = mat.NewDenseData(int(rows), int(cols), vals)
	}

	// Core: flags (v3), dims, then the entry list — v4 indices as int64 in
	// one aligned block, earlier ones as uint32.
	var flags uint8
	if version >= 3 {
		flags = d.u8("core flags")
		if d.err == nil && flags&^coreFlagSorted != 0 {
			d.fail("%w: unknown core flags %#x", ErrBadModelFormat, flags)
		}
	}
	g := &CoreTensor{dims: d.ints("core dims")}
	order := len(g.dims)
	nnz := d.length("core nnz", 8)
	if d.err == nil && (order != len(factors) || nnz*order > maxModelSlice) {
		d.fail("%w: core order %d / nnz %d inconsistent with %d factors",
			ErrBadModelFormat, order, nnz, len(factors))
	}
	d.pad("core indices")
	g.idx = d.indices(nnz * order)
	g.val = d.floats(nnz, "core value")

	trace := make([]IterStats, d.length("trace length", 32))
	for i := range trace {
		trace[i] = IterStats{
			Iter:    int(d.i64("trace iter")),
			Error:   d.f64("trace error"),
			Elapsed: time.Duration(d.i64("trace elapsed")),
			CoreNNZ: int(d.i64("trace core nnz")),
		}
	}

	m := &Model{Factors: factors, Core: g, Config: c, Trace: trace}
	m.Converged = d.u8("summary converged") != 0
	m.TrainError = d.f64("summary train error")
	m.IntermediateBytes = d.i64("summary intermediate bytes")
	if version >= 2 {
		m.FinalCoreNNZ = int(d.i64("summary final core nnz"))
	}
	m.WorkPerThread = make([]int64, d.length("work-per-thread length", 8))
	for i := range m.WorkPerThread {
		m.WorkPerThread[i] = d.i64("work-per-thread")
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != d.lim {
		return nil, fmt.Errorf("%w: %d bytes between summary and checksum", ErrBadModelFormat, d.lim-d.off)
	}
	if version >= 4 {
		if want := binary.LittleEndian.Uint32(data[len(data)-footerSize:]); d.meta != want {
			return nil, fmt.Errorf("%w: metadata got %08x, want %08x", ErrModelChecksum, d.meta, want)
		}
	}
	if err := checkDecoded(factors, g, flags); err != nil {
		return nil, err
	}
	g.index()
	return m, nil
}

// checkDecoded is the structural check every decode runs once a stream's
// checksums pass, so a corrupt-but-checksummed (or crafted) file fails at
// load time instead of panicking inside a serve-path kernel: the model must
// have at least one mode, factor k must have exactly dims[k] columns, every
// core entry index must address a valid column, and a set sorted bit in
// flags must hold.
func checkDecoded(factors []*mat.Dense, g *CoreTensor, flags uint8) error {
	if len(factors) == 0 {
		return fmt.Errorf("%w: model has no modes", ErrBadModelFormat)
	}
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

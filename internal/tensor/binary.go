package tensor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary COO snapshot format. The text format of the published datasets is
// convenient for interchange but slow to load: Netflix-scale tensors are
// parsed line-by-line, field-by-field, on every start. The binary format
// stores the same coordinate data as fixed-width little-endian records —
// one u32 per coordinate, one IEEE-754 f64 bit pattern per value — so a
// loader moves whole blocks instead of parsing. The value block is 8-byte
// aligned within the stream.
//
// Layout (version 1, little-endian throughout):
//
//	offset 0   magic "PTKT" (4 bytes)
//	offset 4   version  u32
//	offset 8   order    u32   (number of modes N)
//	offset 12  flags    u32   (reserved, 0)
//	offset 16  nnz      u64
//	offset 24  dims     N × u64
//	...        indices  nnz × N × u32   (entry-major: all coordinates of
//	                                     entry e are contiguous)
//	...        padding  to the next multiple of 8 bytes
//	...        values   nnz × f64 (IEEE-754 bits)
//	...        crc32    u32   (IEEE CRC-32 of every preceding byte)
//
// Values round-trip bit-identically: a tensor written and re-read compares
// equal float64-for-float64. The trailing CRC-32 catches truncation and
// corruption at load time.

// BinaryMagic is the 4-byte signature that opens a binary tensor snapshot.
const BinaryMagic = "PTKT"

const binaryVersion = 1

// maxBinarySlice bounds every length read from a binary tensor stream so a
// corrupted or hostile file cannot trigger a huge allocation before the
// checksum is verified.
const maxBinarySlice = 1 << 31

// Errors returned by the binary tensor reader.
var (
	// ErrBadTensorFormat reports a stream that is not a binary tensor
	// snapshot or is structurally inconsistent.
	ErrBadTensorFormat = errors.New("tensor: not a valid binary tensor snapshot")
	// ErrTensorVersion reports a snapshot written by an incompatible format
	// version.
	ErrTensorVersion = errors.New("tensor: unsupported binary tensor version")
	// ErrTensorChecksum reports a snapshot whose CRC-32 does not match its
	// contents (truncation or corruption).
	ErrTensorChecksum = errors.New("tensor: binary tensor corrupted (checksum mismatch)")
)

// Format identifies the on-disk encoding of a tensor file.
type Format int

const (
	// FormatUnknown is returned for streams that match no known encoding
	// signature; in practice that means the text format, whose lines carry
	// no magic (any printable content is assumed to be text).
	FormatUnknown Format = iota
	// FormatText is the published-dataset text format: one entry per line,
	// 1-based indices then the value.
	FormatText
	// FormatBinary is the fixed-width binary snapshot format written by
	// WriteBinary (and store.WriteTensor).
	FormatBinary
)

func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return "unknown"
	}
}

// DetectFormat sniffs the encoding of the tensor stream on r without
// consuming it (the reader is peeked, not read). Binary snapshots are
// recognized by their magic; anything else is reported as text, which is the
// magic-free line format.
func DetectFormat(r *bufio.Reader) (Format, error) {
	head, err := r.Peek(len(BinaryMagic))
	if err != nil {
		if errors.Is(err, io.EOF) {
			// Shorter than the magic: an empty or tiny stream can only be
			// (degenerate) text.
			return FormatText, nil
		}
		return FormatUnknown, err
	}
	if string(head) == BinaryMagic {
		return FormatBinary, nil
	}
	return FormatText, nil
}

// DetectFormatFile reports the encoding of the named tensor file.
func DetectFormatFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return FormatUnknown, err
	}
	defer f.Close()
	return DetectFormat(bufio.NewReader(f))
}

// WriteBinary streams t to w in the binary snapshot format. Mode dimensions
// and coordinates must fit in 32 bits.
func WriteBinary(w io.Writer, t *Coord) error {
	n := t.Order()
	nnz := t.NNZ()
	for k, d := range t.dims {
		if d > math.MaxUint32 {
			return fmt.Errorf("tensor: mode %d dimension %d exceeds the binary format's 32-bit coordinates", k, d)
		}
	}

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)

	var head [24]byte
	copy(head[0:4], BinaryMagic)
	binary.LittleEndian.PutUint32(head[4:8], binaryVersion)
	binary.LittleEndian.PutUint32(head[8:12], uint32(n))
	binary.LittleEndian.PutUint32(head[12:16], 0)
	binary.LittleEndian.PutUint64(head[16:24], uint64(nnz))
	if _, err := bw.Write(head[:]); err != nil {
		return err
	}
	var u64 [8]byte
	for _, d := range t.dims {
		binary.LittleEndian.PutUint64(u64[:], uint64(d))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}

	var u32 [4]byte
	for _, i := range t.indices {
		binary.LittleEndian.PutUint32(u32[:], uint32(i))
		if _, err := bw.Write(u32[:]); err != nil {
			return err
		}
	}
	indexBytes := 4 * len(t.indices)
	if pad := (8 - (24+8*n+indexBytes)%8) % 8; pad > 0 {
		if _, err := bw.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	for _, v := range t.values {
		binary.LittleEndian.PutUint64(u64[:], math.Float64bits(v))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailing checksum over everything above, written outside the CRC.
	binary.LittleEndian.PutUint32(u32[:], crc.Sum32())
	_, err := w.Write(u32[:])
	return err
}

// ReadBinary decodes a binary tensor snapshot from r. order and dims mirror
// Read's contract: pass order 0 to adopt the stream's order (non-zero values
// must match it), and nil dims to adopt the stream's dimensions (non-nil
// values must match them exactly — a snapshot declares its own shape, it is
// never re-inferred from the data).
func ReadBinary(r io.Reader, order int, dims []int) (*Coord, error) {
	crc := crc32.NewIEEE()
	cr := io.TeeReader(r, crc)

	var head [24]byte
	if _, err := io.ReadFull(cr, head[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadTensorFormat, err)
	}
	if string(head[0:4]) != BinaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTensorFormat, head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != binaryVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrTensorVersion, v, binaryVersion)
	}
	n := int(binary.LittleEndian.Uint32(head[8:12]))
	if n <= 0 || n > 255 {
		return nil, fmt.Errorf("%w: order %d out of range", ErrBadTensorFormat, n)
	}
	if order != 0 && order != n {
		return nil, fmt.Errorf("%w: snapshot has order %d, caller wants %d", ErrBadTensorFormat, n, order)
	}
	nnz := binary.LittleEndian.Uint64(head[16:24])
	if nnz > maxBinarySlice/uint64(n) {
		return nil, fmt.Errorf("%w: nnz %d exceeds limit", ErrBadTensorFormat, nnz)
	}

	dimBuf := make([]byte, 8*n)
	if _, err := io.ReadFull(cr, dimBuf); err != nil {
		return nil, fmt.Errorf("%w: truncated dims: %v", ErrBadTensorFormat, err)
	}
	fileDims := make([]int, n)
	for k := range fileDims {
		d := binary.LittleEndian.Uint64(dimBuf[8*k:])
		if d == 0 || d > math.MaxUint32 {
			return nil, fmt.Errorf("%w: mode %d dimension %d out of range", ErrBadTensorFormat, k, d)
		}
		fileDims[k] = int(d)
	}
	if dims != nil {
		if len(dims) != n {
			return nil, fmt.Errorf("tensor: dims length %d does not match order %d", len(dims), n)
		}
		for k := range dims {
			if dims[k] != fileDims[k] {
				return nil, fmt.Errorf("%w: mode %d has dimension %d in the snapshot, caller wants %d",
					ErrDimension, k, fileDims[k], dims[k])
			}
		}
	}

	// The index and value blocks are decoded in bounded chunks, growing the
	// result slices only as data actually arrives: a corrupt or hostile nnz
	// in the header cannot force a giant up-front allocation — a truncated
	// stream fails with a small footprint before the checksum is reached.
	const chunk = 1 << 16
	buf := make([]byte, chunk)

	idxCount := int(nnz) * n
	indices := make([]int, 0, min(idxCount, chunk))
	for got := 0; got < idxCount; {
		c := min(idxCount-got, chunk/4)
		if _, err := io.ReadFull(cr, buf[:4*c]); err != nil {
			return nil, fmt.Errorf("%w: truncated index block: %v", ErrBadTensorFormat, err)
		}
		for i := 0; i < c; i++ {
			indices = append(indices, int(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		got += c
	}
	if pad := (8 - (24+8*n+4*idxCount)%8) % 8; pad > 0 {
		if _, err := io.CopyN(io.Discard, cr, int64(pad)); err != nil {
			return nil, fmt.Errorf("%w: truncated padding: %v", ErrBadTensorFormat, err)
		}
	}
	values := make([]float64, 0, min(int(nnz), chunk))
	for got := 0; got < int(nnz); {
		c := min(int(nnz)-got, chunk/8)
		if _, err := io.ReadFull(cr, buf[:8*c]); err != nil {
			return nil, fmt.Errorf("%w: truncated value block: %v", ErrBadTensorFormat, err)
		}
		for i := 0; i < c; i++ {
			values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
		got += c
	}

	sum := crc.Sum32() // everything decoded so far; the trailer is outside the CRC
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadTensorFormat, err)
	}
	if want := binary.LittleEndian.Uint32(tail[:]); want != sum {
		return nil, fmt.Errorf("%w: got %08x, want %08x", ErrTensorChecksum, sum, want)
	}
	if err := checkFinite(values); err != nil {
		return nil, err
	}

	for e := 0; e < int(nnz); e++ {
		for k := 0; k < n; k++ {
			if i := indices[e*n+k]; i >= fileDims[k] {
				return nil, fmt.Errorf("%w: entry %d mode %d index %d exceeds dimension %d",
					ErrDimension, e, k, i, fileDims[k])
			}
		}
	}

	t := NewCoord(fileDims)
	t.indices = indices
	t.values = values
	return t, nil
}

// checkFinite rejects a snapshot value block holding NaN or ±Inf, naming the
// first such entry.
func checkFinite(values []float64) error {
	for e, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: entry %d: %w: %v", ErrBadTensorFormat, e, ErrNonFinite, v)
		}
	}
	return nil
}

// WriteBinaryFile writes t to the named file in the binary snapshot format.
// For a crash-safe write (temp file, fsync, rename) use store.WriteTensor.
func WriteBinaryFile(path string, t *Coord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

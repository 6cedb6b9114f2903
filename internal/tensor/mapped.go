package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// CoordFromMapping decodes a binary COO snapshot held entirely in data
// (typically an mmap of a .ptkt file), serving the 8-byte-aligned value
// block in place: the returned tensor's Values() alias data. The u32 index
// block is widened onto the heap — coordinates must become []int either
// way — so open cost is O(nnz·N) for indices plus a CRC pass, but carries
// no copy of the value payload. data must be 8-byte aligned (mmap always
// is) and must outlive every use of the tensor, which is read-only.
func CoordFromMapping(data []byte) (*Coord, error) {
	if len(data) < 24+4 {
		return nil, fmt.Errorf("%w: %d bytes is too short for a snapshot", ErrBadTensorFormat, len(data))
	}
	if uintptr(unsafe.Pointer(&data[0]))&7 != 0 {
		return nil, fmt.Errorf("%w: base address not 8-byte aligned", ErrBadTensorFormat)
	}
	if string(data[0:4]) != BinaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTensorFormat, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != binaryVersion {
		return nil, fmt.Errorf("%w: got v%d, want v%d", ErrTensorVersion, v, binaryVersion)
	}
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if n <= 0 || n > 255 {
		return nil, fmt.Errorf("%w: order %d out of range", ErrBadTensorFormat, n)
	}
	nnz64 := binary.LittleEndian.Uint64(data[16:24])
	if nnz64 > maxBinarySlice/uint64(n) {
		return nil, fmt.Errorf("%w: nnz %d exceeds limit", ErrBadTensorFormat, nnz64)
	}
	nnz := int(nnz64)

	// Fixed-width layout: every offset is computable from the header alone;
	// one bounds check covers the whole stream.
	dimOff := 24
	idxOff := dimOff + 8*n
	padOff := idxOff + 4*nnz*n
	valOff := padOff + (8-padOff%8)%8
	crcOff := valOff + 8*nnz
	if crcOff+4 != len(data) {
		return nil, fmt.Errorf("%w: %d-byte stream does not match header (want %d)",
			ErrBadTensorFormat, len(data), crcOff+4)
	}
	sum := crc32.ChecksumIEEE(data[:crcOff])
	if want := binary.LittleEndian.Uint32(data[crcOff:]); want != sum {
		return nil, fmt.Errorf("%w: got %08x, want %08x", ErrTensorChecksum, sum, want)
	}
	for _, z := range data[padOff:valOff] {
		if z != 0 {
			return nil, fmt.Errorf("%w: nonzero padding before value block", ErrBadTensorFormat)
		}
	}

	dims := make([]int, n)
	for k := range dims {
		d := binary.LittleEndian.Uint64(data[dimOff+8*k:])
		if d == 0 || d > math.MaxUint32 {
			return nil, fmt.Errorf("%w: mode %d dimension %d out of range", ErrBadTensorFormat, k, d)
		}
		dims[k] = int(d)
	}
	indices := make([]int, nnz*n)
	for i := range indices {
		indices[i] = int(binary.LittleEndian.Uint32(data[idxOff+4*i:]))
	}
	var values []float64
	if nnz == 0 {
		values = []float64{}
	} else {
		values = unsafe.Slice((*float64)(unsafe.Pointer(&data[valOff])), nnz)
	}
	if err := checkFinite(values); err != nil {
		return nil, err
	}
	return NewCoordData(dims, indices, values)
}

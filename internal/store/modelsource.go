package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Zero-copy model opening. A ModelSource hands the serving layer a decoded
// *core.Model plus the knowledge of where its arrays live: on the heap (the
// classic loader) or aliasing a read-only file mapping (MmapModel). Mapped
// models cost O(metadata) to open and no resident heap proportional to
// their size — a cold model is address space, not RSS — which is what lets
// one process host many models (serve.Registry). The serving layer never
// mutates a served model in place (online learning resumes on clones), so a
// PROT_READ mapping is safe to serve from; the source must stay open for as
// long as any snapshot built from its model can be referenced.

// ErrMmapUnsupported reports a platform without read-only file mapping;
// callers fall back to the heap loader.
var ErrMmapUnsupported = errors.New("store: mmap is not supported on this platform")

// ModelSource is an open model plus the lifetime of its backing storage.
type ModelSource interface {
	// Model returns the decoded model. Mapped sources' models must be
	// treated as read-only and must not outlive Close.
	Model() *core.Model
	// Path returns the file the model came from ("" for in-memory models).
	Path() string
	// Mapped reports whether the model aliases a file mapping.
	Mapped() bool
	// MappedBytes returns the size of the backing mapping (0 when heap).
	MappedBytes() int64
	// Close releases the backing storage. Closing a mapped source
	// invalidates every slice of its model; the caller guarantees no
	// request can still reach it.
	Close() error
}

type heapSource struct {
	m    *core.Model
	path string
}

func (s *heapSource) Model() *core.Model { return s.m }
func (s *heapSource) Path() string       { return s.path }
func (s *heapSource) Mapped() bool       { return false }
func (s *heapSource) MappedBytes() int64 { return 0 }
func (s *heapSource) Close() error       { return nil }

// HeapModel wraps an already-decoded model as a ModelSource.
func HeapModel(m *core.Model, path string) ModelSource {
	return &heapSource{m: m, path: path}
}

type mappedSource struct {
	m      *core.Model
	path   string
	data   []byte
	closed atomic.Bool
}

func (s *mappedSource) Model() *core.Model { return s.m }
func (s *mappedSource) Path() string       { return s.path }
func (s *mappedSource) Mapped() bool       { return true }
func (s *mappedSource) MappedBytes() int64 {
	if s.closed.Load() {
		return 0
	}
	return int64(len(s.data))
}

func (s *mappedSource) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return unmapFile(s.data)
}

// MmapModel maps the named model file read-only and decodes it in place
// (core.ModelFromMapping): factor rows and core entries alias the mapping.
// It fails with ErrMmapUnsupported / core.ErrNotMappable where in-place
// serving cannot work — OpenModel turns those into a heap fallback — and
// with the core format errors for files no loader should trust.
func MmapModel(path string) (ModelSource, error) {
	data, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	m, err := core.ModelFromMapping(data)
	if err != nil {
		unmapErr := unmapFile(data)
		return nil, errors.Join(fmt.Errorf("store: mmap model %s: %w", path, err), unmapErr)
	}
	return &mappedSource{m: m, path: path, data: data}, nil
}

// OpenModel opens the named model file, preferring the zero-copy mapped
// decoder when preferMmap is set and falling back to the heap loader when
// the platform or the file's format version (pre-v4) cannot support
// in-place serving. Verdicts about the file's integrity (bad format, bad
// checksum, unsupported version) do not fall back: a file the mapped
// decoder proved corrupt must not be retried by the heap decoder.
func OpenModel(path string, preferMmap bool) (ModelSource, error) {
	if preferMmap && mmapSupported {
		src, err := MmapModel(path)
		if err == nil {
			return src, nil
		}
		if errors.Is(err, core.ErrBadModelFormat) ||
			errors.Is(err, core.ErrModelChecksum) ||
			errors.Is(err, core.ErrModelVersion) {
			return nil, err
		}
		// Not mappable here (old format, platform): heap-load it.
	}
	m, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	return &heapSource{m: m, path: path}, nil
}

// TensorSource is an open tensor whose value block may alias a read-only
// file mapping (see MmapTensor).
type TensorSource struct {
	t      *tensor.Coord
	path   string
	data   []byte
	closed atomic.Bool
}

// Tensor returns the decoded tensor; read-only, must not outlive Close.
func (s *TensorSource) Tensor() *tensor.Coord { return s.t }

// MappedBytes returns the size of the backing mapping (0 when heap-backed
// or closed).
func (s *TensorSource) MappedBytes() int64 {
	if s.data == nil || s.closed.Load() {
		return 0
	}
	return int64(len(s.data))
}

// Close releases the mapping, if any.
func (s *TensorSource) Close() error {
	if !s.closed.CompareAndSwap(false, true) || s.data == nil {
		return nil
	}
	return unmapFile(s.data)
}

// MmapTensor maps a binary COO tensor snapshot (.ptkt) and serves its
// 8-byte-aligned value block in place: the returned tensor's Values() alias
// the mapping. Unlike the model opener this verifies the full CRC at open
// (tensor snapshots carry no metadata-only checksum) and widens the u32
// index block onto the heap — the win is the value block, which is the
// format's dominant aligned payload. Only binary snapshots qualify; text
// tensors and unsupported platforms return an error and callers fall back
// to tensor.ReadFile.
func MmapTensor(path string) (*TensorSource, error) {
	data, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	t, err := tensor.CoordFromMapping(data)
	if err != nil {
		unmapErr := unmapFile(data)
		return nil, errors.Join(fmt.Errorf("store: mmap tensor %s: %w", path, err), unmapErr)
	}
	return &TensorSource{t: t, path: path, data: data}, nil
}

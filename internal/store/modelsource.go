package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
)

// Zero-copy model opening. A ModelSource hands the serving layer a decoded
// *core.Model plus the knowledge of where its arrays live: on the heap, or
// aliasing a read-only file mapping. Mapped models cost O(metadata) to open
// and no resident heap proportional to their size — a cold model is address
// space, not RSS — which is what lets one process host many models
// (serve.Registry). The serving layer never mutates a served model in place
// (online learning resumes on clones), so a PROT_READ mapping is safe to
// serve from; the source must stay open for as long as any snapshot built
// from its model can be referenced.

// ErrMmapUnsupported reports a platform without read-only file mapping;
// callers fall back to the heap loader.
var ErrMmapUnsupported = errors.New("store: mmap is not supported on this platform")

// ModelSource is an open model plus the lifetime of its backing storage: a
// read-only file mapping, or none when the model lives on the heap.
type ModelSource struct {
	m      *core.Model
	data   []byte // the mapping; nil for a heap-loaded model
	closed atomic.Bool
}

// Model returns the decoded model. A mapped source's model must be treated
// as read-only and must not outlive Close.
func (s *ModelSource) Model() *core.Model { return s.m }

// Mapped reports whether the model aliases a file mapping.
func (s *ModelSource) Mapped() bool { return s.data != nil }

// MappedBytes returns the size of the backing mapping (0 when heap-loaded
// or closed).
func (s *ModelSource) MappedBytes() int64 {
	if s.data == nil || s.closed.Load() {
		return 0
	}
	return int64(len(s.data))
}

// Close releases the mapping, if any; it is idempotent. Closing a mapped
// source invalidates every slice of its model; the caller guarantees no
// request can still reach it.
func (s *ModelSource) Close() error {
	if s.data == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return unmapFile(s.data)
}

// OpenModel opens the named model file. With preferMmap it maps the file
// read-only and decodes it in place (core.ModelFromMapping): factor rows and
// core entries alias the mapping. It falls back to the heap loader
// (core.LoadModel) where in-place serving cannot work — no mmap on this
// platform, a pre-v4 stream, a big-endian host (core.ErrNotMappable).
// Verdicts about the file's integrity (bad format, bad checksum, unsupported
// version) do not fall back: a file the mapped decoder proved corrupt must
// not be retried by the heap decoder.
func OpenModel(path string, preferMmap bool) (*ModelSource, error) {
	if preferMmap && mmapSupported {
		if data, err := mapFile(path); err == nil {
			m, err := core.ModelFromMapping(data)
			if err == nil {
				return &ModelSource{m: m, data: data}, nil
			}
			unmapErr := unmapFile(data)
			if !errors.Is(err, core.ErrNotMappable) {
				return nil, errors.Join(fmt.Errorf("store: mmap model %s: %w", path, err), unmapErr)
			}
		}
	}
	m, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	return &ModelSource{m: m}, nil
}

// Package store is the durability subsystem: binary tensor snapshots and an
// append-only observation journal, the two artifacts that let a served
// P-Tucker process survive a crash without losing its online learning.
//
// Snapshots (WriteTensor / ReadTensor) persist a sparse tensor in the
// fixed-width binary format of tensor.WriteBinary — roughly an order of
// magnitude faster to load than the text loader, CRC-checked, and written
// crash-safely (temp file, fsync, rename). They store the accumulated
// training set so a restarted process can warm-refit over the true union of
// everything it ever observed, not just what arrived since the restart.
//
// The journal (Journal) records every observation batch accepted by the
// serving layer before it is applied, with a per-record CRC and a strictly
// increasing sequence number. After a crash, replaying the journal over the
// last snapshot reconstructs the fitter's state deterministically —
// observation application (append, fold-in) draws no randomness, so the
// replayed factors are bit-identical to the pre-crash ones. A torn final
// record (the crash happened mid-write) is detected by its CRC and dropped;
// everything before it replays. Compact folds a journal into a fresh
// snapshot and truncates it, bounding replay time.
//
// Dir ties the two together as a data directory with well-known file names;
// it implements core.TrainingStore, so a Fitter can attach the persisted
// training set directly (Fitter.AttachStore).
//
// OpenModel opens a saved model for serving: in place out of a read-only
// file mapping where the file and host allow it, on the heap otherwise. The
// ModelSource it returns owns the mapping's lifetime.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// Dir is a handle on a data directory holding the durable state of one
// served model: the base model snapshot, the training-tensor snapshot, and
// the observation journal, under fixed file names.
type Dir struct {
	path string
}

// Well-known file names inside a data directory.
const (
	// ModelFile is the persisted base model (written at compaction; the
	// serving layer prefers it over its -model flag when present).
	ModelFile = "model.ptkm"
	// TensorFile is the binary snapshot of the accumulated training set.
	TensorFile = "training.ptkt"
	// JournalFile is the append-only observation journal.
	JournalFile = "observations.ptkj"
	// EpochFile holds the primary's replication epoch counter, bumped at
	// every startup so followers can detect a restarted primary.
	EpochFile = "epoch"
	// FollowerFile holds a follower's record of the primary identity
	// (epoch + generation) its local state was bootstrapped from.
	FollowerFile = "follower.json"
)

// OpenDir opens (creating if necessary) the data directory at path.
func OpenDir(path string) (*Dir, error) {
	if path == "" {
		return nil, fmt.Errorf("store: empty data directory path")
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: open data dir: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// ModelPath returns the base-model file path inside the directory.
func (d *Dir) ModelPath() string { return filepath.Join(d.path, ModelFile) }

// TensorPath returns the training-snapshot file path inside the directory.
func (d *Dir) TensorPath() string { return filepath.Join(d.path, TensorFile) }

// JournalPath returns the journal file path inside the directory.
func (d *Dir) JournalPath() string { return filepath.Join(d.path, JournalFile) }

// HasModel reports whether a base model has been persisted into the
// directory (by a compaction or a reload re-base).
func (d *Dir) HasModel() bool {
	_, err := os.Stat(d.ModelPath())
	return err == nil
}

// TrainingSnapshot loads the persisted training snapshot and the journal
// sequence it covers, or (nil, 0, nil) when none has been written yet.
func (d *Dir) TrainingSnapshot() (*tensor.Coord, uint64, error) {
	x, seq, err := ReadSnapshot(d.TensorPath())
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	return x, seq, err
}

// TrainingTensor loads the persisted training snapshot's tensor, or returns
// (nil, nil) when none has been written yet. It implements
// core.TrainingStore, so a Fitter can attach it directly:
//
//	f, _ := core.ResumeFitter(model, cfg)
//	_ = f.AttachStore(dir)
func (d *Dir) TrainingTensor() (*tensor.Coord, error) {
	x, _, err := d.TrainingSnapshot()
	return x, err
}

// RemoveTrainingTensor deletes the training snapshot if present (a reload
// re-base: the new model's provenance carries no training set).
func (d *Dir) RemoveTrainingTensor() error {
	if err := os.Remove(d.TensorPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// NextEpoch reads the persisted replication epoch, increments it, persists
// the new value, and returns it. A primary calls it once at startup: any
// restart — even one that lost journal-tail records under a relaxed sync
// policy — lands on a new epoch, which forces followers to re-bootstrap
// rather than silently diverge.
func (d *Dir) NextEpoch() (uint64, error) {
	path := filepath.Join(d.path, EpochFile)
	var epoch uint64
	if b, err := os.ReadFile(path); err == nil {
		v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if perr != nil {
			return 0, fmt.Errorf("store: epoch file %s: %w", path, perr)
		}
		epoch = v
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("store: epoch file: %w", err)
	}
	epoch++
	if _, err := writeAtomic(path, false, func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%d\n", epoch)
		return err
	}); err != nil {
		return 0, fmt.Errorf("store: write epoch: %w", err)
	}
	return epoch, nil
}

// FollowerState records which primary identity a follower's local state
// (model + journal) was derived from. On restart the follower compares it
// against the live primary: a mismatch means the local state is from a
// different history and must be discarded by re-bootstrapping.
type FollowerState struct {
	Epoch uint64 `json:"epoch"`
	Gen   uint64 `json:"gen"`
}

// SaveFollowerState atomically persists the follower's primary-identity
// record.
func (d *Dir) SaveFollowerState(st FollowerState) error {
	b, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("store: encode follower state: %w", err)
	}
	if _, err := writeAtomic(filepath.Join(d.path, FollowerFile), false, func(f *os.File) error {
		_, err := f.Write(append(b, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("store: write follower state: %w", err)
	}
	return nil
}

// LoadFollowerState reads the persisted primary-identity record; ok is false
// when none has been written (a fresh follower data dir).
func (d *Dir) LoadFollowerState() (st FollowerState, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(d.path, FollowerFile))
	if os.IsNotExist(err) {
		return FollowerState{}, false, nil
	}
	if err != nil {
		return FollowerState{}, false, fmt.Errorf("store: read follower state: %w", err)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return FollowerState{}, false, fmt.Errorf("store: decode follower state: %w", err)
	}
	return st, true, nil
}

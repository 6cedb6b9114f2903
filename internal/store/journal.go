package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// The journal is an append-only log of observation batches. Each record is
// framed with its own length and CRC-32, so a crash mid-write leaves a torn
// tail that open-time recovery detects and truncates — every record before
// it is intact and replays. Records carry a strictly increasing sequence
// number, which pins the replay order and catches missing or reordered
// records. Sequence numbers are monotone across the journal's whole life,
// including compactions: Reset rotates to an empty file whose header records
// the base sequence, so a record's number is never reused. That is what lets
// a training snapshot name the records it subsumes (its covered sequence) —
// replay after a crash skips everything at or below it, and a crash landing
// between "snapshot renamed" and "journal rotated" cannot double-apply.
//
// Layout (version 1, little-endian):
//
//	header  magic "PTKJ" | version u32 | order u32 | reserved u32 |
//	        baseSeq u64                                           (24 bytes)
//	record  payloadLen u32 | crc32(payload) u32 | payload
//	payload seq u64 | count u32 | count × (order × u32 index, f64 value bits)

// JournalMagic is the 4-byte signature that opens a journal file.
const JournalMagic = "PTKJ"

const (
	journalVersion    = 1
	journalHeaderSize = 24
	// maxJournalRecord bounds one record's payload so a corrupt length
	// prefix cannot trigger a huge allocation.
	maxJournalRecord = 1 << 28
)

// Errors returned by the journal.
var (
	// ErrBadJournal reports a journal file that is not a journal or whose
	// header is inconsistent with the caller's expectations.
	ErrBadJournal = errors.New("store: not a valid observation journal")
	// ErrJournalClosed reports an operation on a closed journal.
	ErrJournalClosed = errors.New("store: journal is closed")
)

// SyncMode selects when appended records are fsynced to disk.
type SyncMode int

const (
	// SyncBatch groups commits: appends return as soon as the record is
	// written to the OS, and a background flusher fsyncs at most every
	// SyncPolicy.Interval. A crash can lose at most the last interval's
	// records — the usual journal trade (group commit).
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs every append before it returns: no accepted
	// observation is ever lost, at one disk flush per request.
	SyncAlways
	// SyncNone never fsyncs (tests, throwaway runs): the OS flushes on its
	// own schedule, and a crash loses whatever was still in the page cache.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// SyncPolicy is a SyncMode plus the batching interval used by SyncBatch.
type SyncPolicy struct {
	Mode SyncMode
	// Interval is the maximum time an appended record waits for its fsync
	// under SyncBatch; 0 means DefaultSyncInterval.
	Interval time.Duration
}

// DefaultSyncInterval is the SyncBatch flush cadence when none is given.
const DefaultSyncInterval = 100 * time.Millisecond

// ParseSyncPolicy reads a -journal-sync flag value: "always", "none",
// "batch" (the default interval), or a duration like "250ms" (batch with
// that interval).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch":
		return SyncPolicy{Mode: SyncBatch}, nil
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "none":
		return SyncPolicy{Mode: SyncNone}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return SyncPolicy{}, fmt.Errorf("store: bad sync policy %q (want always, none, batch, or a positive duration)", s)
	}
	return SyncPolicy{Mode: SyncBatch, Interval: d}, nil
}

// Record is one replayed journal entry: a batch of observations exactly as
// the serving layer accepted it.
type Record struct {
	Seq          uint64
	Observations []core.Observation
}

// Journal is an append-only observation log. It is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	order   int
	off     int64 // end of the last intact record; appends go here
	baseSeq uint64
	lastSeq uint64
	count   int
	policy  SyncPolicy
	dirty   bool
	syncErr error // a failed background fsync poisons the journal
	closed  bool

	// observeSync, when set, receives the wall-clock duration of each
	// successful fsync — every path flushes through it (SyncAlways appends,
	// the SyncBatch flusher, explicit Syncs), so the owner sees the full
	// fsync latency distribution. Invoked under mu; keep it cheap.
	observeSync func(time.Duration)

	stop chan struct{}
	done chan struct{}

	// Recovered reports how many trailing bytes open-time recovery dropped
	// as a torn record (0 for a clean file).
	Recovered int64
}

// CreateJournal atomically replaces any file at path with a fresh, empty
// journal whose sequence numbers start after baseSeq, and opens it. A
// replication follower uses it to begin a local journal at the primary's
// covered sequence, so records it tails from the primary keep their primary
// sequence numbers when appended locally.
func CreateJournal(path string, order int, baseSeq uint64, policy SyncPolicy) (*Journal, error) {
	if order <= 0 || order > 255 {
		return nil, fmt.Errorf("store: journal order %d out of range", order)
	}
	if _, err := writeAtomic(path, false, func(f *os.File) error {
		_, err := f.Write(journalHeader(order, baseSeq))
		return err
	}); err != nil {
		return nil, fmt.Errorf("store: create journal: %w", err)
	}
	return OpenJournal(path, order, policy)
}

// OpenJournal opens (creating if necessary) the journal at path for a tensor
// of the given order. Existing records are scanned: the open validates the
// header, finds the end of the last intact record, and truncates a torn tail
// left by a crash. Appends continue the surviving sequence. A record whose
// checksum holds but which carries a NaN or ±Inf value fails the open and
// leaves the file untouched.
func OpenJournal(path string, order int, policy SyncPolicy) (*Journal, error) {
	if order <= 0 || order > 255 {
		return nil, fmt.Errorf("store: journal order %d out of range", order)
	}
	if policy.Interval <= 0 {
		policy.Interval = DefaultSyncInterval
	}
	//ptlint:ignore atomicwrite the journal is an append-only log opened in place by design: torn tails are CRC-framed and truncated right here in recover(), and rotation goes through writeAtomic
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j := &Journal{f: f, path: path, order: order, policy: policy}
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if policy.Mode == SyncBatch {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.flusher()
	}
	return j, nil
}

// recover validates the header (writing a fresh one into an empty file) and
// scans records to find the intact end of the log.
func (j *Journal) recover() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("store: open journal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := j.f.WriteAt(journalHeader(j.order, 0), 0); err != nil {
			return fmt.Errorf("store: init journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: init journal: %w", err)
		}
		j.off = journalHeaderSize
		return nil
	}

	var head [journalHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(j.f, 0, st.Size()), head[:]); err != nil {
		return fmt.Errorf("%w: truncated header", ErrBadJournal)
	}
	if string(head[0:4]) != JournalMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadJournal, head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != journalVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadJournal, v, journalVersion)
	}
	if o := int(binary.LittleEndian.Uint32(head[8:12])); o != j.order {
		return fmt.Errorf("%w: journal order %d, tensor order %d", ErrBadJournal, o, j.order)
	}
	j.baseSeq = binary.LittleEndian.Uint64(head[16:24])
	j.lastSeq = j.baseSeq

	off := int64(journalHeaderSize)
	for off < st.Size() {
		rec, next, err := readRecord(j.f, off, st.Size(), j.order)
		if errors.Is(err, tensor.ErrNonFinite) {
			// The record's checksum held, so this is no torn tail: truncating
			// would silently drop it and every record after it.
			return err
		}
		if err != nil {
			// Torn or corrupt tail: everything before off is intact. Truncate
			// so the next append does not bury garbage mid-log.
			j.Recovered = st.Size() - off
			if terr := j.f.Truncate(off); terr != nil {
				return fmt.Errorf("store: truncate torn journal tail: %w", terr)
			}
			break
		}
		if rec.Seq != j.lastSeq+1 {
			return fmt.Errorf("%w: record sequence %d after %d", ErrBadJournal, rec.Seq, j.lastSeq)
		}
		j.lastSeq = rec.Seq
		j.count++
		off = next
	}
	j.off = off
	return nil
}

// readRecord decodes the record at off, returning it and the next offset.
// Any truncation or checksum failure is an error (the caller treats it as
// the torn tail). A record whose checksum holds but which carries a NaN or
// ±Inf value fails with an error wrapping both ErrBadJournal and
// tensor.ErrNonFinite: it is corrupt content, not a torn write.
func readRecord(f io.ReaderAt, off, size int64, order int) (Record, int64, error) {
	var frame [8]byte
	if off+8 > size {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	if _, err := f.ReadAt(frame[:], off); err != nil {
		return Record{}, 0, err
	}
	plen := int64(binary.LittleEndian.Uint32(frame[0:4]))
	want := binary.LittleEndian.Uint32(frame[4:8])
	if plen < 12 || plen > maxJournalRecord || off+8+plen > size {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	payload := make([]byte, plen)
	if _, err := f.ReadAt(payload, off+8); err != nil {
		return Record{}, 0, err
	}
	if crc32.ChecksumIEEE(payload) != want {
		return Record{}, 0, fmt.Errorf("%w: record checksum mismatch at offset %d", ErrBadJournal, off)
	}

	seq := binary.LittleEndian.Uint64(payload[0:8])
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	obsSize := int64(4*order + 8)
	if int64(count)*obsSize != plen-12 {
		return Record{}, 0, fmt.Errorf("%w: record at %d declares %d observations in %d bytes", ErrBadJournal, off, count, plen)
	}
	obs := make([]core.Observation, count)
	p := payload[12:]
	for i := range obs {
		idx := make([]int, order)
		for k := range idx {
			idx[k] = int(binary.LittleEndian.Uint32(p))
			p = p[4:]
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Record{}, 0, fmt.Errorf("%w: record %d at offset %d observation %d: %w: %v",
				ErrBadJournal, seq, off, i, tensor.ErrNonFinite, v)
		}
		obs[i] = core.Observation{Index: idx, Value: v}
		p = p[8:]
	}
	return Record{Seq: seq, Observations: obs}, off + 8 + plen, nil
}

// Append writes one observation batch as a single record and returns its
// sequence number. Under SyncAlways the record is on disk when Append
// returns; under SyncBatch it is on disk within the policy interval. Every
// observation must have the journal's order, non-negative coordinates that
// fit the format's 32-bit indices, and a finite value.
func (j *Journal) Append(obs []core.Observation) (uint64, error) {
	if len(obs) == 0 {
		return 0, fmt.Errorf("store: empty observation batch")
	}
	for i, o := range obs {
		if len(o.Index) != j.order {
			return 0, fmt.Errorf("store: observation %d has %d modes, journal has %d", i, len(o.Index), j.order)
		}
		for k, c := range o.Index {
			if c < 0 || int64(c) > math.MaxUint32 {
				return 0, fmt.Errorf("store: observation %d index %d out of range in mode %d", i, c, k)
			}
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return 0, fmt.Errorf("store: observation %d value %v: %w", i, o.Value, tensor.ErrNonFinite)
		}
	}
	// A record the reader would refuse must never be written: recovery treats
	// an over-limit length prefix as a torn tail and would silently truncate
	// this record and everything after it.
	if plen := 12 + len(obs)*(4*j.order+8); plen > maxJournalRecord {
		return 0, fmt.Errorf("store: observation batch encodes to %d bytes, exceeding the %d-byte record limit — split it",
			plen, maxJournalRecord)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrJournalClosed
	}
	if j.syncErr != nil {
		return 0, j.syncErr
	}

	seq := j.lastSeq + 1
	plen := 12 + len(obs)*(4*j.order+8)
	buf := make([]byte, 8+plen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(plen))
	payload := buf[8:]
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(obs)))
	p := payload[12:]
	for _, o := range obs {
		for _, c := range o.Index {
			binary.LittleEndian.PutUint32(p, uint32(c))
			p = p[4:]
		}
		binary.LittleEndian.PutUint64(p, math.Float64bits(o.Value))
		p = p[8:]
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))

	if _, err := j.f.WriteAt(buf, j.off); err != nil {
		return 0, fmt.Errorf("store: journal append: %w", err)
	}
	j.off += int64(len(buf))
	j.lastSeq = seq
	j.count++

	switch j.policy.Mode {
	case SyncAlways:
		t0 := time.Now()
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("store: journal fsync: %w", err)
		}
		if j.observeSync != nil {
			j.observeSync(time.Since(t0))
		}
	case SyncBatch:
		j.dirty = true
	}
	return seq, nil
}

// ObserveSync installs fn to receive the duration of every successful fsync
// (nil removes it). The serving layer points it at a latency histogram.
func (j *Journal) ObserveSync(fn func(time.Duration)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observeSync = fn
}

// Replay streams every intact record, in order, to fn. It holds the journal
// lock for the duration — concurrent Appends (and Reset rotations, which
// swap the underlying file) block until it returns — so fn must not call
// back into the journal.
func (j *Journal) Replay(fn func(Record) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	end := j.off
	last := j.baseSeq

	off := int64(journalHeaderSize)
	for off < end {
		rec, next, err := readRecord(j.f, off, end, j.order)
		if err != nil {
			return fmt.Errorf("store: journal replay at offset %d: %w", off, err)
		}
		if rec.Seq != last+1 {
			return fmt.Errorf("%w: replay sequence %d after %d", ErrBadJournal, rec.Seq, last)
		}
		last = rec.Seq
		if err := fn(rec); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// Len returns the number of intact records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.count
}

// Size returns the journal file's current length in bytes (header included):
// the end of the last intact record, where the next append goes. Callers use
// it to trigger size-based compaction.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.off
}

// LastSeq returns the sequence number of the newest record (0 if empty).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// BaseSeq returns the header base sequence: every surviving record has
// Seq > BaseSeq. It advances at each compaction (ResetThrough), which is what
// lets a replication client detect that the records it still needs have been
// rotated out.
func (j *Journal) BaseSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.baseSeq
}

// StreamChunk copies out the verbatim frame bytes (length + CRC + payload,
// exactly as written) of consecutive records with after < Seq ≤ maxSeq, up to
// maxBytes (at least one record is returned if any qualifies, even when it
// alone exceeds maxBytes). It returns the copied frames, the number of
// records, and the sequence of the last record included (== after when
// nothing qualified). The journal's own framing is the stream's wire format:
// a replication follower re-verifies each CRC on receipt, and a response torn
// mid-frame is detected exactly like a torn journal tail.
//
// Serving a chunk scans from the file header (records are rotation-compacted,
// so the scan is bounded by the journal's compaction policy) and holds the
// journal lock, ordering it against concurrent appends and rotations.
func (j *Journal) StreamChunk(after, maxSeq uint64, maxBytes int) (frames []byte, records int, last uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, 0, after, ErrJournalClosed
	}
	if after < j.baseSeq {
		return nil, 0, after, fmt.Errorf("%w: records after %d were compacted away (journal base %d)", ErrBadJournal, after, j.baseSeq)
	}
	last = after
	start, end := int64(-1), int64(-1)
	off := int64(journalHeaderSize)
	for off < j.off {
		rec, next, rerr := readRecord(j.f, off, j.off, j.order)
		if rerr != nil {
			return nil, 0, after, fmt.Errorf("store: journal stream at offset %d: %w", off, rerr)
		}
		if rec.Seq > maxSeq {
			break
		}
		if rec.Seq > after {
			if start < 0 {
				start = off
			}
			end = next
			records++
			last = rec.Seq
			if int(end-start) >= maxBytes {
				break
			}
		}
		off = next
	}
	if start < 0 {
		return nil, 0, after, nil
	}
	frames = make([]byte, end-start)
	if _, err := j.f.ReadAt(frames, start); err != nil {
		return nil, 0, after, fmt.Errorf("store: journal stream: %w", err)
	}
	return frames, records, last, nil
}

// DecodeRecord decodes the first framed record in b, returning it and the
// number of bytes consumed. An incomplete frame (the buffer ends mid-record —
// a torn stream tail) returns io.ErrUnexpectedEOF; a frame whose checksum or
// shape is wrong, or whose values are not all finite, returns ErrBadJournal.
// It is the buffer-level counterpart of the journal's on-disk reader, used by
// replication followers to decode streamed chunks with the same tolerance
// for torn tails.
func DecodeRecord(b []byte, order int) (Record, int, error) {
	rec, next, err := readRecord(bytesReaderAt(b), 0, int64(len(b)), order)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, int(next), nil
}

// bytesReaderAt adapts a byte slice to io.ReaderAt without the bytes.Reader
// allocation dance.
type bytesReaderAt []byte

func (b bytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Poison makes every subsequent Append fail with err (wrapped), without
// closing the journal. It is the owner's safety valve when the journal's
// contents no longer match the state it is supposed to reconstruct — e.g. a
// reload re-base that could not reset it: accepting further records would
// interleave two incompatible generations and make the next replay fail, so
// refusing mutations loudly is the recoverable behavior.
func (j *Journal) Poison(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.syncErr == nil {
		j.syncErr = fmt.Errorf("store: journal poisoned: %w", err)
	}
}

// Sync forces an fsync of everything appended so far.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.policy.Mode == SyncNone {
		return nil
	}
	j.dirty = false
	t0 := time.Now()
	if err := j.f.Sync(); err != nil {
		j.syncErr = fmt.Errorf("store: journal fsync: %w", err)
		return j.syncErr
	}
	if j.observeSync != nil {
		j.observeSync(time.Since(t0))
	}
	return nil
}

// Compact folds the whole journal into a snapshot: CompactThrough at the
// current last sequence. The caller asserts x subsumes every record
// appended so far; records that arrive while the snapshot is being written
// are preserved.
func (j *Journal) Compact(snapshotPath string, x *tensor.Coord) error {
	j.mu.Lock()
	through := j.lastSeq
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return ErrJournalClosed
	}
	return j.CompactThrough(snapshotPath, x, through)
}

// CompactThrough persists x — which must subsume every record with
// Seq ≤ through — as a training snapshot covering through, then removes
// exactly those records from the journal, preserving any appended later.
// Every state a crash can expose is consistent: before the snapshot rename,
// the old snapshot plus replay reconstructs x; between the rename and the
// rotation, the new snapshot covers the compacted records and replay skips
// them; after, only uncovered records remain. Appends may run concurrently —
// their records have Seq > through and survive the rotation — which is what
// lets a serving layer compact off its hot path.
func (j *Journal) CompactThrough(snapshotPath string, x *tensor.Coord, through uint64) error {
	if err := WriteSnapshot(snapshotPath, x, through); err != nil {
		return err
	}
	return j.ResetThrough(through)
}

// Reset empties the journal: ResetThrough at the current last sequence.
// Call it only after every record's effects are persisted elsewhere — a
// compaction snapshot, or a reload that supersedes them.
func (j *Journal) Reset() error {
	j.mu.Lock()
	through := j.lastSeq
	closed := j.closed
	j.mu.Unlock()
	if closed {
		return ErrJournalClosed
	}
	return j.ResetThrough(through)
}

// ResetThrough removes every record with Seq ≤ through by atomically
// rotating in a fresh file — header base sequence `through`, followed by the
// surviving records' bytes verbatim. Sequence numbers continue, never
// restart, so a snapshot's covered sequence stays meaningful across any
// crash and can never collide with a future record.
func (j *Journal) ResetThrough(through uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrJournalClosed
	}
	if through > j.lastSeq {
		through = j.lastSeq
	}
	if through <= j.baseSeq {
		return nil // nothing at or below through is in the file
	}

	// Records are contiguous with increasing sequences, so the survivors are
	// a tail: scan to the first record past through.
	off := int64(journalHeaderSize)
	survivors := j.count
	for off < j.off {
		rec, next, err := readRecord(j.f, off, j.off, j.order)
		if err != nil {
			return fmt.Errorf("store: journal reset: %w", err)
		}
		if rec.Seq > through {
			break
		}
		off = next
		survivors--
	}
	tail := make([]byte, j.off-off)
	if len(tail) > 0 {
		if _, err := j.f.ReadAt(tail, off); err != nil {
			return fmt.Errorf("store: journal reset: %w", err)
		}
	}

	// The rename inside writeAtomic is the commit point; the returned
	// descriptor then IS the journal at its path, replacing the old one.
	f, err := writeAtomic(j.path, true, func(f *os.File) error {
		if _, err := f.Write(journalHeader(j.order, through)); err != nil {
			return err
		}
		_, err := f.Write(tail)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: journal reset: %w", err)
	}
	old := j.f
	j.f = f
	_ = old.Close()
	j.off = journalHeaderSize + int64(len(tail))
	j.baseSeq = through
	j.count = survivors
	j.dirty = false
	j.syncErr = nil
	return nil
}

// journalHeader renders the 24-byte file header.
func journalHeader(order int, baseSeq uint64) []byte {
	head := make([]byte, journalHeaderSize)
	copy(head[0:4], JournalMagic)
	binary.LittleEndian.PutUint32(head[4:8], journalVersion)
	binary.LittleEndian.PutUint32(head[8:12], uint32(order))
	binary.LittleEndian.PutUint64(head[16:24], baseSeq)
	return head
}

// Close flushes and closes the journal. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()

	if j.stop != nil {
		close(j.stop)
		<-j.done
	}
	var err error
	if j.policy.Mode != SyncNone {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// flusher is the SyncBatch group-commit goroutine: it fsyncs dirty appends
// at most once per interval.
func (j *Journal) flusher() {
	defer close(j.done)
	t := time.NewTicker(j.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-t.C:
			j.mu.Lock()
			if j.dirty && !j.closed {
				_ = j.syncLocked()
			}
			j.mu.Unlock()
		}
	}
}

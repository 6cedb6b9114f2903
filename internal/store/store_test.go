package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

func randomCoord(rng *rand.Rand, dims []int, nnz int) *tensor.Coord {
	c := tensor.NewCoord(dims)
	idx := make([]int, len(dims))
	for c.NNZ() < nnz {
		for n, d := range dims {
			idx[n] = rng.Intn(d)
		}
		c.MustAppend(idx, rng.Float64())
	}
	return c
}

func coordsEqual(t testing.TB, a, b *tensor.Coord) {
	t.Helper()
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: order %d/%d nnz %d/%d", a.Order(), b.Order(), a.NNZ(), b.NNZ())
	}
	for k := 0; k < a.Order(); k++ {
		if a.Dim(k) != b.Dim(k) {
			t.Fatalf("mode %d dim %d vs %d", k, a.Dim(k), b.Dim(k))
		}
	}
	for e := 0; e < a.NNZ(); e++ {
		ia, ib := a.Index(e), b.Index(e)
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatalf("entry %d mode %d index %d vs %d", e, k, ia[k], ib[k])
			}
		}
		if math.Float64bits(a.Value(e)) != math.Float64bits(b.Value(e)) {
			t.Fatalf("entry %d value bits differ", e)
		}
	}
}

func TestWriteReadTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randomCoord(rng, []int{40, 30, 20}, 500)
	path := filepath.Join(t.TempDir(), "x.ptkt")
	if err := WriteTensor(path, x); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, x, got)

	// The atomic write leaves no temp droppings behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}

	// A pure binary snapshot also loads through the generic text/binary
	// auto-detecting loader.
	viaReadFile, err := tensor.ReadFile(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, x, viaReadFile)
}

func TestSnapshotCoveredSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randomCoord(rng, []int{10, 10}, 60)
	path := filepath.Join(t.TempDir(), "training.ptkt")

	if err := WriteSnapshot(path, x, 17); err != nil {
		t.Fatal(err)
	}
	got, seq, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 17 {
		t.Fatalf("covered seq %d, want 17", seq)
	}
	coordsEqual(t, x, got)

	// A bare tensor snapshot is accepted with covered sequence 0.
	if err := WriteTensor(path, x); err != nil {
		t.Fatal(err)
	}
	got, seq, err = ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatalf("bare snapshot covered seq %d, want 0", seq)
	}
	coordsEqual(t, x, got)
}

func obsBatch(rng *rand.Rand, dims []int, n int) []core.Observation {
	obs := make([]core.Observation, n)
	for i := range obs {
		idx := make([]int, len(dims))
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		obs[i] = core.Observation{Index: idx, Value: rng.NormFloat64()}
	}
	return obs
}

func obsEqual(t testing.TB, a, b []core.Observation) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("batch length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Index) != len(b[i].Index) {
			t.Fatalf("obs %d order mismatch", i)
		}
		for k := range a[i].Index {
			if a[i].Index[k] != b[i].Index[k] {
				t.Fatalf("obs %d mode %d index %d vs %d", i, k, a[i].Index[k], b[i].Index[k])
			}
		}
		if math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			t.Fatalf("obs %d value bits differ", i)
		}
	}
}

func TestJournalAppendReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := []int{25, 15, 5}
	path := filepath.Join(t.TempDir(), "obs.ptkj")

	j, err := OpenJournal(path, 3, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]core.Observation
	for i := 0; i < 7; i++ {
		b := obsBatch(rng, dims, 1+rng.Intn(5))
		batches = append(batches, b)
		seq, err := j.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if j.Len() != 7 || j.LastSeq() != 7 {
		t.Fatalf("len %d lastSeq %d, want 7/7", j.Len(), j.LastSeq())
	}

	// Replay on the live journal.
	var got [][]core.Observation
	if err := j.Replay(func(r Record) error {
		got = append(got, r.Observations)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(got), len(batches))
	}
	for i := range got {
		obsEqual(t, batches[i], got[i])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery finds the same records, appends continue the sequence.
	j2, err := OpenJournal(path, 3, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 7 || j2.LastSeq() != 7 || j2.Recovered != 0 {
		t.Fatalf("reopen: len %d lastSeq %d recovered %d", j2.Len(), j2.LastSeq(), j2.Recovered)
	}
	if seq, err := j2.Append(batches[0]); err != nil || seq != 8 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
}

// TestJournalTornTail simulates a crash mid-write: everything before the
// torn record replays, the tail is truncated, and appends continue.
func TestJournalTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dims := []int{10, 10}
	path := filepath.Join(t.TempDir(), "obs.ptkj")

	j, err := OpenJournal(path, 2, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := j.Append(obsBatch(rng, dims, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the end.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, 2, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 4 {
		t.Fatalf("after torn tail: %d records, want 4", j2.Len())
	}
	if j2.Recovered == 0 {
		t.Fatal("torn tail not reported")
	}
	n := 0
	if err := j2.Replay(func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d, want 4", n)
	}
	// The journal still accepts appends after recovery, at the next seq.
	if seq, err := j2.Append(obsBatch(rng, dims, 1)); err != nil || seq != 5 {
		t.Fatalf("append after recovery: seq %d err %v", seq, err)
	}

	// Corrupting a record's payload (not just truncation) is also caught.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path, 2, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 4 {
		t.Fatalf("after corrupt record: %d records, want 4", j3.Len())
	}
}

func TestJournalCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dims := []int{20, 10}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "obs.ptkj")
	spath := filepath.Join(dir, "training.ptkt")

	j, err := OpenJournal(jpath, 2, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	x := randomCoord(rng, dims, 50)
	for i := 0; i < 3; i++ {
		if _, err := j.Append(obsBatch(rng, dims, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(spath, x); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("journal has %d records after compact", j.Len())
	}
	got, seq, err := ReadSnapshot(spath)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("snapshot covers seq %d, want 3", seq)
	}
	coordsEqual(t, x, got)

	// Sequences continue after compaction — the snapshot's covered sequence
	// can never collide with a post-compaction record.
	if seq, err := j.Append(obsBatch(rng, dims, 1)); err != nil || seq != 4 {
		t.Fatalf("append after compact: seq %d err %v", seq, err)
	}

	// And survive a close/reopen of the rotated file.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(jpath, 2, SyncPolicy{Mode: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.LastSeq() != 4 {
		t.Fatalf("reopen after compact: len %d lastSeq %d, want 1/4", j2.Len(), j2.LastSeq())
	}
}

func TestJournalValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.ptkj")
	j, err := OpenJournal(path, 3, SyncPolicy{Mode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		obs  []core.Observation
	}{
		{"empty batch", nil},
		{"wrong order", []core.Observation{{Index: []int{1, 2}, Value: 1}}},
		{"negative index", []core.Observation{{Index: []int{1, -2, 3}, Value: 1}}},
	}
	for _, tc := range cases {
		if _, err := j.Append(tc.obs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(obsBatch(rand.New(rand.NewSource(1)), []int{5, 5, 5}, 1)); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("append on closed journal: %v", err)
	}

	// Wrong order on reopen is rejected.
	if _, err := OpenJournal(path, 4, SyncPolicy{}); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("order mismatch on open: %v", err)
	}
}

// TestJournalRejectsNonFinite: a NaN or ±Inf observation value never enters
// the journal through Append, and a record that carries one under a valid
// checksum (written by something else) fails OpenJournal and DecodeRecord.
// The open must not treat it as a torn tail: the file keeps its size, so
// neither that record nor the one after it is silently dropped.
func TestJournalRejectsNonFinite(t *testing.T) {
	const order = 3
	for _, tc := range []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "obs.ptkj")
			j, err := OpenJournal(path, order, SyncPolicy{Mode: SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			bad := []core.Observation{{Index: []int{0, 1, 2}, Value: 1}, {Index: []int{1, 2, 3}, Value: tc.v}}
			if _, err := j.Append(bad); !errors.Is(err, tensor.ErrNonFinite) || j.Len() != 0 {
				t.Fatalf("Append: err = %v (len %d), want ErrNonFinite and nothing written", err, j.Len())
			}
			// Two good records; then forge the first one's value to tc.v and
			// re-seal its CRC, as a foreign writer could.
			good := []core.Observation{{Index: []int{0, 1, 2}, Value: 0.25}}
			for i := 0; i < 2; i++ {
				if _, err := j.Append(good); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := raw[journalHeaderSize:]
			plen := binary.LittleEndian.Uint32(frame[0:4])
			payload := frame[8 : 8+plen]
			binary.LittleEndian.PutUint64(payload[12+4*order:], math.Float64bits(tc.v))
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = OpenJournal(path, order, SyncPolicy{Mode: SyncNone})
			if !errors.Is(err, ErrBadJournal) || !errors.Is(err, tensor.ErrNonFinite) {
				t.Fatalf("OpenJournal: err = %v, want ErrBadJournal wrapping ErrNonFinite", err)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(len(raw)) {
				t.Fatalf("OpenJournal changed the file: size %v (err %v), want %d", st.Size(), err, len(raw))
			}
			_, _, err = DecodeRecord(frame, order)
			if !errors.Is(err, ErrBadJournal) || !errors.Is(err, tensor.ErrNonFinite) {
				t.Fatalf("DecodeRecord: err = %v, want ErrBadJournal wrapping ErrNonFinite", err)
			}
		})
	}
}

func TestJournalBatchSync(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	path := filepath.Join(t.TempDir(), "obs.ptkj")
	j, err := OpenJournal(path, 2, SyncPolicy{Mode: SyncBatch, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := j.Append(obsBatch(rng, []int{9, 9}, 2)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // let the flusher run at least once
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, 2, SyncPolicy{Mode: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 10 {
		t.Fatalf("reopen: %d records, want 10", j2.Len())
	}
}

func TestDir(t *testing.T) {
	base := t.TempDir()
	d, err := OpenDir(filepath.Join(base, "data"))
	if err != nil {
		t.Fatal(err)
	}
	if d.HasModel() {
		t.Fatal("fresh dir claims a model")
	}
	if x, err := d.TrainingTensor(); err != nil || x != nil {
		t.Fatalf("fresh dir training tensor: %v, %v", x, err)
	}

	rng := rand.New(rand.NewSource(27))
	x := randomCoord(rng, []int{8, 8}, 20)
	if err := WriteSnapshot(d.TensorPath(), x, 5); err != nil {
		t.Fatal(err)
	}
	got, seq, err := d.TrainingSnapshot()
	if err != nil || seq != 5 {
		t.Fatalf("training snapshot: seq %d err %v", seq, err)
	}
	coordsEqual(t, x, got)

	// Dir satisfies core.TrainingStore.
	var ts core.TrainingStore = d
	got2, err := ts.TrainingTensor()
	if err != nil {
		t.Fatal(err)
	}
	coordsEqual(t, x, got2)

	if err := d.RemoveTrainingTensor(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveTrainingTensor(); err != nil {
		t.Fatal(err) // idempotent
	}
	if x, err := d.TrainingTensor(); err != nil || x != nil {
		t.Fatalf("after remove: %v, %v", x, err)
	}
}

// TestSidecarTrueUnionRefit is the end-to-end persistence path of the
// ResumeFitter story: model saved to disk, training set saved as a sidecar
// snapshot, process "restarts" (fresh Fitter from the loaded file +
// AttachStore), new observations arrive, and the warm refit over the true
// union is bit-identical to the refit of a process that never went down.
func TestSidecarTrueUnionRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{14, 12, 8}
	x := randomCoord(rng, dims, 600)
	cfg := core.Defaults([]int{3, 3, 2})
	cfg.MaxIters = 4
	cfg.Tol = 0
	cfg.Seed = 9
	cfg.Threads = 2

	var delta []core.Observation
	for i := 0; i < 25; i++ {
		idx := make([]int, 3)
		for k, d := range dims {
			idx[k] = rng.Intn(d)
		}
		delta = append(delta, core.Observation{Index: idx, Value: rng.Float64()})
	}

	// Reference process: fit, observe, refit — never interrupted.
	ref := core.NewFitter(cfg)
	base, err := ref.Fit(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Refit(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}

	// Persist model + sidecar, then "restart".
	d, err := OpenDir(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveModel(d.ModelPath(), base); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(d.TensorPath(), x, 0); err != nil {
		t.Fatal(err)
	}

	loaded, err := core.LoadModel(d.ModelPath())
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.ResumeFitter(loaded, loaded.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AttachStore(d); err != nil {
		t.Fatal(err)
	}
	got, err := f.Refit(context.Background(), delta)
	if err != nil {
		t.Fatal(err)
	}

	if len(want.Factors) != len(got.Factors) {
		t.Fatal("factor count differs")
	}
	for k := range want.Factors {
		wd, gd := want.Factors[k].Data(), got.Factors[k].Data()
		if len(wd) != len(gd) {
			t.Fatalf("factor %d size differs", k)
		}
		for i := range wd {
			if math.Float64bits(wd[i]) != math.Float64bits(gd[i]) {
				t.Fatalf("factor %d element %d differs: %v vs %v", k, i, wd[i], gd[i])
			}
		}
	}
	if want.Core.NNZ() != got.Core.NNZ() {
		t.Fatal("core size differs")
	}
	for e := 0; e < want.Core.NNZ(); e++ {
		if math.Float64bits(want.Core.Value(e)) != math.Float64bits(got.Core.Value(e)) {
			t.Fatalf("core entry %d differs", e)
		}
	}
}

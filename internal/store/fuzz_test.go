package store

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzJournalReplay feeds arbitrary bytes to OpenJournal as an on-disk
// journal. The contract under fuzz: a file the open accepts must then
// replay cleanly — strictly increasing sequence numbers, order-3 indices,
// finite values, a record count agreeing with Len — and must keep accepting
// appends.
// Rejecting the input outright is always fine; panicking or replaying
// garbage is not.
func FuzzJournalReplay(f *testing.F) {
	seedDir := filepath.Join("testdata", "fuzz", "FuzzJournalReplay")
	if entries, err := os.ReadDir(seedDir); err == nil && len(entries) == 0 {
		f.Fatalf("seed corpus %s is empty", seedDir)
	}
	f.Add([]byte{})
	f.Add([]byte("PTKJ"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "observe.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, 3, SyncPolicy{Mode: SyncNone})
		if err != nil {
			return // rejected: fine
		}
		defer j.Close()

		n := 0
		var last uint64
		err = j.Replay(func(r Record) error {
			if n > 0 && r.Seq <= last {
				t.Fatalf("replay: seq %d after %d (must be strictly increasing)", r.Seq, last)
			}
			last = r.Seq
			n++
			for _, o := range r.Observations {
				if len(o.Index) != 3 {
					t.Fatalf("replay: record %d has a %d-mode index in an order-3 journal", r.Seq, len(o.Index))
				}
				if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
					t.Fatalf("replay: record %d carries non-finite value %v", r.Seq, o.Value)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("journal opened clean but Replay failed: %v", err)
		}
		if n != j.Len() {
			t.Fatalf("Len() = %d but replay yielded %d records", j.Len(), n)
		}
		if n > 0 && j.LastSeq() != last {
			t.Fatalf("LastSeq() = %d but replay ended at %d", j.LastSeq(), last)
		}

		// A recovered journal must remain writable, continuing the sequence.
		seq, err := j.Append([]core.Observation{{Index: []int{0, 1, 2}, Value: 1}})
		if err != nil {
			t.Fatalf("append after recovery failed: %v", err)
		}
		if n > 0 && seq <= last {
			t.Fatalf("append seq %d does not continue replayed sequence %d", seq, last)
		}
	})
}

package semstore

import (
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// TestDurableRecordAllocatesLikeMemory: logging a Record costs no
// allocation. Its frame is appended into the log's own buffer, so a durable
// Record under SyncOff allocates exactly what a memory-only Record of the
// same batch does, at one row and at a 61-row Weather-sized batch.
func TestDurableRecordAllocatesLikeMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	meta := pollutionMeta()
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.FixedZone("PDT", -7*3600))
	for _, n := range []int{1, 61} {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = row([]string{"A", "B", "C"}[i%3], int64(i%100+1), float64(i)/3)
		}
		memory := New(storage.NewDB())
		durable := New(storage.NewDB())
		if _, err := durable.EnableDurability(t.TempDir(), DurableOptions{
			Policy: wal.SyncOff, CheckpointEvery: -1, Lookup: pollutionLookup(),
		}); err != nil {
			t.Fatal(err)
		}
		allocs := func(s *Store) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := s.Record(meta, meta.FullBox(), batchOf(meta, rows), at); err != nil {
					t.Fatal(err)
				}
			})
		}
		mem, dur := allocs(memory), allocs(durable)
		durable.Close()
		if dur != mem {
			t.Errorf("%d rows: a durable Record allocates %v times, a memory-only one %v", n, dur, mem)
		}
		t.Logf("%d rows: %v allocations durable, %v in memory", n, dur, mem)
	}
}

// TestCheckpointAllocationsFlat: a checkpoint streams the snapshot through
// one buffer, so what it allocates does not grow with the store: a
// checkpoint of 20 000 stored rows allocates within 2 of one of 1 000.
func TestCheckpointAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const span, batch = 1 << 16, 100
	meta := gridMeta(span)
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	checkpointAllocs := func(n int) float64 {
		s := New(storage.NewDB())
		if _, err := s.EnableDurability(t.TempDir(), DurableOptions{
			Policy: wal.SyncOff, CheckpointEvery: -1, Lookup: func(name string) (*catalog.Table, bool) { return meta, name == meta.Name },
		}); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for id := 0; id < n; id += batch {
			rows := make([]value.Row, batch)
			for i := range rows {
				k := int64(id + i)
				rows[i] = gridRow(k*7919%span, k)
			}
			if _, err := s.Record(meta, meta.FullBox(), batchOf(meta, rows), at); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := checkpointAllocs(1000), checkpointAllocs(20000)
	t.Logf("checkpoint allocations: %v at 1 000 rows, %v at 20 000", small, large)
	if large-small > 2 || small-large > 2 {
		t.Errorf("a checkpoint allocates %v times at 1 000 rows and %v at 20 000: want within 2", small, large)
	}
}

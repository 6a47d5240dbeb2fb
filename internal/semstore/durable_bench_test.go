package semstore

import (
	"testing"
	"time"

	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

// BenchmarkDurableRecord measures the durable Record path against real disk
// under each WAL fsync policy, plus the memory-only store as the baseline:
//
//	go test ./internal/semstore/ -bench DurableRecord -benchtime 100x
//
// per-call pays one fsync per record (the durability ceiling), batched
// amortises it over DefaultBatchEvery appends, off leaves flushing to the
// OS, and baseline is the store without a WAL at all.
func BenchmarkDurableRecord(b *testing.B) {
	meta := pollutionMeta()
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name    string
		durable bool
		policy  wal.SyncPolicy
	}{
		{"baseline", false, 0},
		{"per-call", true, wal.SyncPerCall},
		{"batched", true, wal.SyncBatched},
		{"off", true, wal.SyncOff},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := New(storage.NewDB())
			if c.durable {
				opts := DurableOptions{Policy: c.policy, CheckpointEvery: -1, Lookup: pollutionLookup()}
				if _, err := s.EnableDurability(b.TempDir(), opts); err != nil {
					b.Fatal(err)
				}
				defer s.Close()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cycle nine disjoint rank ranges inside the attribute domain
				// so entry compaction reaches a steady state.
				lo := int64(i%9)*10 + 1
				bx := region.NewBox(region.Point(int64(i%3)), region.Interval{Lo: lo, Hi: lo + 9})
				rows := []value.Row{row("A", lo+4, float64(i%9))}
				if _, err := s.Record(meta, bx, batchOf(meta, rows), at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

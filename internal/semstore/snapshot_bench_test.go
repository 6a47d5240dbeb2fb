package semstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
)

// The snapshot-read suite pins the concurrency contract of the copy-on-write
// store: readers never block each other or the writer (they load an immutable
// snapshot pointer), and every read observes a consistent point-in-time state
// — coverage and materialised rows from the same published snapshot.

// BenchmarkSemstoreParallelCoverage drives Coverage from every core at once
// against a populated store. With the old RWMutex the read path serialised on
// the lock word; with snapshot reads throughput should scale with GOMAXPROCS
// (compare -cpu 1,4,8 runs).
func BenchmarkSemstoreParallelCoverage(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		s, _ := buildTiledStore(b, n)
		q := tileQuery(n)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					boxes, _ := s.Coverage("Grid", q, time.Time{})
					if len(boxes) == 0 {
						b.Fatal("probe overlapped no coverage")
					}
				}
			})
		})
	}
}

// BenchmarkSemstoreParallelSelectIn is the materialised-row analogue:
// parallel SelectIn probes over a 10k-row store.
func BenchmarkSemstoreParallelSelectIn(b *testing.B) {
	s, meta := buildTiledStore(b, 10000)
	boxes := []region.Box{tileQuery(10000)}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var ids []int32
		cols := make([]storage.Column, len(meta.Schema))
		for pb.Next() {
			ids = ids[:0]
			if _, all := s.SelectIn(meta, boxes, &ids, cols); !all && len(ids) == 0 {
				b.Fatal("probe found no rows")
			}
		}
	})
}

// BenchmarkSemstoreReadersDuringWrites measures reader throughput while one
// writer continuously records fresh tiles — the daemon's steady state. Under
// the old RWMutex every Record convoyed all readers behind the write lock;
// under copy-on-write, readers keep serving off the previous snapshot.
func BenchmarkSemstoreReadersDuringWrites(b *testing.B) {
	s, meta := buildTiledStore(b, 1000)
	q := tileQuery(1000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := time.Unix(1700000000, 0)
		side := int64(200)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Fresh disjoint tiles well outside the benched probe box.
			x := 1000 + (i%side)*4
			y := 1000 + (i/side)*4
			b := box2(x, x+2, y, y+2)
			if _, err := s.Record(meta, b, batchOf(meta, []value.Row{gridRow(x, y)}), at); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			boxes, _ := s.Coverage("Grid", q, time.Time{})
			if len(boxes) == 0 {
				b.Fatal("probe overlapped no coverage")
			}
		}
	})
	close(stop)
	wg.Wait()
}

// TestSnapshotReadersSeeConsistentState runs readers concurrently with a
// writer under -race and asserts every read is a consistent snapshot: once a
// tile's coverage is visible, its row must be too (Record publishes entry and
// rows in one snapshot swap), and coverage/row counts only grow.
func TestSnapshotReadersSeeConsistentState(t *testing.T) {
	const tiles = 400
	meta := gridMeta(4 * 100)
	s := New(storage.NewDB())
	at := time.Unix(1700000000, 0)

	readers := runtime.GOMAXPROCS(0)
	if readers < 2 {
		readers = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastRows := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				// A covered tile must have its materialised row readable in
				// the same snapshot generation.
				rows := s.StoredRowCount("Grid")
				if rows < lastRows {
					errc <- fmt.Errorf("row count went backwards: %d -> %d", lastRows, rows)
					return
				}
				lastRows = rows
				for i := 0; i < tiles; i += 37 {
					x := int64(i%100) * 4
					y := int64(i/100) * 4
					b := box2(x, x+2, y, y+2)
					if rem := s.Remainder("Grid", b, time.Time{}); len(rem) != 0 {
						continue
					}
					if len(rowsIn(s, meta, b)) == 0 {
						errc <- fmt.Errorf("tile %d covered but row invisible", i)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < tiles; i++ {
		x := int64(i%100) * 4
		y := int64(i/100) * 4
		b := box2(x, x+2, y, y+2)
		if _, err := s.Record(meta, b, batchOf(meta, []value.Row{gridRow(x, y)}), at); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := s.EntryCount("Grid"); got != tiles {
		t.Fatalf("entries after concurrent run: %d, want %d", got, tiles)
	}
	if got := s.StoredRowCount("Grid"); got != tiles {
		t.Fatalf("rows after concurrent run: %d, want %d", got, tiles)
	}
}

package semstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/diskfault"
	"payless/internal/region"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/wal"
)

func pollutionLookup() func(string) (*catalog.Table, bool) {
	meta := pollutionMeta()
	return func(table string) (*catalog.Table, bool) {
		if table == meta.Name {
			return meta, true
		}
		return nil, false
	}
}

// durableStore opens a fresh store with durability on the given fs.
func durableStore(t *testing.T, fsys wal.FS, opts DurableOptions) (*Store, RecoveryInfo) {
	t.Helper()
	if opts.Lookup == nil {
		opts.Lookup = pollutionLookup()
	}
	opts.FS = fsys
	s := New(storage.NewDB())
	info, err := s.EnableDurability("/store", opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

func recordN(t *testing.T, s *Store, n int, at time.Time) {
	t.Helper()
	meta := pollutionMeta()
	for i := 0; i < n; i++ {
		b := region.NewBox(region.Point(int64(i%3)), region.Interval{Lo: int64(i*10 + 1), Hi: int64(i*10 + 11)})
		if _, err := s.Record(meta, b, batchOf(meta, []value.Row{row("A", int64(i*10+5), float64(i))}), at); err != nil {
			t.Fatal(err)
		}
	}
}

func saveString(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDurableRoundTripAcrossReopen(t *testing.T) {
	fs := diskfault.New()
	s1, info := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall})
	if info.Replayed != 0 || info.SnapshotSeq != 0 {
		t.Fatalf("fresh dir recovered something: %+v", info)
	}
	recordN(t, s1, 5, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	want := saveString(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info2 := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall})
	if info2.Replayed != 5 || info2.Torn {
		t.Fatalf("recovery: %+v, want 5 replayed clean", info2)
	}
	if got := saveString(t, s2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
	if s2.Recovery().Replayed != 5 {
		t.Error("Recovery() accessor")
	}
}

// TestDurableLoadSurvivesReopen: a snapshot loaded into a durable store is
// checkpointed at once, so it survives a restart, and the record count
// carries on from it: the next record's log frame is replayed, not skipped.
func TestDurableLoadSurvivesReopen(t *testing.T) {
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	src := New(storage.NewDB())
	recordN(t, src, 3, at)
	exported := saveString(t, src)

	fs := diskfault.New()
	s1, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1})
	recordN(t, s1, 1, at)
	if err := s1.Load(bytes.NewReader([]byte(exported)), pollutionLookup()); err != nil {
		t.Fatal(err)
	}
	meta := pollutionMeta()
	b := region.NewBox(region.Point(2), region.Interval{Lo: 500, Hi: 510})
	if _, err := s1.Record(meta, b, batchOf(meta, []value.Row{row("C", 505, 1)}), at); err != nil {
		t.Fatal(err)
	}
	want := saveString(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall})
	if info.SnapshotRecords != 4 || info.Replayed != 1 || info.Skipped != 0 {
		t.Fatalf("recovery: %+v, want a 4-record snapshot and 1 replayed frame", info)
	}
	if got := saveString(t, s2); got != want {
		t.Fatalf("recovered state differs:\n%s\nvs\n%s", got, want)
	}
}

// TestDurableReplayKeepsNulls: NULL cells of every kind come back from WAL
// replay as NULL — not as a parse failure, and not as the string "NULL".
func TestDurableReplayKeepsNulls(t *testing.T) {
	meta := kindsMeta()
	lookup := func(table string) (*catalog.Table, bool) { return meta, table == meta.Name }
	rows := []value.Row{
		{value.NewString("plain"), value.NewInt(1), value.NewNull(), value.NewNull(), value.NewNull()},
		{value.NewString("plain"), value.NewInt(2), value.NewFloat(0.5), value.NewString("NULL"), value.NewNull()},
	}
	fs := diskfault.New()
	s1, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1, Lookup: lookup})
	if _, err := s1.Record(meta, meta.FullBox(), batchOf(meta, rows), time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, Lookup: lookup})
	if info.Replayed != 1 {
		t.Fatalf("recovery: %+v, want 1 replayed", info)
	}
	got := rowsIn(s2, meta, meta.FullBox())
	want := map[string]bool{rowKey(rows[0]): true, rowKey(rows[1]): true}
	if len(got) != len(rows) {
		t.Fatalf("replayed %d rows, want %d", len(got), len(rows))
	}
	for _, r := range got {
		if !want[rowKey(r)] {
			t.Errorf("row %v changed in WAL replay", r)
		}
	}
}

func TestDurableCheckpointTruncatesLog(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1})
	recordN(t, s, 4, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	if _, _, size := s.WALStats(); size == 0 {
		t.Fatal("log empty before checkpoint")
	}
	want := saveString(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, size := s.WALStats(); size != 0 {
		t.Fatalf("log not truncated after checkpoint: %d bytes", size)
	}
	s.Close()

	s2, info := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall})
	if info.SnapshotSeq == 0 || info.SnapshotRecords != 4 || info.Replayed != 0 {
		t.Fatalf("recovery after checkpoint: %+v", info)
	}
	if got := saveString(t, s2); got != want {
		t.Fatal("snapshot recovery state differs")
	}
	// Records after recovery continue the sequence: another record plus a
	// checkpoint must cover 5.
	recordN(t, s2, 1, time.Date(2026, 8, 2, 0, 0, 0, 0, time.UTC))
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, info3 := durableStore(t, fs, DurableOptions{})
	if info3.SnapshotRecords != 5 {
		t.Fatalf("cumulative records: %+v", info3)
	}
}

func TestDurableAutoCheckpoint(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: 3})
	recordN(t, s, 7, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	// 7 records with a cadence of 3: checkpoints at 3 and 6, one record in
	// the log.
	s.Close()
	_, info := durableStore(t, fs, DurableOptions{})
	if info.SnapshotRecords != 6 || info.Replayed != 1 {
		t.Fatalf("auto checkpoint recovery: %+v", info)
	}
}

// TestDurableReplaySkipsSnapshotRecords crashes between the checkpoint
// rename and the log truncation: the log still holds every frame, and
// replay must skip the ones the snapshot covers instead of double-applying.
func TestDurableReplaySkipsSnapshotRecords(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1})
	recordN(t, s, 3, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	want := saveString(t, s)
	// Fail the log truncation inside the checkpoint.
	fs.SetHook(func(idx int, op *diskfault.Op) error {
		if op.Kind == diskfault.OpTruncate {
			return diskfault.ErrInjected
		}
		return nil
	})
	if err := s.Checkpoint(); !errors.Is(err, diskfault.ErrInjected) {
		t.Fatalf("checkpoint should surface truncate failure, got %v", err)
	}
	fs.SetHook(nil)
	s.Close()

	s2, info := durableStore(t, fs, DurableOptions{})
	if info.SnapshotRecords != 3 || info.Skipped != 3 || info.Replayed != 0 {
		t.Fatalf("recovery: %+v, want snapshot=3 skipped=3", info)
	}
	if got := saveString(t, s2); got != want {
		t.Fatal("double-applied or lost records across snapshot+log overlap")
	}
}

func TestDurableTornTailRecovers(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall})
	recordN(t, s, 3, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	prefix := saveString(t, s)
	s.Close()

	// Tear the last frame: rebuild the power-cut image mid-way through the
	// final write.
	ops := fs.Ops()
	last := -1
	for i, op := range ops {
		if op.Kind == diskfault.OpWrite {
			last = i
		}
	}
	if last < 0 {
		t.Fatal("no writes recorded")
	}
	img := diskfault.Image(ops, last, len(ops[last].Data)/2)

	s2 := New(storage.NewDB())
	info, err := s2.EnableDurability("/store", DurableOptions{FS: img, Lookup: pollutionLookup()})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || info.Replayed != 2 {
		t.Fatalf("torn recovery: %+v, want torn with 2 replayed", info)
	}
	// The recovered store plus a re-record of call 3 equals the clean run.
	recordN(t, s2, 3, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	after := saveString(t, s2)
	// recordN re-records all 3; dedup makes this idempotent, so states match
	// except the records counter (3 clean vs 2+3 re-run). Compare tables only.
	if stripRecords(after) != stripRecords(prefix) {
		t.Fatalf("recovered+rerun differs from clean:\n%s\nvs\n%s", after, prefix)
	}
}

// stripRecords drops the records counter from a snapshot string so states
// can be compared when their call histories legitimately differ.
func stripRecords(s string) string {
	var f persistFile
	if err := json.Unmarshal([]byte(s), &f); err != nil {
		return s
	}
	f.Records = 0
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(f)
	return buf.String()
}

func TestDurableDoubleEnableFails(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{})
	if _, err := s.EnableDurability("/other", DurableOptions{FS: fs, Lookup: pollutionLookup()}); err == nil {
		t.Fatal("second EnableDurability should fail")
	}
	if !s.Durable() {
		t.Fatal("Durable() false after enable")
	}
}

func TestDurableBadSnapshotFallsBack(t *testing.T) {
	fs := diskfault.New()
	s, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1})
	recordN(t, s, 2, time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := saveString(t, s)
	s.Close()
	// Plant a corrupt newer snapshot.
	f, err := fs.OpenFile("/store/snap-99999999.json", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte(`{"magic":"payless-semstore","version":3,"rec`))
	f.Close()

	s2, info := durableStore(t, fs, DurableOptions{})
	if info.BadSnapshots != 1 || info.SnapshotRecords != 2 {
		t.Fatalf("fallback recovery: %+v", info)
	}
	if got := saveString(t, s2); got != want {
		t.Fatal("fallback snapshot state differs")
	}
}

// TestInvalidUTF8OutputRoundTrips: a String output cell holding invalid
// UTF-8 is stored as the codecs write it — each stray byte U+FFFD, what the
// wire would have delivered — so it reads back the same live, from a loaded
// snapshot and from WAL replay. The caller's rows are left as they were.
func TestInvalidUTF8OutputRoundTrips(t *testing.T) {
	meta := kindsMeta()
	lookup := func(table string) (*catalog.Table, bool) { return meta, table == meta.Name }
	raw := "a\xff\xfeb\xc3"
	rows := []value.Row{{value.NewString("plain"), value.NewInt(1), value.NewNull(), value.NewString(raw), value.NewNull()}}
	var wire string
	if err := json.Unmarshal(value.AppendJSONString(nil, raw), &wire); err != nil {
		t.Fatal(err)
	}
	if wire != "a��b�" {
		t.Fatalf("the codec writes %q as %q", raw, wire)
	}
	check := func(how string, s *Store) {
		t.Helper()
		got := rowsIn(s, meta, meta.FullBox())
		if len(got) != 1 || got[0][3].Str() != wire {
			t.Fatalf("%s: rows %q, want the one cell %q", how, got, wire)
		}
	}

	fs := diskfault.New()
	s1, _ := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, CheckpointEvery: -1, Lookup: lookup})
	at := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	if _, err := s1.Record(meta, meta.FullBox(), batchOf(meta, rows), at); err != nil {
		t.Fatal(err)
	}
	if rows[0][3].Str() != raw {
		t.Fatal("Record changed the caller's row")
	}
	check("live", s1)
	// Recording the same row again adds nothing: it is the stored row.
	if res, err := s1.Record(meta, meta.FullBox(), batchOf(meta, rows), at); err != nil || res.Added != 0 {
		t.Fatalf("second Record added %d (%v), want 0", res.Added, err)
	}
	snapshot := saveString(t, s1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := durableStore(t, fs, DurableOptions{Policy: wal.SyncPerCall, Lookup: lookup})
	if info.Replayed != 2 {
		t.Fatalf("recovery: %+v, want 2 replayed", info)
	}
	check("WAL replay", s2)

	s3 := New(storage.NewDB())
	if err := s3.Load(bytes.NewReader([]byte(snapshot)), lookup); err != nil {
		t.Fatal(err)
	}
	check("snapshot Load", s3)
}

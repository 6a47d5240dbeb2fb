package semstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/value"
	"payless/internal/wal"
)

// Durable mode makes the store crash-safe: every Record appends a frame to
// a write-ahead log before any billing-visible state mutates, and periodic
// checkpoints fold the log into an atomically renamed snapshot. A power cut
// at any instant loses at most the unsynced log tail — never data the log
// already holds, and never inventing coverage that was not written.
//
// On-disk layout inside the store directory:
//
//	wal.log            the append-only record log (see package wal)
//	snap-<seq>.json    version-3 snapshots; highest valid seq wins
//	snap-<seq>.json.tmp  in-progress checkpoint (removed on recovery)

// walFileName is the log's name inside the store directory.
const walFileName = "wal.log"

// snapPrefix/snapSuffix frame snapshot file names: snap-<seq>.json.
const (
	snapPrefix = "snap-"
	snapSuffix = ".json"
	tmpSuffix  = ".tmp"
)

// DefaultCheckpointEvery is how many records accumulate in the log before a
// checkpoint folds them into a snapshot, when no cadence is configured.
const DefaultCheckpointEvery = 256

// DurableOptions configures EnableDurability.
type DurableOptions struct {
	// FS is the filesystem to operate on; nil means the real one. The crash
	// suites substitute internal/diskfault.
	FS wal.FS
	// Policy is the log fsync policy (default SyncPerCall).
	Policy wal.SyncPolicy
	// BatchEvery is the SyncBatched cadence (default wal.DefaultBatchEvery).
	BatchEvery int
	// CheckpointEvery is how many records between automatic checkpoints;
	// 0 means DefaultCheckpointEvery, negative disables automatic
	// checkpoints (Checkpoint can still be called explicitly).
	CheckpointEvery int
	// Lookup resolves market table names to catalog metadata for snapshot
	// loading and WAL replay. Required.
	Lookup func(table string) (*catalog.Table, bool)
}

// RecoveryInfo describes what EnableDurability found and restored.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number of the snapshot loaded (0 when the
	// directory held none); SnapshotRecords is the cumulative record count
	// that snapshot covered.
	SnapshotSeq     int64
	SnapshotRecords int64
	// BadSnapshots counts snapshot files that failed to load and were
	// skipped in favour of an older one.
	BadSnapshots int
	// Replayed is how many WAL records were applied; Skipped how many were
	// already covered by the snapshot (a crash between checkpoint rename
	// and log truncation leaves such frames behind).
	Replayed int
	Skipped  int
	// Torn reports the log ended in a torn or corrupt tail, which was
	// truncated off.
	Torn bool
	// WALSize is the log's byte size after recovery.
	WALSize int64
	// Micros is the wall-clock recovery time.
	Micros int64
}

// walRecord is one logged Record call, the schema replay decodes frames
// through (appendWALRecord writes them). Rows use the same cell encoding as
// snapshots; coordinates are re-derived from the catalog on replay.
type walRecord struct {
	// Seq is the cumulative record number (1-based) across the store's
	// lifetime — replay skips frames at or below the snapshot's Records.
	Seq   int64       `json:"seq"`
	Table string      `json:"table"`
	Dims  [][2]int64  `json:"dims,omitempty"`
	At    time.Time   `json:"at"`
	Rows  [][]*string `json:"rows,omitempty"`
}

// durState is the store's durability attachment. Its mutex serialises log
// appends, state application and checkpoints, so a checkpoint always
// snapshots a state covering exactly records 1..cum.
type durState struct {
	mu         sync.Mutex
	fs         wal.FS
	dir        string
	w          *wal.Writer
	lookup     func(table string) (*catalog.Table, bool)
	cum        int64 // records logged + applied over the store's lifetime
	maxSnapSeq int64 // highest snapshot sequence seen or written
	ckptEvery  int64 // records between automatic checkpoints; <=0 disables
	sinceCkpt  int64
	recovery   RecoveryInfo
}

func (d *durState) walPath() string { return filepath.Join(d.dir, walFileName) }

func snapName(seq int64) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix) }

// parseSnapSeq extracts the sequence from a snap-<seq>.json base name, or
// returns false for anything else.
func parseSnapSeq(name string) (int64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	var seq int64
	num := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if num == "" {
		return 0, false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	return seq, true
}

// EnableDurability attaches a write-ahead log and snapshot directory to the
// store and runs recovery: the newest valid snapshot in dir is loaded, the
// log is replayed on top (skipping frames the snapshot already covers), and
// a torn log tail is truncated off. Must be called before the store is
// shared across goroutines, typically on a fresh store.
func (s *Store) EnableDurability(dir string, opts DurableOptions) (RecoveryInfo, error) {
	var info RecoveryInfo
	if s.dur != nil {
		return info, fmt.Errorf("semstore: durability already enabled")
	}
	if opts.Lookup == nil {
		return info, fmt.Errorf("semstore: durability needs a catalog lookup")
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = wal.OS
	}
	start := time.Now()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return info, fmt.Errorf("semstore: store dir: %w", err)
	}
	d := &durState{fs: fsys, dir: dir, lookup: opts.Lookup, ckptEvery: int64(opts.CheckpointEvery)}
	if opts.CheckpointEvery == 0 {
		d.ckptEvery = DefaultCheckpointEvery
	}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return info, fmt.Errorf("semstore: list store dir: %w", err)
	}
	var snaps []int64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// A checkpoint that never reached its rename; harmless debris.
			_ = fsys.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSnapSeq(name); ok {
			snaps = append(snaps, seq)
			if seq > d.maxSnapSeq {
				d.maxSnapSeq = seq
			}
		}
	}
	// Newest valid snapshot wins; a corrupt newer one falls back to older.
	sortInt64Desc(snaps)
	for _, seq := range snaps {
		data, err := wal.ReadAll(fsys, filepath.Join(dir, snapName(seq)))
		if err != nil {
			info.BadSnapshots++
			continue
		}
		st, err := decodeSnapshot(data, opts.Lookup)
		if err != nil {
			info.BadSnapshots++
			continue
		}
		s.apply(st)
		info.SnapshotSeq = seq
		info.SnapshotRecords = st.records
		break
	}
	d.cum = info.SnapshotRecords

	res, err := wal.Replay(fsys, d.walPath(), func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("semstore: wal record: %w", err)
		}
		if rec.Seq <= info.SnapshotRecords {
			info.Skipped++
			return nil
		}
		if err := s.replayRecord(&rec, opts.Lookup); err != nil {
			return err
		}
		d.cum = rec.Seq
		info.Replayed++
		return nil
	})
	if err != nil {
		return info, err
	}
	info.Torn = res.Torn
	info.WALSize = res.Size

	w, err := wal.NewWriter(fsys, d.walPath(), res.Size, opts.Policy, opts.BatchEvery)
	if err != nil {
		return info, err
	}
	// Make the log file itself durable in the directory before anything is
	// appended to it.
	if err := fsys.SyncDir(dir); err != nil {
		w.Close()
		return info, fmt.Errorf("semstore: sync store dir: %w", err)
	}
	d.w = w
	info.Micros = time.Since(start).Microseconds()
	d.recovery = info
	s.recorded.Store(d.cum)
	s.dur = d
	if m := s.metrics; m != nil {
		m.ObserveWALReplay(info.Replayed, info.Skipped, info.Torn)
	}
	return info, nil
}

func sortInt64Desc(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] > v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// replayRecord applies one logged record during recovery: same validation
// and application as Record, minus the append.
func (s *Store) replayRecord(rec *walRecord, lookup func(string) (*catalog.Table, bool)) error {
	meta, ok := lookup(rec.Table)
	if !ok {
		return fmt.Errorf("semstore: wal record for unknown table %s", rec.Table)
	}
	dims := make([]region.Interval, len(rec.Dims))
	for i, dd := range rec.Dims {
		dims[i] = region.Interval{Lo: dd[0], Hi: dd[1]}
	}
	b := region.Box{Dims: dims}
	batch, err := decodeBatch(meta, rec.Rows)
	if err != nil {
		return err
	}
	if err := validateBatch(meta, b, batch); err != nil {
		return err
	}
	coords, err := coordsOf(nil, meta, batch)
	if err != nil {
		return err
	}
	var res RecordResult
	s.applyRecord(meta, b, batch, coords, rec.At, &res)
	return nil
}

// record is the durable Record path: append to the log, then apply, then
// maybe checkpoint — all under the durability mutex so the log order is the
// application order and checkpoints see a record-aligned state.
func (d *durState) record(s *Store, meta *catalog.Table, b region.Box, batch value.Batch, coords [][]int64, at time.Time) (RecordResult, error) {
	var res RecordResult
	d.mu.Lock()
	defer d.mu.Unlock()
	// The only field that can fail to encode is the time: refuse it before
	// anything is appended.
	var text [40]byte
	atJSON, err := appendJSONTime(text[:0], at)
	if err != nil {
		return res, fmt.Errorf("semstore: encode wal record: %w", err)
	}
	seq := d.cum + 1
	start := time.Now()
	synced, n, err := d.w.AppendFunc(func(buf []byte) []byte {
		return appendWALRecord(buf, seq, meta.Name, b, atJSON, batch)
	})
	res.WALMicros = time.Since(start).Microseconds()
	if err != nil {
		return res, fmt.Errorf("semstore: wal append: %w", err)
	}
	res.Synced = synced
	res.WALBytes = n
	d.cum = seq
	s.recorded.Store(d.cum)
	if m := s.metrics; m != nil {
		m.ObserveWALAppend(n, synced, res.WALMicros)
	}
	s.applyRecord(meta, b, batch, coords, at, &res)
	d.sinceCkpt++
	if d.ckptEvery > 0 && d.sinceCkpt >= d.ckptEvery {
		// A failed checkpoint must not fail the Record: the log still holds
		// everything. Count it and retry at the next boundary.
		if err := d.checkpointLocked(s); err != nil {
			if m := s.metrics; m != nil {
				m.ObserveCheckpoint(0, 0, false)
			}
		}
	}
	return res, nil
}

// appendWALRecord appends the frame payload of one Record call, byte for
// byte what json.Marshal writes for its walRecord: dims and rows omitted when
// empty. at is the time already in its JSON form.
func appendWALRecord(buf []byte, seq int64, table string, b region.Box, at []byte, batch value.Batch) []byte {
	buf = strconv.AppendInt(append(buf, `{"seq":`...), seq, 10)
	buf = value.AppendJSONString(append(buf, `,"table":`...), table)
	if len(b.Dims) > 0 {
		buf = appendDims(append(buf, `,"dims":`...), b.Dims)
	}
	buf = append(append(buf, `,"at":`...), at...)
	if batch.N > 0 {
		buf = append(buf, `,"rows":`...)
		var cells [16]value.Value // a table this narrow needs no allocation
		row := append(value.Row(cells[:0]), make(value.Row, len(batch.Cols))...)
		for r := range batch.N {
			buf = batch.Row(r, row).AppendJSON(listSep(buf, r))
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// checkpointLocked folds the store into a new snapshot: temp file, fsync,
// atomic rename, directory fsync — then truncates the log and removes older
// snapshots. Caller holds d.mu.
func (d *durState) checkpointLocked(s *Store) error {
	start := time.Now()
	seq := d.maxSnapSeq + 1
	final := filepath.Join(d.dir, snapName(seq))
	tmp := final + tmpSuffix

	f, err := d.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("semstore: checkpoint open: %w", err)
	}
	cleanup := func() { f.Close(); _ = d.fs.Remove(tmp) }
	// The published snapshot is immutable and, because applyRecord installs
	// its new snapshot before record() returns and all records serialise on
	// d.mu, covers exactly records 1..d.cum at this point.
	size, err := saveSnap(f, s.snap.Load(), d.cum)
	if err != nil {
		cleanup()
		return fmt.Errorf("semstore: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("semstore: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = d.fs.Remove(tmp)
		return fmt.Errorf("semstore: checkpoint close: %w", err)
	}
	if err := d.fs.Rename(tmp, final); err != nil {
		_ = d.fs.Remove(tmp)
		return fmt.Errorf("semstore: checkpoint rename: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return fmt.Errorf("semstore: checkpoint dir sync: %w", err)
	}
	// The snapshot is durable: every logged record is covered, so the log
	// can restart empty. A crash before this truncation is fine — replay
	// skips frames at or below the snapshot's record count.
	if err := d.w.Reset(); err != nil {
		return fmt.Errorf("semstore: wal reset: %w", err)
	}
	prevSeq := d.maxSnapSeq
	d.maxSnapSeq = seq
	d.sinceCkpt = 0
	// Older snapshots are redundant now; removal is best-effort (they would
	// simply be ignored at the next recovery).
	if names, err := d.fs.ReadDir(d.dir); err == nil {
		removed := false
		for _, name := range names {
			if old, ok := parseSnapSeq(name); ok && old <= prevSeq {
				_ = d.fs.Remove(filepath.Join(d.dir, name))
				removed = true
			}
		}
		if removed {
			_ = d.fs.SyncDir(d.dir)
		}
	}
	if m := s.metrics; m != nil {
		m.ObserveCheckpoint(size, time.Since(start).Microseconds(), true)
	}
	return nil
}

// Checkpoint folds the current store into a durable snapshot and truncates
// the log. A no-op without durability.
func (s *Store) Checkpoint() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked(s)
}

// SyncWAL forces any batched, unsynced log appends to disk.
func (s *Store) SyncWAL() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.w.Sync()
}

// Durable reports whether a write-ahead log is attached.
func (s *Store) Durable() bool { return s.dur != nil }

// Recovery returns what EnableDurability found (zero without durability).
func (s *Store) Recovery() RecoveryInfo {
	if s.dur == nil {
		return RecoveryInfo{}
	}
	return s.dur.recovery
}

// WALStats returns the log's lifetime append/fsync counts and current size.
func (s *Store) WALStats() (appends, syncs, size int64) {
	d := s.dur
	if d == nil {
		return 0, 0, 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	a, sy := d.w.Stats()
	return a, sy, d.w.Size()
}

// Close syncs and closes the write-ahead log. A no-op without durability.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.w.Close()
}

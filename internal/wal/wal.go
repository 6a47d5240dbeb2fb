// Package wal is a checksummed, length-prefixed, append-only write-ahead
// log. The semantic store appends one frame per recorded market call before
// the call's coverage becomes visible, so a process crash or power cut can
// lose at most the suffix of calls that were never synced — never corrupt
// what came before, and never invent coverage that was not written.
//
// Frame format (little-endian):
//
//	[4B payload length][4B CRC32-Castagnoli of payload][payload]
//
// Each frame is issued as a single Write, so a torn write tears exactly one
// frame. Replay stops at the first frame whose length is implausible, whose
// payload is short, or whose checksum mismatches, and truncates the file
// there: a torn tail is recovered from, not failed on.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// SyncPolicy selects when appends are fsynced to disk.
type SyncPolicy int

const (
	// SyncPerCall fsyncs after every append: a successful Record is
	// durable the moment it returns. The strongest and slowest policy.
	SyncPerCall SyncPolicy = iota
	// SyncBatched fsyncs every BatchEvery appends (and on Sync/Close/
	// checkpoint): a crash loses at most the current unsynced batch.
	SyncBatched
	// SyncOff never fsyncs: the OS flushes when it pleases. A process
	// crash loses nothing (the kernel holds the pages); only a power cut
	// or kernel panic can lose the unflushed tail.
	SyncOff
)

// String names the policy (the bench and CLI label).
func (p SyncPolicy) String() string {
	switch p {
	case SyncPerCall:
		return "per-call"
	case SyncBatched:
		return "batched"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DefaultBatchEvery is the SyncBatched fsync cadence when none is given.
const DefaultBatchEvery = 8

// headerSize is the per-frame framing overhead.
const headerSize = 8

// maxFrame bounds a single payload; a length beyond it marks a torn or
// corrupt header during replay.
const maxFrame = 1 << 28 // 256 MiB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornLog is wrapped by replay truncation failures.
var ErrTornLog = errors.New("wal: torn log")

// Writer appends frames to a log file. Safe for concurrent use; append
// order under the lock is the replay order.
type Writer struct {
	mu         sync.Mutex
	fs         FS
	path       string
	f          File
	policy     SyncPolicy
	batchEvery int
	pending    int   // appends since the last fsync
	size       int64 // current file size
	appends    int64
	syncs      int64
	broken     error // set when the file may hold a torn frame we failed to roll back
	buf        []byte
}

// NewWriter opens (creating if needed) the log at path for appending.
// size must be the current byte size of the file (what Replay returned),
// so rollback after a failed append can restore the pre-append length.
func NewWriter(fsys FS, path string, size int64, policy SyncPolicy, batchEvery int) (*Writer, error) {
	if batchEvery <= 0 {
		batchEvery = DefaultBatchEvery
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Writer{fs: fsys, path: path, f: f, policy: policy, batchEvery: batchEvery, size: size}, nil
}

// Append writes one frame. synced reports whether the frame (and all before
// it) hit disk before returning — true on every successful append under
// SyncPerCall, true at batch boundaries under SyncBatched, never under
// SyncOff.
//
// A failed append is rolled back by truncating the file to the frame start,
// so the log never accumulates a torn frame mid-file (which would make
// every later frame unreachable to replay). If the rollback itself fails
// the writer turns sticky-broken: all further appends fail until the log is
// re-opened through recovery.
func (w *Writer) Append(payload []byte) (synced bool, err error) {
	synced, _, err = w.AppendFunc(func(buf []byte) []byte { return append(buf, payload...) })
	return synced, err
}

// AppendFunc is Append with the payload appended by fill to the buffer it is
// handed, the writer's own frame buffer, so a caller encodes its record
// straight into the frame with no payload of its own. n is the payload's
// length.
func (w *Writer) AppendFunc(fill func(buf []byte) []byte) (synced bool, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return false, 0, fmt.Errorf("wal: log broken by earlier failure: %w", w.broken)
	}
	w.buf = fill(append(w.buf[:0], make([]byte, headerSize)...))
	frame, payload := w.buf, w.buf[headerSize:]
	if len(payload) > maxFrame {
		return false, 0, fmt.Errorf("wal: payload %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	start := w.size
	written, werr := w.f.Write(frame)
	if werr != nil || written != len(frame) {
		if werr == nil {
			werr = fmt.Errorf("wal: short write: %d of %d bytes", written, len(frame))
		}
		// Roll the file back to the frame boundary so the log stays
		// replayable past this failure.
		if terr := w.f.Truncate(start); terr != nil {
			w.broken = fmt.Errorf("append failed (%v) and rollback failed (%v)", werr, terr)
		}
		return false, 0, fmt.Errorf("wal: append: %w", werr)
	}
	w.size += int64(written)
	w.appends++
	w.pending++
	switch w.policy {
	case SyncPerCall:
		return true, len(payload), w.syncLocked()
	case SyncBatched:
		if w.pending >= w.batchEvery {
			return true, len(payload), w.syncLocked()
		}
	}
	return false, len(payload), nil
}

func (w *Writer) syncLocked() error {
	if w.pending == 0 {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		// The appended frames are intact in the file (the kernel has
		// them); only their durability is unknown. Leave pending set so
		// the next sync retries.
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.pending = 0
	w.syncs++
	return nil
}

// Sync forces an fsync of all pending appends (a no-op when none are
// pending or the policy already synced them).
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

// Reset truncates the log to empty and syncs — called after a checkpoint
// has made the snapshot durable, so every logged record is already covered.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: reset sync: %w", err)
	}
	w.size = 0
	w.pending = 0
	w.broken = nil
	return nil
}

// Size returns the current log size in bytes.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns lifetime append and fsync counts.
func (w *Writer) Stats() (appends, syncs int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs
}

// Close syncs pending appends (unless the policy is SyncOff) and closes the
// file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.policy != SyncOff {
		err = w.syncLocked()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayResult describes one replay pass.
type ReplayResult struct {
	// Records is how many intact frames were delivered.
	Records int
	// Size is the log's byte size after any torn-tail truncation — the
	// value to hand NewWriter.
	Size int64
	// Torn reports that a torn or corrupt tail was found and truncated;
	// TornOffset is where the log was cut.
	Torn       bool
	TornOffset int64
}

// Replay reads every intact frame of the log at path in order, calling fn
// with each payload. A missing log is an empty log. A torn tail — short
// header, implausible length, short payload, or checksum mismatch — ends
// the replay and is truncated off (with fsync), restoring the invariant
// that the log is a clean sequence of frames. An fn error aborts the replay
// and is returned as is.
func Replay(fsys FS, path string, fn func(payload []byte) error) (ReplayResult, error) {
	var res ReplayResult
	data, err := ReadAll(fsys, path)
	if err != nil {
		return res, fmt.Errorf("wal: read %s: %w", path, err)
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			res.Size = off
			return res, nil
		}
		if len(rest) < headerSize {
			break // torn header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length > maxFrame || int64(headerSize+int(length)) > int64(len(rest)) {
			break // implausible length or torn payload
		}
		payload := rest[headerSize : headerSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			break // corrupt payload
		}
		if err := fn(payload); err != nil {
			return res, err
		}
		res.Records++
		off += int64(headerSize + int(length))
	}
	// Torn tail: cut the log back to the last intact frame.
	res.Torn = true
	res.TornOffset = off
	res.Size = off
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return res, fmt.Errorf("%w: open for truncate: %v", ErrTornLog, err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return res, fmt.Errorf("%w: truncate at %d: %v", ErrTornLog, off, err)
	}
	if err := f.Sync(); err != nil {
		return res, fmt.Errorf("%w: sync after truncate: %v", ErrTornLog, err)
	}
	return res, nil
}

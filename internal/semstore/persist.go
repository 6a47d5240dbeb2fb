package semstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"payless/internal/catalog"
	"payless/internal/region"
	"payless/internal/value"
)

// The semantic store is the buyer's asset ledger: everything in it has been
// paid for. A durable store keeps it across restarts (durable.go) instead of
// re-buying it (the paper §3: storage is cheap precisely to "eschew
// retrieving redundant data from the data market"). There is one on-disk
// format: Save writes exactly the snapshot a checkpoint writes, and Load
// reads what Save and checkpoints write.

// persistFile is the on-disk JSON envelope.
type persistFile struct {
	// Magic identifies the file as a semantic-store snapshot, so a wrong
	// file fails fast with ErrBadSnapshot instead of a mid-stream garbage
	// error.
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// Records is the cumulative count of Record calls the snapshot covers.
	// Recovery uses it to skip WAL frames already folded into the snapshot,
	// making replay idempotent across a crash between the snapshot rename
	// and the log truncation.
	Records int64          `json:"records,omitempty"`
	Tables  []persistTable `json:"tables"`
}

type persistTable struct {
	// Table is the market table name.
	Table   string         `json:"table"`
	Kinds   []string       `json:"kinds"`
	Entries []persistEntry `json:"entries"`
	Rows    [][]*string    `json:"rows"` // cells as value.Value.AppendJSON writes them
}

type persistEntry struct {
	Dims [][2]int64 `json:"dims"`
	At   time.Time  `json:"at"`
}

// persistVersion is the on-disk format, the only one Load reads.
const persistVersion = 3

// snapshotMagic marks a snapshot file.
const snapshotMagic = "payless-semstore"

// ErrBadSnapshot is wrapped by Load for files that are not semantic-store
// snapshots: unparseable JSON, missing or wrong magic, or an unsupported
// version. Content errors (unknown table, kind mismatch, bad cell) are NOT
// ErrBadSnapshot — the file is a snapshot, just not one for this catalog.
var ErrBadSnapshot = errors.New("semstore: bad snapshot")

// Save writes the store's full contents (stored calls and materialised
// rows) as the same JSON snapshot a checkpoint writes. Output is
// deterministic: tables are sorted by name and entries keep their
// (compacted) store order, so snapshots diff cleanly. On an error w may
// hold a prefix of the snapshot.
func (s *Store) Save(w io.Writer) error {
	_, err := saveSnap(w, s.snap.Load(), s.recorded.Load())
	return err
}

// The snapshot and log encoders append typed values into bytes, writing
// exactly what encoding/json writes for persistFile (Encoder.Encode, so
// with a trailing newline) and walRecord (Marshal): the decoders read them
// back through those structs. Cells are value.Value.AppendJSON's, the
// market wire's encoding.

// snapChunk is how much snapshot text saveSnap buffers before writing it
// out: a snapshot streams through one buffer whatever the store's size.
const snapChunk = 32 << 10

// saveSnap writes the envelope for one immutable snapshot with the given
// cumulative record count and returns the bytes written. The snapshot never
// mutates, so no lock is needed.
func saveSnap(w io.Writer, snap *storeSnap, records int64) (int64, error) {
	names := make([]string, 0, len(snap.tables))
	for name := range snap.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	c := chunkWriter{w: w, buf: make([]byte, 0, 2*snapChunk)}
	c.buf = value.AppendJSONString(append(c.buf, `{"magic":`...), snapshotMagic)
	c.buf = strconv.AppendInt(append(c.buf, `,"version":`...), persistVersion, 10)
	if records != 0 {
		c.buf = strconv.AppendInt(append(c.buf, `,"records":`...), records, 10)
	}
	c.buf = append(c.buf, `,"tables":`...)
	for i, name := range names {
		ts := snap.tables[name]
		c.buf = value.AppendJSONString(append(listSep(c.buf, i), `{"table":`...), name)
		c.buf = append(c.buf, `,"kinds":`...)
		for k, col := range ts.meta.Schema {
			c.buf = value.AppendJSONString(listSep(c.buf, k), col.Type.String())
		}
		c.buf = append(listEnd(c.buf, len(ts.meta.Schema)), `,"entries":`...)
		live := 0
		for id, e := range ts.entries {
			if ts.isDead(id) {
				continue
			}
			c.buf = appendDims(append(listSep(c.buf, live), `{"dims":`...), e.box.Dims)
			var err error
			if c.buf, err = appendJSONTime(append(c.buf, `,"at":`...), e.at); err != nil {
				return c.n, err
			}
			c.buf = append(c.buf, '}')
			live++
			c.spill(snapChunk)
		}
		c.buf = append(listEnd(c.buf, live), `,"rows":`...)
		row := make(value.Row, len(ts.cols))
		for k := range ts.n {
			c.buf = ts.row(row, k).AppendJSON(listSep(c.buf, k))
			c.spill(snapChunk)
		}
		c.buf = append(listEnd(c.buf, ts.n), '}')
	}
	c.buf = append(listEnd(c.buf, len(names)), "}\n"...)
	c.spill(1)
	return c.n, c.err
}

// listSep opens a JSON list before its element i = 0 and separates the
// others; listEnd closes a list of n elements, or writes null for none, as
// encoding/json writes a nil slice. Every list a snapshot holds is nil when
// empty.
func listSep(buf []byte, i int) []byte {
	if i == 0 {
		return append(buf, '[')
	}
	return append(buf, ',')
}

func listEnd(buf []byte, n int) []byte {
	if n == 0 {
		return append(buf, "null"...)
	}
	return append(buf, ']')
}

// chunkWriter buffers appended text and writes it out in chunks.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	n   int64 // bytes written
	err error // the first write error; later spills write nothing
}

// spill writes the buffer out once it holds at least atLeast bytes, or
// after a write error drops it, so a failed snapshot never buffers the rest.
func (c *chunkWriter) spill(atLeast int) {
	if len(c.buf) < atLeast {
		return
	}
	if c.err == nil {
		var n int
		n, c.err = c.w.Write(c.buf)
		c.n += int64(n)
		if c.err == nil && n < len(c.buf) {
			c.err = io.ErrShortWrite
		}
	}
	c.buf = c.buf[:0]
}

// appendDims appends a box's dimensions as [[lo,hi],…] pairs, or null for
// none.
func appendDims(buf []byte, dims []region.Interval) []byte {
	for i, iv := range dims {
		buf = strconv.AppendInt(append(listSep(buf, i), '['), iv.Lo, 10)
		buf = append(strconv.AppendInt(append(buf, ','), iv.Hi, 10), ']')
	}
	return listEnd(buf, len(dims))
}

// appendJSONTime appends t as encoding/json writes a time.Time: RFC 3339
// with nanoseconds and t's own zone offset, in quotes. A time that form
// cannot express (a year outside [0, 9999], or a zone offset of a day or
// more) appends nothing and fails with the error encoding/json returns.
func appendJSONTime(buf []byte, t time.Time) ([]byte, error) {
	if _, off := t.Zone(); t.Year() < 0 || t.Year() > 9999 || off <= -86400 || off >= 86400 {
		if _, err := json.Marshal(t); err != nil {
			return buf, err
		}
	}
	return append(t.AppendFormat(append(buf, '"'), time.RFC3339Nano), '"'), nil
}

// stagedTable is one table's fully validated snapshot content, ready to
// apply without further failure modes that could half-mutate the store.
type stagedTable struct {
	meta    *catalog.Table
	entries []persistEntry
	batch   value.Batch
	coords  [][]int64
}

// stagedSnapshot is a decoded, fully validated snapshot.
type stagedSnapshot struct {
	records int64
	tables  []stagedTable
}

// decodeSnapshot parses and validates a snapshot against the catalog. It
// touches no store state: everything that can fail, fails here.
func decodeSnapshot(data []byte, lookup func(table string) (*catalog.Table, bool)) (*stagedSnapshot, error) {
	// Header first, so a wrong file fails with a typed error before any
	// content is interpreted.
	var hdr struct {
		Magic   string `json:"magic"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &hdr); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadSnapshot, err)
	}
	if hdr.Magic != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrBadSnapshot, hdr.Magic, snapshotMagic)
	}
	if hdr.Version != persistVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, hdr.Version)
	}
	var in persistFile
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadSnapshot, err)
	}
	st := &stagedSnapshot{records: in.Records}
	for _, pt := range in.Tables {
		meta, ok := lookup(pt.Table)
		if !ok {
			return nil, fmt.Errorf("semstore: table %s not in catalog", pt.Table)
		}
		if len(pt.Kinds) != len(meta.Schema) {
			return nil, fmt.Errorf("semstore: table %s: %d columns saved, catalog has %d",
				pt.Table, len(pt.Kinds), len(meta.Schema))
		}
		for i, k := range pt.Kinds {
			kind, err := value.ParseKind(k)
			if err != nil {
				return nil, fmt.Errorf("semstore: table %s: %w", pt.Table, err)
			}
			if meta.Schema[i].Type != kind {
				return nil, fmt.Errorf("semstore: table %s column %d: saved %s, catalog %s",
					pt.Table, i, k, meta.Schema[i].Type)
			}
		}
		for _, pe := range pt.Entries {
			if err := checkDims(meta, len(pe.Dims)); err != nil {
				return nil, err
			}
		}
		batch, err := decodeBatch(meta, pt.Rows)
		if err != nil {
			return nil, err
		}
		coords, err := coordsOf(nil, meta, batch)
		if err != nil {
			return nil, err
		}
		st.tables = append(st.tables, stagedTable{meta: meta, entries: pt.Entries, batch: batch, coords: coords})
	}
	return st, nil
}

// decodeBatch parses encoded rows (see value.Value.AppendJSON), whose
// kinds are the table's, into one batch.
func decodeBatch(meta *catalog.Table, enc [][]*string) (value.Batch, error) {
	b := value.NewBatch(meta.Schema, len(enc))
	for r, cells := range enc {
		if len(cells) != len(meta.Schema) {
			return value.Batch{}, fmt.Errorf("semstore: table %s: row width %d, want %d", meta.Name, len(cells), len(meta.Schema))
		}
		for i, cell := range cells {
			// Files written before NULL was encoded as null spell it "NULL",
			// which no number parses as.
			k := meta.Schema[i].Type
			if cell == nil || (*cell == "NULL" && k != value.String) {
				b.Set(r, i, value.Value{})
				continue
			}
			v, err := value.Parse(k, *cell)
			if err != nil {
				return value.Batch{}, fmt.Errorf("semstore: table %s: %w", meta.Name, err)
			}
			b.Set(r, i, v)
		}
	}
	return b, nil
}

// apply installs a fully validated snapshot; nothing in it can fail.
func (s *Store) apply(st *stagedSnapshot) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	// Adopt the snapshot's record history so save -> load -> save is a
	// fixed point and recovery can key WAL replay off the count.
	s.recorded.Add(st.records)
	snap := s.snap.Load()
	staged := make([]*tableStore, 0, len(st.tables))
	for _, t := range st.tables {
		ts := cloneTableFor(snap, t.meta)
		staged = append(staged, ts)
		for _, pe := range t.entries {
			dims := make([]region.Interval, len(pe.Dims))
			for i, d := range pe.Dims {
				dims[i] = region.Interval{Lo: d[0], Hi: d[1]}
			}
			b := region.Box{Dims: dims}
			if b.Empty() {
				continue
			}
			ts.insertEntry(b, pe.At)
			ts.maybeRebuild()
		}
		ts.addRows(t.batch, t.coords)
	}
	s.publish(snap, staged...)
}

// Load restores a saved store. lookup resolves table names to their catalog
// metadata (needed to recompute row coordinates); tables unknown to the
// catalog fail the load. Load merges into the current store — loading into
// a fresh store is the common case.
//
// Load is atomic with respect to the store's semantic state: the whole file
// is decoded and validated before anything is applied, so a truncated or
// corrupt snapshot leaves coverage and materialised rows exactly as they
// were. Files that are not snapshots at all fail with an error matching
// ErrBadSnapshot.
//
// On a durable store the import is made durable the only way anything is:
// the loaded state is checkpointed, its records counted on top of the
// log's. A failed checkpoint is the one error after which the import is
// applied: the rows are loaded in memory but not yet durable, as after a
// failed automatic checkpoint. Retry Checkpoint, not Load, which would count
// the records twice.
func (s *Store) Load(r io.Reader, lookup func(table string) (*catalog.Table, bool)) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("semstore: read snapshot: %w", err)
	}
	st, err := decodeSnapshot(data, lookup)
	if err != nil {
		return err
	}
	d := s.dur
	if d == nil {
		s.apply(st)
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s.apply(st)
	d.cum += st.records
	if err := d.checkpointLocked(s); err != nil {
		return fmt.Errorf("semstore: snapshot loaded in memory, not checkpointed: %w", err)
	}
	return nil
}

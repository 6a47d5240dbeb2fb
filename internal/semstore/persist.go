package semstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
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
	Rows    [][]*string    `json:"rows"` // see encodeRows
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
// (compacted) store order, so snapshots diff cleanly.
func (s *Store) Save(w io.Writer) error {
	return saveSnap(w, s.snap.Load(), s.recorded.Load())
}

// saveSnap renders the envelope for one immutable snapshot with the given
// cumulative record count. The snapshot never mutates, so no lock is needed.
func saveSnap(w io.Writer, snap *storeSnap, records int64) error {
	out := persistFile{Magic: snapshotMagic, Version: persistVersion, Records: records}
	for name, ts := range snap.tables {
		pt := persistTable{Table: name}
		for _, c := range ts.meta.Schema {
			pt.Kinds = append(pt.Kinds, c.Type.String())
		}
		for _, e := range ts.entries {
			if e.dead {
				continue
			}
			pe := persistEntry{At: e.at}
			for _, iv := range e.box.Dims {
				pe.Dims = append(pe.Dims, [2]int64{iv.Lo, iv.Hi})
			}
			pt.Entries = append(pt.Entries, pe)
		}
		pt.Rows = encodeRows(ts.rows)
		out.Tables = append(out.Tables, pt)
	}
	sort.Slice(out.Tables, func(i, j int) bool { return out.Tables[i].Table < out.Tables[j].Table })
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// stagedTable is one table's fully validated snapshot content, ready to
// apply without further failure modes that could half-mutate the store.
type stagedTable struct {
	meta    *catalog.Table
	entries []persistEntry
	rows    []value.Row
	coords  []int64
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
		kinds := make([]value.Kind, len(pt.Kinds))
		for i, k := range pt.Kinds {
			kind, err := value.ParseKind(k)
			if err != nil {
				return nil, fmt.Errorf("semstore: table %s: %w", pt.Table, err)
			}
			if meta.Schema[i].Type != kind {
				return nil, fmt.Errorf("semstore: table %s column %d: saved %s, catalog %s",
					pt.Table, i, k, meta.Schema[i].Type)
			}
			kinds[i] = kind
		}
		rows, err := decodeRows(meta, kinds, pt.Rows)
		if err != nil {
			return nil, err
		}
		coords, err := rowCoords(meta, rows)
		if err != nil {
			return nil, err
		}
		st.tables = append(st.tables, stagedTable{meta: meta, entries: pt.Entries, rows: rows, coords: coords})
	}
	return st, nil
}

// decodeRows parses encoded rows (see encodeRows) against the table's
// kinds.
func decodeRows(meta *catalog.Table, kinds []value.Kind, enc [][]*string) ([]value.Row, error) {
	rows := make([]value.Row, 0, len(enc))
	for _, cells := range enc {
		if len(cells) != len(kinds) {
			return nil, fmt.Errorf("semstore: table %s: row width %d, want %d", meta.Name, len(cells), len(kinds))
		}
		row := make(value.Row, len(cells))
		for i, cell := range cells {
			// Files written before NULL was encoded as null spell it "NULL",
			// which no number parses as.
			if cell == nil || (*cell == "NULL" && kinds[i] != value.String) {
				continue // the zero Value is NULL
			}
			v, err := value.Parse(kinds[i], *cell)
			if err != nil {
				return nil, fmt.Errorf("semstore: table %s: %w", meta.Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// encodeRows renders rows in the snapshot/WAL encoding: each cell as its
// string rendering, NULL as JSON null — so a NULL of any kind survives the
// trip, distinct from the string "NULL". The cells of all rows share one
// slab.
func encodeRows(rows []value.Row) [][]*string {
	if len(rows) == 0 {
		return nil
	}
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	strs := make([]string, n)
	cells := make([]*string, n)
	out := make([][]*string, len(rows))
	k := 0
	for i, row := range rows {
		start := k
		for _, v := range row {
			if v.K != value.Null {
				strs[k] = v.String()
				cells[k] = &strs[k]
			}
			k++
		}
		out[i] = cells[start:k:k]
	}
	return out
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
		ts.addRows(t.rows, t.coords)
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

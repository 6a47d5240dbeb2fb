package payless

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"payless/internal/diskfault"
	"payless/internal/market"
	"payless/internal/semstore"
	"payless/internal/workload"
)

// The power-cut suite: run a real billed workload on a durable client over
// the fault-injecting filesystem, then crash it at every recorded disk
// operation (and at every interesting torn-write prefix) and recover. Three
// oracles hold at every crash point:
//
//  1. No phantom coverage: the recovered store is byte-identical to a
//     reference store holding exactly the first N records of the clean run,
//     for the N recovery reports — never data the clean run hadn't written.
//  2. No lost durability: N is at least what the fsync contract guarantees
//     survived (synced WAL frames, dir-synced snapshots).
//  3. Billing differential: re-running the whole workload on the recovered
//     client returns exactly the clean run's rows and bills no more than the
//     clean run did — only the lost remainder is re-bought; full recovery
//     re-bills nothing.

const crashStoreDir = "/store"

var crashWALPath = crashStoreDir + "/wal.log"

// crashQueries is the workload: overlapping range queries over two market
// tables, so later queries partially reuse earlier coverage.
func crashQueries(w *workload.WHW) []string {
	return []string{
		"SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 30",
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[0], w.Dates[3]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'Country01' AND Date >= %d AND Date <= %d",
			w.Dates[1], w.Dates[4]),
		"SELECT * FROM Pollution WHERE Rank >= 20 AND Rank <= 50",
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
			w.Dates[2], w.Dates[6]),
		"SELECT * FROM Pollution WHERE Rank >= 55 AND Rank <= 70",
	}
}

// crashClient opens a durable client for account over fsys. Calls are
// serial (FetchConcurrency 1) so the WAL record order is deterministic, and
// automatic checkpoints are off so the clean run controls checkpoint
// placement explicitly.
func crashClient(t *testing.T, base *Client, m *market.Market, w *workload.WHW, fsys *diskfault.FS, account string, policy StoreSyncPolicy, batch int) *Client {
	t.Helper()
	m.RegisterAccount(account)
	c, err := Open(Config{
		Tables:           base.cfg.Tables,
		Caller:           market.AccountCaller{Market: m, Key: account},
		StoreDir:         crashStoreDir,
		StoreSync:        policy,
		FetchConcurrency: 1,
		store:            semstore.DurableOptions{FS: fsys, BatchEvery: batch, CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatalf("open durable client: %v", err)
	}
	if err := c.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return c
}

// cleanRun executes the workload once on a recording filesystem and returns
// the per-query rows, the per-query transaction bills, the final store
// snapshot and the full disk-op log. A manual checkpoint between queries 2
// and 3 puts the whole checkpoint sequence (tmp write, fsync, rename, dir
// sync, log truncation) into the crash matrix.
func cleanRun(t *testing.T, base *Client, m *market.Market, w *workload.WHW, policy StoreSyncPolicy, batch int) (rows [][][]string, tx []int64, ops []diskfault.Op) {
	t.Helper()
	fsys := diskfault.New()
	c := crashClient(t, base, m, w, fsys, "crash-clean", policy, batch)
	for i, sql := range crashQueries(w) {
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("clean query %d: %v", i, err)
		}
		rows = append(rows, res.Rows)
		tx = append(tx, res.Report.Transactions)
		if res.Report.Transactions == 0 {
			t.Fatalf("clean query %d should pay", i)
		}
		// Two mid-run checkpoints: the second exercises replacing (and
		// removing) an existing snapshot, not just writing the first one.
		if i == 2 || i == 4 {
			if err := c.CheckpointStore(); err != nil {
				t.Fatalf("clean checkpoint: %v", err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return rows, tx, fsys.Ops()
}

// walFrames extracts the WAL frames from the op log in append order. Every
// frame is written with a single write, so the writes to wal.log ARE the
// frames — including ones a later checkpoint truncated away.
func walFrames(t *testing.T, ops []diskfault.Op) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, op := range ops {
		if op.Kind == diskfault.OpWrite && op.Name == crashWALPath {
			frames = append(frames, op.Data)
			if got := frameSeq(t, op.Data); got != int64(len(frames)) {
				t.Fatalf("frame %d carries seq %d", len(frames), got)
			}
		}
	}
	if len(frames) == 0 {
		t.Fatal("clean run logged no WAL frames")
	}
	return frames
}

// frameSeq decodes the record sequence number from one WAL frame
// ([4B length][4B CRC][JSON payload]).
func frameSeq(t *testing.T, frame []byte) int64 {
	t.Helper()
	var rec struct {
		Seq int64 `json:"seq"`
	}
	if len(frame) < 8 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	if err := json.Unmarshal(frame[8:], &rec); err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	return rec.Seq
}

// snapshotRecords extracts the cumulative record count from snapshot bytes.
func snapshotRecords(data []byte) int64 {
	var hdr struct {
		Records int64 `json:"records"`
	}
	if json.Unmarshal(data, &hdr) != nil {
		return 0
	}
	return hdr.Records
}

// durableLowBound walks ops[0..k) and returns the record count the
// durability contract guarantees survives a crash at op k. In the strict
// model only fsync'd WAL contents and dir-synced snapshot renames count; in
// the torn model every completed op counts.
func durableLowBound(ops []diskfault.Op, k int, strict bool) int64 {
	var (
		walTop     int64 // highest seq in the volatile log
		walDurable int64 // highest seq the log guarantees
		files      = map[string][]byte{}
		renamed    = map[string]int64{} // snapshot records awaiting dir sync
		snapRecs   int64
	)
	for i := 0; i < k; i++ {
		op := ops[i]
		switch op.Kind {
		case diskfault.OpCreate:
			if op.Name == crashWALPath {
				if op.Truncated {
					walTop = 0
				}
			} else {
				files[op.Name] = nil
			}
		case diskfault.OpWrite:
			if op.Name == crashWALPath {
				var rec struct {
					Seq int64 `json:"seq"`
				}
				if len(op.Data) >= 8 && json.Unmarshal(op.Data[8:], &rec) == nil {
					walTop = rec.Seq
				}
				if !strict {
					walDurable = walTop
				}
			} else {
				files[op.Name] = append(files[op.Name], op.Data...)
			}
		case diskfault.OpSync:
			if op.Name == crashWALPath {
				walDurable = walTop
			}
		case diskfault.OpTruncate:
			if op.Name == crashWALPath && op.Size == 0 {
				walTop = 0
			}
		case diskfault.OpRename:
			recs := snapshotRecords(files[op.Name])
			if strict {
				renamed[op.NewName] = recs
			} else if recs > snapRecs {
				snapRecs = recs
			}
		case diskfault.OpRemove:
			delete(files, op.Name)
			delete(renamed, op.Name)
		case diskfault.OpSyncDir:
			if strict && op.Name == crashStoreDir {
				for _, recs := range renamed {
					if recs > snapRecs {
						snapRecs = recs
					}
				}
				renamed = map[string]int64{}
			}
		}
	}
	if snapRecs > walDurable {
		return snapRecs
	}
	return walDurable
}

// crashHarness shares the clean run and reference states across matrix
// points.
type crashHarness struct {
	base      *Client
	m         *market.Market
	w         *workload.WHW
	cleanRows [][][]string
	cleanTx   []int64
	total     int64
	ops       []diskfault.Op
	frames    [][]byte
	refs      map[int64]string // records recovered -> SaveStore output
	accounts  int
}

func newCrashHarness(t *testing.T) *crashHarness {
	return newCrashHarnessSync(t, StoreSyncPerCall, 0)
}

// newCrashHarnessSync runs the clean workload under the given WAL fsync
// policy. Recovery and rerun always use per-call sync — the crash models
// only read the clean run's op log.
func newCrashHarnessSync(t *testing.T, policy StoreSyncPolicy, batch int) *crashHarness {
	base, m, w := testSetup(t, nil)
	h := &crashHarness{base: base, m: m, w: w, refs: map[int64]string{}}
	h.cleanRows, h.cleanTx, h.ops = cleanRun(t, base, m, w, policy, batch)
	h.frames = walFrames(t, h.ops)
	for _, tx := range h.cleanTx {
		h.total += tx
	}
	t.Logf("clean run (%s): %d records, %d disk ops, %d transactions", policy, len(h.frames), len(h.ops), h.total)
	return h
}

func (h *crashHarness) account(prefix string) string {
	h.accounts++
	return fmt.Sprintf("%s-%d", prefix, h.accounts)
}

// reference returns the canonical SaveStore output of a store holding
// exactly the first n clean-run records, built by replaying those very WAL
// frames on a fresh client.
func (h *crashHarness) reference(t *testing.T, n int64) string {
	t.Helper()
	if s, ok := h.refs[n]; ok {
		return s
	}
	// Assemble the log out of the clean run's own frames (same bytes, same
	// timestamps) and recover a reference client from it.
	var log []byte
	for i := int64(0); i < n; i++ {
		log = append(log, h.frames[i]...)
	}
	img := diskfault.New()
	if err := img.MkdirAll(crashStoreDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if len(log) > 0 {
		writeFileTo(t, img, crashWALPath, log)
	}
	c := crashClient(t, h.base, h.m, h.w, img, h.account("crash-ref"), StoreSyncPerCall, 0)
	defer c.Close()
	info := c.StoreRecovery()
	if got := info.SnapshotRecords + int64(info.Replayed); got != n {
		t.Fatalf("reference for %d records recovered %d", n, got)
	}
	var b bytes.Buffer
	if err := c.SaveStore(&b); err != nil {
		t.Fatal(err)
	}
	h.refs[n] = b.String()
	return h.refs[n]
}

// checkImage recovers a client from a crash image and runs the three
// oracles. label names the crash point in failure messages.
func (h *crashHarness) checkImage(t *testing.T, img *diskfault.FS, strict bool, k int, label string) {
	t.Helper()
	c := crashClient(t, h.base, h.m, h.w, img, h.account("crash-img"), StoreSyncPerCall, 0)
	defer c.Close()
	info := c.StoreRecovery()
	n := info.SnapshotRecords + int64(info.Replayed)

	// Oracle 1: never phantom coverage, and the recovered state is exactly
	// the clean run's first n records.
	if n > int64(len(h.frames)) {
		t.Fatalf("%s: recovered %d records, clean run only wrote %d", label, n, len(h.frames))
	}
	var got bytes.Buffer
	if err := c.SaveStore(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != h.reference(t, n) {
		t.Fatalf("%s: recovered state is not the clean run's %d-record prefix (recovery %+v)", label, n, info)
	}

	// Oracle 2: everything the fsync contract promised is still there.
	if min := durableLowBound(h.ops, k, strict); n < min {
		t.Fatalf("%s: recovered %d records, durability contract guarantees %d (recovery %+v)", label, n, min, info)
	}

	// Oracle 3: re-running the workload returns the clean rows and bills at
	// most the clean total; a fully recovered store re-bills nothing.
	var rebill int64
	for i, sql := range crashQueries(h.w) {
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: rerun query %d: %v", label, i, err)
		}
		if len(res.Rows) != len(h.cleanRows[i]) {
			t.Fatalf("%s: rerun query %d rows = %d, clean %d", label, i, len(res.Rows), len(h.cleanRows[i]))
		}
		for j, row := range res.Rows {
			if fmt.Sprint(row) != fmt.Sprint(h.cleanRows[i][j]) {
				t.Fatalf("%s: rerun query %d row %d = %v, clean %v", label, i, j, row, h.cleanRows[i][j])
			}
		}
		rebill += res.Report.Transactions
	}
	if rebill > h.total {
		t.Fatalf("%s: rerun billed %d transactions, clean run billed %d", label, rebill, h.total)
	}
	if n == int64(len(h.frames)) && rebill != 0 {
		t.Fatalf("%s: fully recovered store re-billed %d transactions", label, rebill)
	}
}

func writeFileTo(t *testing.T, fsys *diskfault.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(crashStoreDir); err != nil {
		t.Fatal(err)
	}
}

// TestPowerCutTornMatrix kills the machine at every disk op — and, for
// writes, at every interesting torn prefix — under the fast-disk model
// where completed ops persisted in full.
func TestPowerCutTornMatrix(t *testing.T) {
	h := newCrashHarness(t)
	points := 0
	for k := 0; k <= len(h.ops); k++ {
		tears := []int{-1}
		if k < len(h.ops) && h.ops[k].Kind == diskfault.OpWrite {
			tears = append(tears, diskfault.WritePrefixes(len(h.ops[k].Data))...)
		}
		for _, tear := range tears {
			label := fmt.Sprintf("torn k=%d tear=%d", k, tear)
			if k < len(h.ops) {
				label += " op=" + h.ops[k].String()
			}
			h.checkImage(t, diskfault.Image(h.ops, k, tear), false, k, label)
			points++
		}
	}
	t.Logf("torn matrix: %d crash points", points)
}

// TestPowerCutStrictMatrix kills the machine at every disk op under the
// adversarial model where nothing beyond the fsync contract survives —
// the model that catches a missing Sync or SyncDir.
func TestPowerCutStrictMatrix(t *testing.T) {
	h := newCrashHarness(t)
	for k := 0; k <= len(h.ops); k++ {
		label := fmt.Sprintf("strict k=%d", k)
		if k < len(h.ops) {
			label += " op=" + h.ops[k].String()
		}
		h.checkImage(t, diskfault.ImageStrict(h.ops, k), true, k, label)
	}
	t.Logf("strict matrix: %d crash points", len(h.ops)+1)
}

// TestPowerCutBatchedStrictMatrix reruns the strict matrix with batched WAL
// fsyncs: an unsynced batch tail is legitimately lost, and the durability
// lower bound — derived from the actual sync ops — verifies exactly the
// synced prefix survives while the three oracles still hold.
func TestPowerCutBatchedStrictMatrix(t *testing.T) {
	h := newCrashHarnessSync(t, StoreSyncBatched, 2)
	for k := 0; k <= len(h.ops); k++ {
		label := fmt.Sprintf("batched-strict k=%d", k)
		if k < len(h.ops) {
			label += " op=" + h.ops[k].String()
		}
		h.checkImage(t, diskfault.ImageStrict(h.ops, k), true, k, label)
	}
}

// TestFsyncPolicyKeepsTheBill: the WAL fsync policy changes when bytes reach
// disk, never what is bought. The workload bills the same, query by query,
// under every policy, and the store recovered after a clean close answers
// the whole workload again for 0 transactions.
func TestFsyncPolicyKeepsTheBill(t *testing.T) {
	var want []int64
	for _, policy := range []StoreSyncPolicy{StoreSyncPerCall, StoreSyncBatched, StoreSyncOff} {
		h := newCrashHarnessSync(t, policy, 0)
		if want == nil {
			want = h.cleanTx
		} else if !slices.Equal(h.cleanTx, want) {
			t.Fatalf("%s billed %v per query, %s %v", policy, h.cleanTx, StoreSyncPerCall, want)
		}
		c := crashClient(t, h.base, h.m, h.w, diskfault.Image(h.ops, len(h.ops), -1), h.account("recovered"), policy, 0)
		for i, sql := range crashQueries(h.w) {
			res, err := c.Query(sql)
			if err != nil {
				t.Fatalf("%s: recovered query %d: %v", policy, i, err)
			}
			if res.Report.Transactions != 0 {
				t.Fatalf("%s: recovered store re-billed %d transactions on query %d", policy, res.Report.Transactions, i)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

package payless

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// brokenWriter fails every write, simulating a full disk or closed pipe.
type brokenWriter struct{ writes int }

func (w *brokenWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestAuditRecordsQueries pins the audit trail: one JSON line per executed
// query, carrying the SQL, the plan, the bill, and — when the query was
// traced — the trace-derived retry/store/total fields.
func TestAuditRecordsQueries(t *testing.T) {
	client, _, _, w := traceSetup(t, "audit", 4)
	var buf bytes.Buffer
	client.SetAuditLog(&buf)

	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[5])
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// The repeat is served from the store: its audit line must carry the
	// store-hit accounting.
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 audit lines, got %d: %q", len(lines), buf.String())
	}
	var first, second AuditRecord
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.SQL != sql || first.Plan == "" {
		t.Errorf("first line: %+v", first)
	}
	if first.Transactions != res.Report.Transactions || first.Calls != res.Report.Calls {
		t.Errorf("first line bill %+v vs report %+v", first, res.Report)
	}
	if first.TotalMicros <= 0 {
		t.Error("traced query must audit its total duration")
	}
	if second.Transactions != 0 {
		t.Errorf("repeat should be free: %+v", second)
	}
	if second.StoreHits == 0 || second.StoreHitRows == 0 {
		t.Errorf("repeat must audit the store hit: %+v", second)
	}
	if first.Time.IsZero() || second.Time.IsZero() {
		t.Error("audit lines must be timestamped")
	}
}

// TestAuditUntracedOmitsTraceFields pins the optional fields: without a
// tracer the retry/store/total fields stay absent from the JSON.
func TestAuditUntracedOmitsTraceFields(t *testing.T) {
	client, w := errorSetup(t)
	var buf bytes.Buffer
	client.SetAuditLog(&buf)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, field := range []string{"storeHits", "storeHitRows", "totalMicros", "retries"} {
		if strings.Contains(line, field) {
			t.Errorf("untraced audit line must omit %q: %s", field, line)
		}
	}
}

// TestAuditWriterFailureDoesNotFailQuery pins the contract documented on
// writeAudit: auditing must never fail a query.
func TestAuditWriterFailureDoesNotFailQuery(t *testing.T) {
	client, w := errorSetup(t)
	bw := &brokenWriter{}
	client.SetAuditLog(bw)
	res, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3]))
	if err != nil {
		t.Fatalf("query must survive a failing audit writer: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("result must be intact")
	}
	if bw.writes == 0 {
		t.Error("the audit writer must have been attempted")
	}
	// Disabling the log stops the writes.
	client.SetAuditLog(nil)
	if _, err := client.Query(fmt.Sprintf(
		"SELECT * FROM Weather WHERE Country = 'China' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])); err != nil {
		t.Fatal(err)
	}
	if bw.writes != 1 {
		t.Errorf("writer called %d times after being detached, want 1", bw.writes)
	}
}

func TestAuditLog(t *testing.T) {
	client, _, w := testSetup(t, nil)
	var buf bytes.Buffer
	client.SetAuditLog(&buf)
	sql := fmt.Sprintf("SELECT COUNT(*) FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("audit lines: %d", len(lines))
	}
	var rec AuditRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SQL != sql || rec.Transactions <= 0 || rec.Plan == "" {
		t.Errorf("first record: %+v", rec)
	}
	var rec2 AuditRecord
	json.Unmarshal([]byte(lines[1]), &rec2)
	if rec2.Transactions != 0 {
		t.Errorf("second run should audit as free: %+v", rec2)
	}
	// Turning the log off stops writing.
	client.SetAuditLog(nil)
	client.Query(sql)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("log should be off: %d lines", got)
	}
}

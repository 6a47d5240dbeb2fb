package payless

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestAdviseAndCompleteDownload(t *testing.T) {
	client, m, w := testSetup(t, nil)
	// Fresh client: nothing spent, nothing to complete yet.
	for _, a := range client.Advise() {
		if a.CompleteNow || a.SpentSoFar != 0 {
			t.Errorf("fresh advice: %+v", a)
		}
	}
	// Buy most of Pollution; the remainder becomes cheaper than history.
	if _, err := client.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 95"); err != nil {
		t.Fatal(err)
	}
	var pol Advice
	for _, a := range client.Advise() {
		if a.Coverage.Table == "Pollution" {
			pol = a
		}
	}
	if pol.SpentSoFar == 0 {
		t.Fatal("spend history should be visible")
	}
	if !pol.CompleteNow {
		t.Errorf("advisor should recommend completing: %+v", pol)
	}

	// Complete the download: pays only the remainder, then full coverage.
	before, _ := m.MeterOf("acct")
	rep, err := client.CompleteDownload("Pollution")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := m.MeterOf("acct")
	if after.Transactions-before.Transactions != rep.Transactions {
		t.Errorf("report mismatch: meter moved %d, report says %d",
			after.Transactions-before.Transactions, rep.Transactions)
	}
	cov := coverageOf(t, client, "Pollution")
	if !cov.FullyCovered {
		t.Error("table must be fully covered after CompleteDownload")
	}
	// Completing again is free.
	rep2, err := client.CompleteDownload("Pollution")
	if err != nil || rep2.Transactions != 0 {
		t.Errorf("idempotent completion: %+v %v", rep2, err)
	}
	// The remainder path never exceeds a fresh download and re-buys fewer
	// records (the already-owned 95% stays owned).
	fullPrice := int64((len(w.PollutionRows) + 99) / 100)
	if rep.Transactions > fullPrice {
		t.Errorf("completion (%d) must not exceed a fresh download (%d)", rep.Transactions, fullPrice)
	}
	if rep.Records >= int64(len(w.PollutionRows)) {
		t.Errorf("completion re-bought the table: %d of %d records", rep.Records, len(w.PollutionRows))
	}
}

func TestCompleteDownloadErrors(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if _, err := client.CompleteDownload("Ghost"); err == nil {
		t.Error("unknown table")
	}
	if _, err := client.CompleteDownload("ZipMap"); err == nil {
		t.Error("local table")
	}
	noSQR, _, _ := testSetup(t, func(c *Config) { c.Consistency = Strong() })
	if _, err := noSQR.CompleteDownload("Pollution"); err == nil {
		t.Error("requires SQR")
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

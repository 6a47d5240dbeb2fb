package payless

import (
	"errors"
	"testing"

	"payless/internal/market"
)

// TestCloseDrainsInflightQueries pins Close's contract against the durable
// store: a query already executing when Close starts finishes normally and
// its purchase is durably recorded, concurrent Closes are safe and
// idempotent, and queries submitted after Close fail fast with ErrClosed.
// Run under -race this is the regression test for the Close/QueryContext
// race on the write-ahead log.
func TestCloseDrainsInflightQueries(t *testing.T) {
	dir := t.TempDir()
	m := stressMarket(t, "acct")
	gc := &gatedCaller{inner: market.AccountCaller{Market: m, Key: "acct"}}
	open := func() *Client {
		client, err := Open(Config{
			Tables:               m.ExportCatalog(),
			Caller:               gc,
			TuplesPerTransaction: map[string]int{"DS": 10},
			StoreDir:             dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return client
	}
	client := open()

	gate := make(chan struct{})
	gc.setGate(gate)
	queryErr := make(chan error, 1)
	go func() {
		_, err := client.Query("SELECT v FROM T WHERE a >= 1 AND a <= 40")
		queryErr <- err
	}()
	waitForCond(t, "the query to reach the wire", func() bool { return gc.arrivals() == 1 })

	// Two concurrent Closes while the query is demonstrably in flight. Both
	// must block until the query drains — returning earlier would close the
	// WAL under the query's feet.
	closeErr := make(chan error, 2)
	go func() { closeErr <- client.Close() }()
	go func() { closeErr <- client.Close() }()
	select {
	case err := <-closeErr:
		t.Fatalf("Close returned with a query still in flight: %v", err)
	default:
	}

	close(gate)
	if err := <-queryErr; err != nil {
		t.Fatalf("in-flight query failed during Close: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-closeErr; err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
	}
	// After Close: fail-fast rejection, and a third Close stays a no-op.
	if _, err := client.Query("SELECT v FROM T WHERE a >= 1 AND a <= 40"); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close: %v, want ErrClosed", err)
	}
	if _, err := client.QueryBatch([]string{"SELECT v FROM T WHERE a >= 1 AND a <= 10"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after Close: %v, want ErrClosed", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}

	// The drained query's purchase reached the log before it closed: a fresh
	// client on the same store directory owns the rows and re-reads free.
	gc.setGate(nil)
	re := open()
	defer re.Close()
	if got := re.store.StoredRowCount("T"); got != 40 {
		t.Fatalf("recovered store holds %d rows, want 40", got)
	}
	before, _ := m.MeterOf("acct")
	if _, err := re.Query("SELECT v FROM T WHERE a >= 1 AND a <= 40"); err != nil {
		t.Fatal(err)
	}
	if after, _ := m.MeterOf("acct"); after != before {
		t.Fatalf("recovered coverage re-billed: %+v -> %+v", before, after)
	}
}

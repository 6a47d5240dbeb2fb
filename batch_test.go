package payless

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestQueryBatchResultsMatchSequential(t *testing.T) {
	c1, _, w := testSetup(t, nil)
	c2, _, _ := testSetup(t, nil)
	sqls := []string{
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[6]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[10]),
		fmt.Sprintf("SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 50"),
	}
	batch, err := c1.QueryBatch(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(sqls) {
		t.Fatalf("batch results: %d", len(batch))
	}
	for i, br := range batch {
		if br.Index != i {
			t.Fatalf("results must come back in submission order: %v", br.Index)
		}
		seq, err := c2.Query(sqls[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(br.Rows) != len(seq.Rows) {
			t.Errorf("statement %d: batch %d rows, sequential %d rows", i, len(br.Rows), len(seq.Rows))
		}
	}
}

// TestQueryBatchBooksEachPlan: every executed batch statement is booked as
// planned exactly once — in the planner metrics and on its trace — however
// many rounds re-optimized it before it ran.
func TestQueryBatchBooksEachPlan(t *testing.T) {
	client, _, w := testSetup(t, func(c *Config) { c.Tracer = &CollectTracer{} })
	sqls := []string{
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[2], w.Dates[6]),
		fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[10]),
		"SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 50",
	}
	batch, err := client.QueryBatch(sqls)
	if err != nil {
		t.Fatal(err)
	}
	st := client.Metrics()
	if st.Queries != int64(len(sqls)) || st.PlansDP != int64(len(sqls)) || st.PlansCached != 0 {
		t.Errorf("batch of %d booked %d queries, %d dp plans, %d cached plans",
			len(sqls), st.Queries, st.PlansDP, st.PlansCached)
	}
	for _, br := range batch {
		if br.Trace == nil || br.Trace.Plan != br.Plan || br.Trace.Planner != PlannerDP {
			t.Errorf("statement %d: trace %+v does not book plan %q", br.Index, br.Trace, br.Plan)
		}
	}
}

func TestQueryBatchSubsumedQueryIsFree(t *testing.T) {
	client, _, w := testSetup(t, nil)
	small := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[5], w.Dates[8])
	big := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d", w.Dates[0], w.Dates[15])
	// Submitted small-first; the batch optimizer must run the big one first
	// so the small one is answered from the store.
	batch, err := client.QueryBatch([]string{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Report.Transactions != 0 {
		t.Errorf("subsumed query should be free in a batch: %+v", batch[0].Report)
	}
	if batch[1].Report.Transactions <= 0 {
		t.Errorf("covering query should pay: %+v", batch[1].Report)
	}
}

func TestQueryBatchNeverWorseThanArrivalOrder(t *testing.T) {
	mk := func() (*Client, []string) {
		c, _, w := testSetup(t, nil)
		var sqls []string
		// Ascending query sizes: arrival order pays ceil() per sliver.
		for i := 2; i <= 14; i += 3 {
			sqls = append(sqls, fmt.Sprintf(
				"SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
				w.Dates[0], w.Dates[i]))
		}
		return c, sqls
	}
	cb, sqls := mk()
	if _, err := cb.QueryBatch(sqls); err != nil {
		t.Fatal(err)
	}
	cs, sqls2 := mk()
	for _, sql := range sqls2 {
		if _, err := cs.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	if cb.TotalSpend().Transactions > cs.TotalSpend().Transactions {
		t.Errorf("batch (%d) must not cost more than arrival order (%d)",
			cb.TotalSpend().Transactions, cs.TotalSpend().Transactions)
	}
}

func TestQueryBatchErrors(t *testing.T) {
	client, _, _ := testSetup(t, nil)
	if _, err := client.QueryBatch([]string{"garbage"}); err == nil {
		t.Error("parse error expected")
	}
	if _, err := client.QueryBatch([]string{"SELECT * FROM Ghost"}); err == nil {
		t.Error("bind error expected")
	}
	out, err := client.QueryBatch(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v %v", out, err)
	}
}

func TestCoverage(t *testing.T) {
	client, _, w := testSetup(t, nil)
	cov := client.Coverage()
	names := make([]string, 0, len(cov))
	for _, tc := range cov {
		names = append(names, tc.Table)
		if tc.StoredRows != 0 || tc.FullyCovered {
			t.Errorf("fresh client should own nothing: %+v", tc)
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "Pollution,Station,Weather" {
		t.Errorf("coverage tables: %v (local ZipMap must be excluded)", names)
	}

	// Query everything from Pollution; it becomes fully covered.
	if _, err := client.Query("SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 100"); err != nil {
		t.Fatal(err)
	}
	_ = w
	for _, tc := range client.Coverage() {
		if tc.Table != "Pollution" {
			continue
		}
		if !tc.FullyCovered || tc.CoveredFraction < 0.99 || tc.StoredCalls == 0 {
			t.Errorf("Pollution should be fully covered: %+v", tc)
		}
	}
}

// errOverCap is capAdmitter's refusal.
var errOverCap = errors.New("estimate over cap")

// capAdmitter is an Admitter that refuses any estimate above max and
// records every reservation it grants and every settlement.
type capAdmitter struct {
	max int64

	mu       sync.Mutex
	reserved []int64
	settled  int
}

func (a *capAdmitter) Reserve(_ context.Context, est int64) error {
	if est > a.max {
		return errOverCap
	}
	a.mu.Lock()
	a.reserved = append(a.reserved, est)
	a.mu.Unlock()
	return nil
}

func (a *capAdmitter) Settle(context.Context, int64, int64) {
	a.mu.Lock()
	a.settled++
	a.mu.Unlock()
}

// TestQueryBatchHonoursBudget: each batch statement is admitted on its own,
// like a Query — one estimated above the admitter's cap is refused before
// any call, and every admitted statement is settled once.
func TestQueryBatchHonoursBudget(t *testing.T) {
	adm := &capAdmitter{max: 1}
	client, m, w := testSetup(t, func(c *Config) { c.Admitter = adm })
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[len(w.Dates)-1])
	if _, err := client.QueryBatch([]string{sql}); !errors.Is(err, errOverCap) {
		t.Fatalf("want errOverCap, got %v", err)
	}
	if meter, _ := m.MeterOf("acct"); meter.Calls != 0 {
		t.Fatalf("over-budget batch made %d market calls", meter.Calls)
	}
	cheap := []string{
		"SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 1 AND Rank <= 2",
		"SELECT COUNT(ZipCode) FROM Pollution WHERE Rank >= 51 AND Rank <= 52",
	}
	if _, err := client.QueryBatch(cheap); err != nil {
		t.Fatal(err)
	}
	if len(adm.reserved) != len(cheap) || adm.settled != len(cheap) {
		t.Fatalf("batch of %d made %d reservations and %d settlements, want one each per statement",
			len(cheap), len(adm.reserved), adm.settled)
	}
}

// TestQueryBatchBooksFailedSpend: a batch statement that dies mid-plan has
// still paid for its first call; that spend is booked in TotalSpend and the
// failed-spend metrics, exactly as for Query.
func TestQueryBatchBooksFailedSpend(t *testing.T) {
	client, fc, w := flakySetup(t)
	// The bind join's Station call succeeds; its Weather calls fail.
	sql := fmt.Sprintf(
		"SELECT Temperature FROM Station, Weather "+
			"WHERE City = 'Seattle' AND Station.Country = Weather.Country = 'United States' "+
			"AND Date >= %d AND Date <= %d AND Station.StationID = Weather.StationID",
		w.Dates[0], w.Dates[29])
	fc.arm(2)
	if _, err := client.QueryBatch([]string{sql}); !errors.Is(err, errMarketDown) {
		t.Fatalf("mid-plan outage must surface: %v", err)
	}
	spent := client.TotalSpend().Transactions
	if spent == 0 {
		t.Fatal("the failed statement's paid call is missing from TotalSpend")
	}
	if failed := client.Metrics().FailedQuerySpendTransactions; failed != spent {
		t.Fatalf("failed-spend metric %d, TotalSpend %d", failed, spent)
	}
}

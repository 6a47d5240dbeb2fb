package market

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

// TestConcurrentCallsConserveBilling is the billing-conservation property:
// under heavy concurrent Calls the meter must equal exactly the sum of the
// per-call results — Transactions == Σ ceil(records_i/t) and
// Price == p·Transactions — with no lost or double-counted increments.
func TestConcurrentCallsConserveBilling(t *testing.T) {
	const (
		tpt     = 7   // tuples per transaction
		price   = 0.5 // per transaction
		rows    = 500
		workers = 16
		calls   = 25 // per worker
	)
	m := New()
	ds, err := m.AddDataset("DS", tpt, price)
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.Table{
		Name:   "T",
		Schema: value.Schema{{Name: "K", Type: value.Int}},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: rows},
		},
	}
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i + 1))}
	}
	if err := ds.AddTable(meta, data); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	caller := AccountCaller{Market: m, Key: "acct"}

	results := make([]Result, workers*calls)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				lo := int64(rng.Intn(rows) + 1)
				hi := lo + int64(rng.Intn(rows/4))
				res, err := caller.Call(context.Background(), catalog.AccessQuery{
					Dataset: "DS", Table: "T",
					Preds: []catalog.Pred{{Attr: "K", Lo: &lo, Hi: &hi}},
				})
				if err != nil {
					panic(fmt.Sprintf("worker %d call %d: %v", g, i, err))
				}
				results[g*calls+i] = res
			}
		}(g)
	}
	wg.Wait()

	var wantRecords, wantTrans int64
	var wantPrice float64
	for _, res := range results {
		records := int64(res.Records)
		ceil := (records + tpt - 1) / tpt
		if res.Transactions != ceil {
			t.Fatalf("per-call transactions %d != ceil(%d/%d)", res.Transactions, records, tpt)
		}
		wantRecords += records
		wantTrans += ceil
		wantPrice += price * float64(ceil)
	}
	meter, ok := m.MeterOf("acct")
	if !ok {
		t.Fatal("meter missing")
	}
	if meter.Calls != workers*calls {
		t.Errorf("meter.Calls = %d, want %d", meter.Calls, workers*calls)
	}
	if meter.Records != wantRecords {
		t.Errorf("meter.Records = %d, want %d", meter.Records, wantRecords)
	}
	if meter.Transactions != wantTrans {
		t.Errorf("meter.Transactions = %d, want Σ ceil(records/t) = %d", meter.Transactions, wantTrans)
	}
	if diff := meter.Price - wantPrice; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("meter.Price = %v, want %v", meter.Price, wantPrice)
	}
}

// TestConcurrentAppendAndCall races owner-side publishes against buyer
// scans and catalog exports; the race detector verifies the locking, and
// every scan must observe internally consistent rows (correct width).
func TestConcurrentAppendAndCall(t *testing.T) {
	m := New()
	ds, err := m.AddDataset("DS", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.Table{
		Name: "T",
		Schema: value.Schema{
			{Name: "K", Type: value.Int},
			{Name: "V", Type: value.Int},
		},
		Attrs: []catalog.Attribute{
			{Name: "K", Type: value.Int, Binding: catalog.Free, Class: catalog.NumericAttr, Min: 1, Max: 1000000},
			{Name: "V", Type: value.Int, Binding: catalog.Output},
		},
	}
	if err := ds.AddTable(meta, []value.Row{{value.NewInt(1), value.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("acct")
	caller := AccountCaller{Market: m, Key: "acct"}

	var buyers, publisher sync.WaitGroup
	stop := make(chan struct{})
	publisher.Add(1)
	go func() { // owner keeps publishing
		defer publisher.Done()
		for i := int64(2); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ds.Append("T", []value.Row{{value.NewInt(i), value.NewInt(i)}}); err != nil {
				panic(err)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		buyers.Add(1)
		go func(g int) { // buyers keep scanning and exporting the catalog
			defer buyers.Done()
			for i := 0; i < 50; i++ {
				lo, hi := int64(1), int64(1000000)
				res, err := caller.Call(context.Background(), catalog.AccessQuery{
					Dataset: "DS", Table: "T",
					Preds: []catalog.Pred{{Attr: "K", Lo: &lo, Hi: &hi}},
				})
				if err != nil {
					panic(err)
				}
				for _, r := range res.Batch.Rows() {
					if len(r) != 2 {
						panic(fmt.Sprintf("torn row: %v", r))
					}
				}
				if tabs := m.ExportCatalog(); len(tabs) != 1 {
					panic("catalog export lost the table")
				}
			}
		}(g)
	}
	buyers.Wait()
	close(stop)
	publisher.Wait()
}

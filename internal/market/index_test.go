package market_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

// indexSeeds is how many seeds TestIndexedReadMatchesScan sweeps per table.
const indexSeeds = 25

// shapes are the tables the differential reads: TPC-H's Lineitem, six
// numeric dimensions, and WHW's Weather, a categorical Country beside a
// numeric StationID and Date. Both are small enough to scan per call.
func shapes() map[string]struct {
	meta *catalog.Table
	rows []value.Row
} {
	d := workload.GenerateTPCH(workload.TPCHConfig{Seed: 3, ScaleFactor: 0.1})
	cfg := workload.DefaultWHWConfig()
	cfg.Countries, cfg.StationsPerCountry, cfg.Days = 6, 5, 40
	w := workload.GenerateWHW(cfg)
	return map[string]struct {
		meta *catalog.Table
		rows []value.Row
	}{"tpch": {d.Lineitem, d.LineitemRows}, "whw": {w.Weather, w.WeatherRows}}
}

// published is a one-table market on a clipped copy of rows, so appends
// never write into an array another market shares.
func published(t testing.TB, meta *catalog.Table, rows []value.Row) (*market.Market, *market.Dataset) {
	t.Helper()
	m := market.New()
	ds, err := m.AddDataset("D", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTable(meta, slices.Clip(slices.Clone(rows))); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	return m, ds
}

// outsiders are categorical values no generated domain holds.
var outsiders = []value.Value{value.NewString("Atlantis"), value.NewString("Nowhere"), value.NewNull()}

// randomCall draws a call on meta over rows: one in ten has no predicates;
// the others constrain each queryable attribute with probability ½. A
// categorical attribute gets an equality on a row's value, a domain value or
// an outsider. A numeric one gets an equality or an inclusive range whose
// ends are the domain's Min and Max (as the market now advertises them),
// rows' values, their neighbours or points past the domain, sometimes
// open on one side and sometimes inverted (empty).
func randomCall(rng *rand.Rand, meta *catalog.Table, rows []value.Row) catalog.AccessQuery {
	q := catalog.AccessQuery{Table: meta.Name}
	if rng.Intn(10) == 0 {
		return q
	}
	for col, a := range meta.Attrs {
		if a.Binding == catalog.Output || rng.Intn(2) == 0 {
			continue
		}
		row := rows[rng.Intn(len(rows))]
		if a.Class == catalog.CategoricalAttr {
			v := row[col]
			switch rng.Intn(6) {
			case 0:
				v = a.Domain[rng.Intn(len(a.Domain))]
			case 1:
				v = outsiders[rng.Intn(len(outsiders))]
			}
			q.Preds = append(q.Preds, catalog.Pred{Attr: a.Name, Eq: &v})
			continue
		}
		end := func() int64 {
			switch rng.Intn(4) {
			case 0:
				return []int64{a.Min, a.Max}[rng.Intn(2)]
			case 1:
				return []int64{a.Min - 1 - rng.Int63n(3), a.Max + 1 + rng.Int63n(3)}[rng.Intn(2)]
			default:
				return rows[rng.Intn(len(rows))][col].AsInt() + int64(rng.Intn(3)-1)
			}
		}
		if rng.Intn(4) == 0 {
			v := value.NewInt(end())
			q.Preds = append(q.Preds, catalog.Pred{Attr: a.Name, Eq: &v})
			continue
		}
		lo, hi := end(), end()
		if rng.Intn(4) > 0 && lo > hi {
			lo, hi = hi, lo
		}
		p := catalog.Pred{Attr: a.Name, Lo: &lo, Hi: &hi}
		switch rng.Intn(6) {
		case 0:
			p.Lo = nil
		case 1:
			p.Hi = nil
		}
		q.Preds = append(q.Preds, p)
	}
	return q
}

// appendBatch draws n rows to append: copies of stored rows, each numeric
// dimension moved past the domain's Max with probability ¼ (the market
// widens it), each categorical one replaced by an outsider with
// probability ¼.
func appendBatch(rng *rand.Rand, meta *catalog.Table, rows []value.Row, n int) []value.Row {
	out := make([]value.Row, n)
	for i := range out {
		r := slices.Clone(rows[rng.Intn(len(rows))])
		for col, a := range meta.Attrs {
			if a.Binding == catalog.Output || rng.Intn(4) > 0 {
				continue
			}
			if a.Class == catalog.CategoricalAttr {
				r[col] = outsiders[rng.Intn(len(outsiders))]
			} else {
				r[col] = value.NewInt(a.Max + 1 + rng.Int63n(20))
			}
		}
		out[i] = r
	}
	return out
}

// scan is the reference read: the rows the call's filter matches, in table
// order, and how many rows lie in the call's coordinate box — the rows the
// indexed read must test. A row lies in the box when each predicate holds
// for it, except that an equality on a categorical value outside the
// domain holds for every value outside it (they share one coordinate). A
// call without predicates tests nothing.
func scan(meta *catalog.Table, rows []value.Row, q catalog.AccessQuery) (want []value.Row, inBox int) {
	f := catalog.CompileFilter(meta, q)
	holds := make([]func(value.Row) bool, len(q.Preds))
	for i, p := range q.Preds {
		a, _ := meta.Attr(p.Attr)
		if p.Eq != nil && a.Class == catalog.CategoricalAttr {
			if _, err := a.Coord(*p.Eq); err != nil {
				col := meta.Schema.IndexOf(p.Attr)
				holds[i] = func(r value.Row) bool { _, err := a.Coord(r[col]); return err != nil }
				continue
			}
		}
		holds[i] = catalog.CompileFilter(meta, catalog.AccessQuery{Preds: q.Preds[i : i+1]}).Matches
	}
	for _, r := range rows {
		if f.Matches(r) {
			want = append(want, r)
		}
		in := len(q.Preds) > 0
		for _, h := range holds {
			in = in && h(r)
		}
		inBox += int(b2i(in))
	}
	return want, inBox
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestIndexedReadMatchesScan is the differential test of the market's
// indexed read against a full Filter.Matches scan. For each table and seed
// it reads random calls (equalities, ranges touching Min and Max, half-open,
// empty and predicate-free calls, outsiders), appends batches of 1 to 97
// rows — so the index's runs merge, and appended rows carry outsiders and
// widen numeric domains — and reads again. Every call must return the
// scan's rows in table order, bill them, and test exactly the rows in its
// coordinate box (market_rows_examined_total).
func TestIndexedReadMatchesScan(t *testing.T) {
	for name, shape := range shapes() {
		for seed := int64(1); seed <= indexSeeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				repro := fmt.Sprintf("go test ./internal/market -run 'TestIndexedReadMatchesScan/%s/seed=%d$'", name, seed)
				rng := rand.New(rand.NewSource(seed))
				m, ds := published(t, shape.meta, shape.rows)
				rows := slices.Clone(shape.rows)
				for round := range 5 {
					if round > 0 {
						batch := appendBatch(rng, shape.meta, rows, []int{1, 3, 97, 2, 40}[rng.Intn(5)])
						if err := ds.Append(shape.meta.Name, batch); err != nil {
							t.Fatal(err)
						}
						rows = append(rows, batch...)
					}
					meta := m.ExportCatalog()[0] // the widened domains
					for range 40 {
						q := randomCall(rng, meta, rows)
						want, inBox := scan(shape.meta, rows, q)
						before := m.Metrics()
						res, err := m.Execute("k", q)
						if err != nil {
							t.Fatalf("%v: %v (repro: %s)", q, err, repro)
						}
						examined := m.Metrics().RowsExamined - before.RowsExamined
						if !slices.EqualFunc(res.Batch.Rows(), want, slices.Equal) || res.Records != len(want) {
							t.Fatalf("round %d: %v: %d rows, the scan %d (repro: %s)", round, q, res.Batch.N, len(want), repro)
						}
						if examined != int64(inBox) {
							t.Fatalf("round %d: %v: tested %d rows, %d lie in its box (repro: %s)", round, q, examined, inBox, repro)
						}
					}
				}
			})
		}
	}
}

// TestIndexedReadDuringAppends reads while the owner appends: every result
// must be the scan of the table as it stood after some whole append. Run
// it under -race.
func TestIndexedReadDuringAppends(t *testing.T) {
	shape := shapes()["whw"]
	m, ds := published(t, shape.meta, shape.rows)
	rng := rand.New(rand.NewSource(1))
	history, ends := slices.Clone(shape.rows), []int{len(shape.rows)}
	var batches [][]value.Row
	for range 8 {
		batches = append(batches, appendBatch(rng, shape.meta, history, 1+rng.Intn(60)))
		history = append(history, batches[len(batches)-1]...)
		ends = append(ends, len(history))
	}
	calls := make([]catalog.AccessQuery, 60)
	for i := range calls {
		calls[i] = randomCall(rng, shape.meta, shape.rows)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			if err := ds.Append(shape.meta.Name, b); err != nil {
				t.Error(err)
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range calls {
				res, err := m.Execute("k", q)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.ContainsFunc(ends, func(end int) bool {
					want, _ := scan(shape.meta, history[:end], q)
					return slices.EqualFunc(res.Batch.Rows(), want, slices.Equal)
				}) {
					t.Errorf("%v: %d rows match the table after no whole append", q, res.Batch.N)
				}
			}
		}()
	}
	wg.Wait()
}

// TestShipDateCallExaminesItsSpan pins the seller's work on one call
// exactly: at the default TPC-H scale, Lineitem with ShipDate in [74, 428]
// tests the rows of that span, not all 30 000.
func TestShipDateCallExaminesItsSpan(t *testing.T) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	m := market.New()
	if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("k")
	col := d.Lineitem.Schema.IndexOf("ShipDate")
	span := 0
	for _, r := range d.LineitemRows {
		span += int(b2i(74 <= r[col].AsInt() && r[col].AsInt() <= 428))
	}
	res, err := m.Execute("k", catalog.AccessQuery{Table: "Lineitem", Preds: []catalog.Pred{
		{Attr: "ShipDate", Lo: catalog.IntPtr(74), Hi: catalog.IntPtr(428)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	examined := m.Metrics().RowsExamined
	if len(d.LineitemRows) != 30000 || res.Records != span || examined != int64(span) {
		t.Fatalf("of %d rows, the call returned %d and tested %d; %d lie in the span",
			len(d.LineitemRows), res.Records, examined, span)
	}
}

// recordedCalls records the market calls of passes of tpch_buy-style
// traffic: each pass a fresh client, so a fresh store, issuing 15 instances
// of each of the TPC-H templates but T2, in the benchmark's mix.
func recordedCalls(b *testing.B, d *workload.TPCH, m *market.Market, passes int) []catalog.AccessQuery {
	var calls []catalog.AccessQuery
	var mu sync.Mutex
	tmpl := d.Templates()
	mix := []workload.Template{tmpl[0], tmpl[2], tmpl[3], tmpl[4]}
	for pass := range passes {
		key := fmt.Sprintf("pass%d", pass)
		m.RegisterAccount(key)
		inner := market.AccountCaller{Market: m, Key: key}
		c, err := payless.Open(payless.Config{
			Tables: append(m.ExportCatalog(), d.Nation, d.Region),
			Caller: market.CallerFunc(func(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
				mu.Lock()
				calls = append(calls, q)
				mu.Unlock()
				return inner.Call(ctx, q)
			}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.LoadLocal("Nation", d.NationRows); err != nil {
			b.Fatal(err)
		}
		if err := c.LoadLocal("Region", d.RegionRows); err != nil {
			b.Fatal(err)
		}
		for _, sql := range workload.Mix(mix, 15, 42*1_000_003+int64(pass)) {
			if _, err := c.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
		c.Close()
	}
	return calls
}

// BenchmarkMarketServe replays the recorded calls of three tpch_buy-style
// passes against the seller and reports, per call, the microseconds spent in
// Execute (index read, filter, bill), in encoding every page of the result
// and in decoding those pages as the buyer does, and the kilobytes of the
// pages' bodies:
//
//	go test ./internal/market -run '^$' -bench MarketServe -benchtime 20x
func BenchmarkMarketServe(b *testing.B) {
	d := workload.GenerateTPCH(workload.DefaultTPCHConfig())
	m := market.New()
	if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
		b.Fatal(err)
	}
	calls := recordedCalls(b, d, m, 3)
	m.RegisterAccount("bench")
	var exec, encode, decode time.Duration
	var buf []byte
	rows, bytes := 0, 0
	b.ResetTimer()
	for range b.N {
		for _, q := range calls {
			start := time.Now()
			res, err := m.Execute("bench", q)
			if err != nil {
				b.Fatal(err)
			}
			exec += time.Since(start)
			rows += res.Records
			for from, page := 0, 0; from == 0 || from < res.Batch.N; from, page = from+market.PageRows, page+1 {
				to := min(from+market.PageRows, res.Batch.N)
				next := page + 1
				if to == res.Batch.N {
					next = 0
				}
				start := time.Now()
				buf = market.AppendResultPage(buf[:0], res, from, to, next)
				mid := time.Now()
				if _, _, err := market.DecodeResultPage(buf); err != nil {
					b.Fatal(err)
				}
				encode, decode = encode+mid.Sub(start), decode+time.Since(mid)
				bytes += len(buf)
			}
		}
	}
	n := float64(b.N * len(calls))
	b.ReportMetric(float64(len(calls)), "calls/op")
	b.ReportMetric(float64(rows)/n, "rows/call")
	b.ReportMetric(float64(exec.Microseconds())/n, "execute_us/call")
	b.ReportMetric(float64(encode.Microseconds())/n, "encode_us/call")
	b.ReportMetric(float64(decode.Microseconds())/n, "decode_us/call")
	b.ReportMetric(float64(bytes)/1024/n, "KB/call")
}

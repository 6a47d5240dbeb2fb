// Command payless is the buyer-side SQL client: it registers with a data
// market (a running marketd, or an in-process demo market), then reads SQL
// statements and prints results plus the money each query cost.
//
// Interactive demo (in-process market, no server needed):
//
//	payless -demo whw
//
// Against a market server:
//
//	payless -market http://localhost:8080 -key demo -local whw
//
// Meta commands at the prompt: \spend (cumulative bill), \explain SQL
// (optimize without paying), \trace (execution trace of the last query),
// \metrics (cumulative counters), \q (quit).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	payless "payless"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/value"
	"payless/internal/workload"
)

func main() {
	var (
		marketURL = flag.String("market", "", "market server base URL (e.g. http://localhost:8080)")
		key       = flag.String("key", "demo", "buyer account key")
		local     = flag.String("local", "", "local tables to load: whw (ZipMap) or tpch (Nation, Region); must match the server's -datasets and -seed")
		demo      = flag.String("demo", "", "run fully in-process with this dataset: whw or tpch")
		seed      = flag.Int64("seed", 1, "data generator seed (must match the server)")
		noSQR     = flag.Bool("no-sqr", false, "disable semantic query rewriting")
		minCalls  = flag.Bool("min-calls", false, "optimize for number of calls instead of price")
		planCache = flag.Int("plan-cache", 0, "plan-template cache capacity; 0 disables, negative uses the default size")
		store     = flag.String("store", "", "durable store directory: purchases are WAL-logged and snapshotted there, and recovered on startup")
		storeSync = flag.String("store-sync", "per-call", "durable store WAL fsync policy: per-call, batched or off")
		execute   = flag.String("e", "", "execute one statement and exit")
	)
	flag.Parse()

	client, err := buildClient(*marketURL, *key, *local, *demo, *seed, *noSQR, *minCalls, *planCache, *store, *storeSync)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if *store != "" {
		info := client.StoreRecovery()
		fmt.Printf("durable store %s: recovered %d records (snapshot %d + %d replayed)\n",
			*store, info.SnapshotRecords+int64(info.Replayed), info.SnapshotRecords, info.Replayed)
	}

	if *execute != "" {
		if err := runStatement(client, *execute); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Println("payless — SQL over the data market. \\q to quit, \\spend for the bill, \\tables to list tables, \\coverage for owned data, \\explain <sql> to preview a plan, \\trace for the last query's execution trace, \\metrics for cumulative counters.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("payless> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\spend`:
			r := client.TotalSpend()
			fmt.Printf("calls=%d records=%d transactions=%d price=$%.2f\n",
				r.Calls, r.Records, r.Transactions, r.Price)
		case line == `\trace`:
			if lastTrace == nil {
				fmt.Println("no traced query yet — run a statement first")
				continue
			}
			fmt.Print(lastTrace.Describe())
		case line == `\metrics`:
			client.WriteMetrics(os.Stdout)
		case strings.HasPrefix(line, `\explain `):
			res, err := client.Explain(strings.TrimPrefix(line, `\explain `), payless.Verbose())
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(res.PlanDetail)
		case line == `\tables`:
			for _, ti := range client.Tables() {
				where := ti.Dataset
				if ti.Local {
					where = "local"
				}
				fmt.Printf("%-12s %-8s %10d rows  %s\n", ti.Name, where, ti.Cardinality, ti.BindingPattern)
			}
		case line == `\coverage`:
			for _, tc := range client.Coverage() {
				full := ""
				if tc.FullyCovered {
					full = "  (fully covered — further whole-table queries are free)"
				}
				fmt.Printf("%-12s %6d calls %8d rows  %5.1f%%%s\n",
					tc.Table, tc.StoredCalls, tc.StoredRows, 100*tc.CoveredFraction, full)
			}
		default:
			if err := runStatement(client, line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

func buildClient(marketURL, key, local, demo string, seed int64, noSQR, minCalls bool, planCache int, store, storeSync string) (*payless.Client, error) {
	// Trace every statement so \trace can replay the last one.
	opts := []payless.Option{payless.WithTracer(&payless.CollectTracer{})}
	if noSQR {
		opts = append(opts, payless.WithConsistency(payless.Strong()))
	}
	if minCalls {
		opts = append(opts, payless.WithMinimizeCalls())
	}
	if planCache != 0 {
		opts = append(opts, payless.WithPlanCache(planCache))
	}
	if store != "" {
		opts = append(opts, payless.WithDurableStore(store))
		switch storeSync {
		case "per-call":
			opts = append(opts, payless.WithStoreSync(payless.StoreSyncPerCall))
		case "batched":
			opts = append(opts, payless.WithStoreSync(payless.StoreSyncBatched))
		case "off":
			opts = append(opts, payless.WithStoreSync(payless.StoreSyncOff))
		default:
			return nil, fmt.Errorf("unknown -store-sync %q (want per-call, batched or off)", storeSync)
		}
	}
	if demo != "" {
		return demoClient(demo, seed, opts)
	}
	if marketURL == "" {
		return nil, fmt.Errorf("either -market or -demo is required")
	}
	localTables, localRows, err := localData(local, seed)
	if err != nil {
		return nil, err
	}
	client, err := payless.OpenHTTP(marketURL, key, localTables, opts...)
	if err != nil {
		return nil, err
	}
	for name, rows := range localRows {
		if err := client.LoadLocal(name, rows); err != nil {
			return nil, err
		}
	}
	return client, nil
}

// localData regenerates the local tables matching a marketd instance.
func localData(local string, seed int64) ([]*catalog.Table, map[string][]value.Row, error) {
	switch local {
	case "":
		return nil, nil, nil
	case "whw":
		cfg := workload.DefaultWHWConfig()
		cfg.Seed = seed
		w := workload.GenerateWHW(cfg)
		return []*catalog.Table{w.ZipMap}, map[string][]value.Row{"ZipMap": w.ZipMapRows}, nil
	case "tpch":
		d := workload.GenerateTPCH(workload.TPCHConfig{Seed: seed, ScaleFactor: 1})
		return []*catalog.Table{d.Nation, d.Region},
			map[string][]value.Row{"Nation": d.NationRows, "Region": d.RegionRows}, nil
	default:
		return nil, nil, fmt.Errorf("unknown -local %q", local)
	}
}

// demoClient spins up an in-process market with the named dataset.
func demoClient(dataset string, seed int64, opts []payless.Option) (*payless.Client, error) {
	m := market.New()
	m.RegisterAccount("demo")
	var localTables []*catalog.Table
	localRows := map[string][]value.Row{}
	switch dataset {
	case "whw":
		cfg := workload.DefaultWHWConfig()
		cfg.Seed = seed
		w := workload.GenerateWHW(cfg)
		if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
			return nil, err
		}
		localTables = []*catalog.Table{w.ZipMap}
		localRows["ZipMap"] = w.ZipMapRows
		fmt.Printf("demo market: WHW weather data, %d weather rows; try:\n", len(w.WeatherRows))
		fmt.Printf("  SELECT City, AVG(Temperature) FROM Station, Weather WHERE Station.Country = Weather.Country = 'United States' AND Weather.Date >= %d AND Weather.Date <= %d AND Station.StationID = Weather.StationID GROUP BY City\n",
			w.Dates[0], w.Dates[6])
	case "tpch":
		d := workload.GenerateTPCH(workload.TPCHConfig{Seed: seed, ScaleFactor: 1})
		if err := d.Install(m, storage.NewDB(), 100, 1); err != nil {
			return nil, err
		}
		localTables = []*catalog.Table{d.Nation, d.Region}
		localRows["Nation"] = d.NationRows
		localRows["Region"] = d.RegionRows
		fmt.Printf("demo market: TPCH data, %d market rows\n", d.MarketRowCount())
	default:
		return nil, fmt.Errorf("unknown -demo %q", dataset)
	}
	cfg := payless.Config{
		Tables: append(m.ExportCatalog(), localTables...),
		Caller: market.AccountCaller{Market: m, Key: "demo"},
	}
	client, err := payless.Open(cfg, opts...)
	if err != nil {
		return nil, err
	}
	for name, rows := range localRows {
		if err := client.LoadLocal(name, rows); err != nil {
			return nil, err
		}
	}
	return client, nil
}

const maxPrintedRows = 40

// lastTrace holds the most recent statement's execution trace for \trace.
var lastTrace *payless.Trace

func runStatement(client *payless.Client, sql string) error {
	res, err := client.Query(sql)
	if err != nil {
		return err
	}
	lastTrace = res.Trace
	fmt.Println(strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		if i == maxPrintedRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-maxPrintedRows)
			break
		}
		fmt.Println(strings.Join(row, " | "))
	}
	fmt.Printf("-- %d rows; this query: %d calls, %d transactions, $%.2f; plan: %s\n",
		len(res.Rows), res.Report.Calls, res.Report.Transactions, res.Report.Price, res.Plan)
	return nil
}

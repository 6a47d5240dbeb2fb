package main

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/connector"
	"payless/internal/daemon"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/tenant"
	"payless/internal/value"
	"payless/internal/workload"
)

// Fixed wiring of the system under test: cmd/marketd and cmd/paylessd
// defaults. The daemon serves two unlimited tenants so a two-client workload
// exercises the per-tenant ledgers.
const (
	marketKey            = "bench"
	tuplesPerTransaction = 100
	pricePerTransaction  = 1
	coalesceWindow       = 2 * time.Millisecond
	planCacheSize        = 256
)

var tenantKeys = []string{"key-a", "key-b"}

// localTable is one buyer-side table the daemon loads at start.
type localTable struct {
	Meta *catalog.Table
	Rows []value.Row
}

// dataset is one generated market: what the seller hosts, what the buyer
// keeps locally, and the query templates over both. Market data is the
// environment and the same on every run (the generators' default seed); the
// run's seed draws the queries.
type dataset struct {
	install   func(*market.Market) error
	locals    []localTable
	tables    []localTable // every table with its rows, for the reference answers
	templates []workload.Template
	// cover is SQL that buys every market table whole: the pre-warm of the
	// covered workloads.
	cover []string
}

// buildDataset generates a market. smoke shrinks it about sixfold, for runs
// that check behaviour and time nothing.
func buildDataset(name string, smoke bool) (*dataset, error) {
	switch name {
	case "whw":
		// A year of daily readings from ~200 stations: ≈73 k Weather rows.
		cfg := workload.DefaultWHWConfig()
		cfg.StationsPerCountry = 10
		cfg.Days = 365
		if smoke {
			cfg.Days = 60
		}
		w := workload.GenerateWHW(cfg)
		return &dataset{
			install: func(m *market.Market) error {
				return w.Install(m, storage.NewDB(), tuplesPerTransaction, pricePerTransaction)
			},
			locals: []localTable{{w.ZipMap, w.ZipMapRows}},
			tables: []localTable{
				{w.Station, w.StationRows}, {w.Weather, w.WeatherRows},
				{w.Pollution, w.PollutionRows}, {w.ZipMap, w.ZipMapRows},
			},
			templates: w.Templates(),
			cover:     coverSQL("Station", "Weather", "Pollution"),
		}, nil
	case "tpch":
		cfg := workload.DefaultTPCHConfig()
		if smoke {
			cfg.ScaleFactor = 0.15
		}
		d := workload.GenerateTPCH(cfg)
		return &dataset{
			install: func(m *market.Market) error {
				return d.Install(m, storage.NewDB(), tuplesPerTransaction, pricePerTransaction)
			},
			locals: []localTable{{d.Nation, d.NationRows}, {d.Region, d.RegionRows}},
			tables: []localTable{
				{d.Customer, d.CustomerRows}, {d.Orders, d.OrdersRows}, {d.Lineitem, d.LineitemRows},
				{d.Part, d.PartRows}, {d.Supplier, d.SupplierRows}, {d.PartSupp, d.PartSuppRows},
				{d.Nation, d.NationRows}, {d.Region, d.RegionRows},
			},
			templates: d.Templates(),
			cover:     coverSQL("Customer", "Orders", "Lineitem", "Part", "Supplier", "PartSupp"),
		}, nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

func coverSQL(tables ...string) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = "SELECT COUNT(*) FROM " + t
	}
	return out
}

func writeLocals(path string, locals []localTable) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(locals); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return f.Close()
}

func readLocals(path string) ([]localTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var locals []localTable
	if err := gob.NewDecoder(f).Decode(&locals); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return locals, nil
}

// procStats is the /bench/stats body: the serving process's allocator
// totals and resource usage, so the driver can attribute CPU and heap to
// the daemon and the market separately.
type procStats struct {
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
	HeapAlloc  uint64 `json:"heap_alloc"`
	NumGC      uint32 `json:"num_gc"`
	CPUMicros  int64  `json:"cpu_micros"` // utime + stime
	PeakRSSKB  int64  `json:"peak_rss_kb"`
}

// peakRSSKB is the resident-set high-water mark of a process ("self" or a
// pid). getrusage's ru_maxrss will not do: a child inherits it across fork
// and exec, so a small daemon would report the driver's peak.
func peakRSSKB(pid string) int64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0
	}
	kb, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
	return kb
}

func readProcStats(forceGC bool) (procStats, error) {
	if forceGC {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procStats{}, fmt.Errorf("getrusage: %w", err)
	}
	micros := func(tv syscall.Timeval) int64 { return tv.Sec*1e6 + tv.Usec }
	return procStats{
		Mallocs:    ms.Mallocs,
		TotalAlloc: ms.TotalAlloc,
		HeapAlloc:  ms.HeapAlloc,
		NumGC:      ms.NumGC,
		CPUMicros:  micros(ru.Utime) + micros(ru.Stime),
		PeakRSSKB:  peakRSSKB("self"),
	}, nil
}

func handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := readProcStats(r.URL.Query().Get("gc") == "1")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// spinIterations is the fixed work of one /bench/spin request: a dependent
// multiply-xor chain of about 0.27 ms on the box this was sized on, the cost
// of a short query.
const spinIterations = 200_000

// handleSpin is the ruler the driver holds against the host (calibrate): it
// touches no memory and none of the program under test, so how many the
// process pair serves per second says how fast the host is right now.
func handleSpin(w http.ResponseWriter, r *http.Request) {
	h := uint64(14695981039346656037)
	for i := uint64(0); i < spinIterations; i++ {
		h = (h ^ i) * 1099511628211
	}
	fmt.Fprintln(w, h)
}

// withBench mounts the bench-only endpoints beside a role's own routes:
// /bench/stats and /bench/spin always, /bench/spans when the role is traced.
func withBench(h http.Handler, rec *recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/bench/stats", handleStats)
	mux.HandleFunc("/bench/spin", handleSpin)
	if rec != nil {
		mux.HandleFunc("/bench/spans", rec.handleDump)
	}
	mux.Handle("/", h)
	return mux
}

// service is one listening role. stop shuts it down the way the real
// command would on SIGTERM and returns once nothing is served any more.
type service struct {
	url  string
	stop func() error
}

// serve binds an ephemeral loopback port, so concurrent runs never collide
// and the bound address is known before the first request.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := market.NewServer("", h)
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// startMarket is the market role: generate → Install → serve. A non-nil
// recorder makes it the traced run's market.
func startMarket(ds *dataset, rec *recorder) (*service, error) {
	m := market.New()
	if err := ds.install(m); err != nil {
		return nil, fmt.Errorf("install dataset: %w", err)
	}
	m.RegisterAccount(marketKey)
	srv, url, err := serve(withBench(rec.wrapMarket(m.Handler()), rec))
	if err != nil {
		return nil, err
	}
	return &service{url: url, stop: srv.Close}, nil
}

// openClient is payless.OpenHTTP, except that a traced daemon needs its own
// market.Caller around the connector, which OpenHTTP would overwrite; that
// path repeats OpenHTTP's registration by hand.
func openClient(marketURL string, locals []*catalog.Table, rec *recorder, opts ...payless.Option) (*payless.Client, error) {
	if rec == nil {
		return payless.OpenHTTP(marketURL, marketKey, locals, opts...)
	}
	cli := connector.New(marketURL, marketKey)
	tables, err := cli.Catalog()
	if err != nil {
		return nil, err
	}
	tpt := make(map[string]int)
	for _, t := range tables {
		if _, ok := tpt[t.Dataset]; !ok {
			if tpt[t.Dataset], err = cli.TuplesPerTransaction(t.Dataset); err != nil {
				return nil, err
			}
		}
	}
	return payless.Open(payless.Config{
		Tables:               append(tables, locals...),
		Caller:               tracedCaller{rec, cli},
		TuplesPerTransaction: tpt,
	}, opts...)
}

// startDaemon is the daemon role, wired like cmd/paylessd with its default
// flags: call scheduler with the 2 ms coalesce window, plan cache 256,
// default MaxInflight. storeDir "" keeps the semantic store in memory.
func startDaemon(marketURL string, locals []localTable, storeDir string, rec *recorder) (*service, error) {
	cfgs := make([]tenant.Config, len(tenantKeys))
	for i, k := range tenantKeys {
		cfgs[i] = tenant.Config{Name: fmt.Sprintf("tenant-%c", 'a'+i), Key: k}
	}
	reg, err := tenant.NewRegistry(0, cfgs...)
	if err != nil {
		return nil, err
	}
	opts := []payless.Option{
		payless.WithAdmitter(rec.wrapAdmitter(reg)),
		payless.WithCallScheduler(), payless.WithCoalesceWindow(coalesceWindow),
		payless.WithPlanCache(planCacheSize),
	}
	if storeDir != "" {
		opts = append(opts, payless.WithDurableStore(storeDir))
	}
	metas := make([]*catalog.Table, len(locals))
	for i, lt := range locals {
		metas[i] = lt.Meta
	}
	client, err := openClient(marketURL, metas, rec, opts...)
	if err != nil {
		return nil, fmt.Errorf("connect to market %s: %w", marketURL, err)
	}
	for _, lt := range locals {
		if err := client.LoadLocal(lt.Meta.Name, lt.Rows); err != nil {
			client.Close()
			return nil, err
		}
	}
	d, err := daemon.New(daemon.Config{Client: client, Registry: reg})
	if err != nil {
		client.Close()
		return nil, err
	}
	srv, url, err := serve(withBench(rec.wrapDaemon(d.Handler()), rec))
	if err != nil {
		client.Close()
		return nil, err
	}
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := d.Drain(ctx)
		srv.Close()
		return err
	}
	return &service{url: url, stop: stop}, nil
}

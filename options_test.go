package payless

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/storage"
	"payless/internal/workload"
)

func optionsSetup(t *testing.T, opts ...Option) (*Client, *workload.WHW) {
	t.Helper()
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 9, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("opts")
	client, err := Open(Config{
		Tables: append(m.ExportCatalog(), w.ZipMap),
		Caller: market.AccountCaller{Market: m, Key: "opts"},
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return client, w
}

// TestOptionsApply pins that functional options actually reach the Config
// on both Open paths.
func TestOptionsApply(t *testing.T) {
	var cfg Config
	for _, o := range []Option{
		WithConsistency(Window(time.Hour)),
		WithFetchConcurrency(3),
		WithTracer(&CollectTracer{}),
		WithDefaultTuplesPerTransaction(42),
		WithMinimizeCalls(),
		WithStoreSync(StoreSyncBatched),
		WithCallPolicy(CallPolicy{BreakAfter: 3}),
	} {
		o(&cfg)
	}
	if cfg.FetchConcurrency != 3 || cfg.Tracer == nil ||
		cfg.DefaultTuplesPerTransaction != 42 || cfg.Consistency != Window(time.Hour) || !cfg.MinimizeCalls ||
		cfg.StoreSync != StoreSyncBatched || cfg.Calls.BreakAfter != 3 {
		t.Errorf("options did not stick: %+v", cfg)
	}
}

// TestOpenAppliesOptions opens a client with options and checks they are
// observable in behaviour: the tracer traces, and WithoutSQR makes the
// repeat of a query pay again.
func TestOpenAppliesOptions(t *testing.T) {
	client, w := optionsSetup(t, WithTracer(&CollectTracer{}), WithConsistency(Strong()), WithFetchConcurrency(2))
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	first, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Trace == nil {
		t.Fatal("WithTracer must produce Result.Trace")
	}
	second, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.Transactions == 0 {
		t.Error("WithoutSQR must disable reuse — the repeat should pay")
	}
}

// TestOpenHTTPAcceptsTypedAndLegacyOptions pins source compatibility: both
// a typed Option and a bare func(*Config) literal (the pre-redesign shape)
// are accepted by OpenHTTP's variadic parameter.
func TestOpenHTTPAcceptsTypedAndLegacyOptions(t *testing.T) {
	w := workload.GenerateWHW(workload.WHWConfig{
		Seed: 9, Countries: 2, StationsPerCountry: 8, CitiesPerCountry: 2,
		Days: 8, StartDate: 20140601, Zips: 20, MaxRank: 100,
	})
	m := market.New()
	if err := w.Install(m, storage.NewDB(), 100, 1); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("legacy")
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	legacy := func(c *Config) { c.Consistency = Strong() }
	client, err := OpenHTTP(srv.URL, "legacy", []*catalog.Table{w.ZipMap},
		WithFetchConcurrency(2), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])
	if _, err := client.Query(sql); err != nil {
		t.Fatal(err)
	}
	res, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Transactions == 0 {
		t.Error("legacy func(*Config) option must still apply (SQR disabled)")
	}
}

// TestConfigSurface pins the size of the client's surface: the exported
// Config fields, the With* options and the Client's exported methods. A new
// knob or method fails here until the change that justifies it raises the
// pin.
func TestConfigSurface(t *testing.T) {
	const wantFields, wantOptions, wantMethods = 17, 12, 22
	fields := 0
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).IsExported() {
			fields++
		}
	}
	f, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	options := 0
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			options++
		}
	}
	methods := reflect.TypeOf(&Client{}).NumMethod()
	if fields != wantFields || options != wantOptions || methods != wantMethods {
		t.Fatalf("Config has %d exported fields, options.go %d With* options and Client %d methods, pinned at %d / %d / %d",
			fields, options, methods, wantFields, wantOptions, wantMethods)
	}
}

// TestExplainVariants pins the folded Explain API: plain Explain fills the
// summary, Verbose() adds PlanDetail, and ExplainContext honours
// cancellation.
func TestExplainVariants(t *testing.T) {
	client, w := optionsSetup(t)
	sql := fmt.Sprintf("SELECT * FROM Weather WHERE Country = 'United States' AND Date >= %d AND Date <= %d",
		w.Dates[0], w.Dates[3])

	plain, err := client.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Plan == "" || plain.PlanDetail != "" {
		t.Errorf("plain Explain: plan %q, detail %q", plain.Plan, plain.PlanDetail)
	}
	if len(plain.Rows) != 0 || plain.Report.Calls != 0 {
		t.Error("Explain must not execute")
	}

	verbose, err := client.Explain(sql, Verbose())
	if err != nil {
		t.Fatal(err)
	}
	if verbose.PlanDetail == "" {
		t.Fatal("Verbose() must fill PlanDetail")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.ExplainContext(ctx, sql); err == nil {
		t.Error("cancelled ExplainContext must fail")
	}

	if !strings.Contains(verbose.PlanDetail, "\n") {
		t.Errorf("PlanDetail should be a multi-line report: %q", verbose.PlanDetail)
	}
}

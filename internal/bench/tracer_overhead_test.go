package bench

import (
	"fmt"
	"math"
	"testing"

	payless "payless"

	"payless/internal/market"
)

// noopTracer opts every query out of tracing: Begin returns nil, so the
// engine runs the same nil-trace path as a client with no Tracer at all.
type noopTracer struct{}

func (noopTracer) Begin(string) *payless.Trace { return nil }
func (noopTracer) Finish(*payless.Trace)       {}

// warmEnvs records the environments the workload has been replayed on once.
var warmEnvs = map[*concurrencyEnv]bool{}

// replayAllocs returns what one full pass over the fan-out workload
// allocates on a fresh client built with opts. The client calls the market
// in process and one call at a time, so — unlike a wall-clock ratio, which a
// loaded host moves by tens of percent — the count repeats to within a
// couple of allocations in six thousand (a GC emptying a sync.Pool mid-run).
// The first client on an environment also pays one-time costs as its calls
// first run concurrently (threads, goroutine stacks, per-P pools), about 20
// allocations over a measured run, so the first call on each environment
// replays the workload once unmeasured before it measures.
func replayAllocs(t *testing.T, env *concurrencyEnv, key string, opts ...payless.Option) (float64, *payless.Client) {
	t.Helper()
	if !warmEnvs[env] {
		warmEnvs[env] = true
		replayAllocs(t, env, "alloc-warmup")
	}
	env.m.RegisterAccount(key)
	client, err := payless.Open(payless.Config{
		Tables:           append(env.m.ExportCatalog(), env.w.ZipMap),
		Caller:           market.AccountCaller{Market: env.m, Key: key},
		Consistency:      payless.Strong(),
		FetchConcurrency: 1,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.LoadLocal("ZipMap", env.w.ZipMapRows); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(10, func() {
		for _, sql := range env.sql {
			if _, err := client.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}), client
}

// TestNoopTracerAllocatesNothing is the guard on the tracing hooks: a client
// whose Tracer declines every query runs the same nil-trace path as an
// untraced one, so the fan-out workload allocates as much either way. (What tracing costs in time is BenchmarkFetchConcurrencyTraced's and
// the ledger's trace.overhead_ratio to measure.) The race detector makes
// sync.Pool drop items at random, which moves the counts apart by more than
// the comparison allows, so the gate runs only without it.
func TestNoopTracerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomises sync.Pool reuse, and with it allocation counts")
	}
	env, err := newConcurrencyEnv(smallConcurrencyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	base, _ := replayAllocs(t, env, "alloc-untraced")
	declined, _ := replayAllocs(t, env, "alloc-declined", payless.WithTracer(noopTracer{}))
	if !sameAllocs(base, declined) {
		t.Fatalf("a declining tracer changes the workload's allocations: %v untraced, %v declined", base, declined)
	}
}

// sameAllocs reports whether two replayAllocs counts agree to 0.1 %: one
// allocation per market call (24 calls a pass) is four times that.
func sameAllocs(a, b float64) bool { return math.Abs(a-b) <= a/1000 }

// BenchmarkFetchConcurrencyTraced is BenchmarkFetchConcurrency with a
// CollectTracer attached — compare the two to quantify the cost of full
// tracing:
//
//	go test ./internal/bench/ -bench FetchConcurrency -benchtime 10x
func BenchmarkFetchConcurrencyTraced(b *testing.B) {
	p := DefaultConcurrencyParams()
	env, err := newConcurrencyEnv(p)
	if err != nil {
		b.Fatal(err)
	}
	defer env.close()
	for _, conc := range []int{1, 8} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			client, err := env.client(fmt.Sprintf("tbench-%d-%d", conc, b.N), conc,
				payless.WithTracer(&payless.CollectTracer{}))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Query(env.sql[i%len(env.sql)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

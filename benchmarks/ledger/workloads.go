package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"payless"
	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/workload"
)

// spec is one workload: passes of requests over one dataset, each pass
// against a fresh daemon process (fresh store, fresh heap).
type spec struct {
	name      string
	why       string // one line, also BENCHMARK.json's
	dataset   string // whw | tpch
	templates []int  // indexes into the dataset's template list
	// instances are drawn per template per pass, so a pass issues
	// len(templates)·instances requests, every one a distinct query.
	instances int
	// clients is the closed-loop client count. It follows the work and never
	// exceeds the 2 vCPUs this was sized on: sub-millisecond requests need 2
	// to keep the daemon fed, CPU-heavy ones 1 so driver and daemon do not
	// fight for cores, and buy workloads 1 so their counts repeat.
	clients int
	// covered pre-warms each pass by buying every market table whole; every
	// measured request must then bill exactly 0, and every pass replays the
	// same request list so a position's latency is its median over passes.
	// A buy workload starts each pass from an empty store and draws a fresh
	// list per pass: what a query costs there depends on what was bought
	// before it, so only many lists make the numbers a property of the
	// program instead of one list's luck.
	covered bool
	durable bool // semantic store with WAL + snapshots in a directory
	// passes = max(minPasses, passesPerSecond × -seconds): the run length is
	// an amount of work, the same on every commit and machine; the rate is
	// what makes -seconds come out as measured seconds on the 2-vCPU box this
	// was sized on.
	passesPerSecond float64
	minPasses       int
}

var (
	whwQ1toQ4 = []int{0, 1, 2, 3}
	tpchNoT2  = []int{0, 2, 3, 4}
)

// The gated workloads. WHW Q5 and TPC-H T2 cost 100× their siblings and are
// measured once as probes in the traced run instead (see README).
var specs = []spec{
	{
		name:    "whw_covered",
		why:     "short zero-bill requests over a fully bought store: auth, parse, bind, plan-cache instantiate, store read and JSON encode are all there is",
		dataset: "whw", templates: whwQ1toQ4, instances: 2000,
		clients: 2, covered: true, passesPerSecond: 0.3, minPasses: 5,
	},
	{
		name:    "tpch_covered",
		why:     "zero-bill requests whose local joins and aggregates over 10^4-row inputs dominate and whose responses are tiny: the mirror image of whw_covered",
		dataset: "tpch", templates: tpchNoT2, instances: 300,
		clients: 1, covered: true, passesPerSecond: 0.3, minPasses: 5,
	},
	{
		name:    "whw_buy",
		why:     "many small purchases from an empty durable store: optimizer, remainders, scheduler window, market wire, Record and WAL (the only workload where the WAL works)",
		dataset: "whw", templates: whwQ1toQ4, instances: 100,
		clients: 1, durable: true, passesPerSecond: 0.45, minPasses: 5,
	},
	{
		name:    "tpch_buy",
		why:     "bulk purchases from an empty in-memory store: per-row wire decode, big-batch Record, bind-join fan-out and the cold plans' local joins",
		dataset: "tpch", templates: tpchNoT2, instances: 15,
		clients: 1, passesPerSecond: 1, minPasses: 15,
	},
}

// smokeScale shrinks a workload to ≤200 requests in one pass: enough to
// exercise every code path and every count, not enough to time anything.
func smokeScale(s spec) spec {
	if s.instances > 50 {
		s.instances = 50
	}
	s.minPasses, s.passesPerSecond = 1, 0
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) passes(seconds float64) int {
	return max(s.minPasses, int(math.Round(s.passesPerSecond*seconds)))
}

// plan is a workload made concrete for one seed. The programs under test
// see only the SQL it generates.
type plan struct {
	spec
	templates []workload.Template
	seed      int64
	replayed  []string // covered: the one list every pass issues
}

func makePlan(s spec, ds *dataset, seed int64) *plan {
	p := &plan{spec: s, seed: seed}
	for _, i := range s.templates {
		p.templates = append(p.templates, ds.templates[i])
	}
	if s.covered {
		p.replayed = workload.Mix(p.templates, s.instances, seed)
	}
	return p
}

// queries is the request list of one pass (0-based), in issue order.
func (p *plan) queries(pass int) []string {
	if p.covered {
		return p.replayed
	}
	// Distinct seeds must not share lists: stride the per-pass stream by
	// more than any pass count.
	return workload.Mix(p.templates, p.instances, p.seed*1_000_003+int64(pass))
}

// reference answers SQL the Download-All way: every table is local and fully
// loaded, so no market, no semantic store and no plan cache take part.
// (internal/baseline's DownloadAll computes the same answer but returns only
// its bill, not its rows.)
type reference struct{ client *payless.Client }

func newReference(ds *dataset) (*reference, error) {
	metas := make([]*catalog.Table, len(ds.tables))
	for i, lt := range ds.tables {
		m := *lt.Meta
		m.Local = true
		m.Cardinality = int64(len(lt.Rows))
		metas[i] = &m
	}
	noMarket := market.CallerFunc(func(context.Context, catalog.AccessQuery) (market.Result, error) {
		return market.Result{}, errors.New("reference: unexpected market call")
	})
	c, err := payless.Open(payless.Config{Tables: metas, Caller: noMarket})
	if err != nil {
		return nil, err
	}
	for _, lt := range ds.tables {
		if err := c.LoadLocal(lt.Meta.Name, lt.Rows); err != nil {
			return nil, err
		}
	}
	return &reference{client: c}, nil
}

func (r *reference) canon(sql string) (string, error) {
	res, err := r.client.Query(sql)
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	return canon(res.Rows), nil
}

// canon renders a result set order-independently. Float cells are rounded
// to 6 significant digits: aggregation sums rows in storage order, and rows
// reached through the semantic store arrive in another order than a full
// local table's, which legally permutes float additions.
func canon(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		norm := make([]string, len(r))
		for j, cell := range r {
			if f, err := strconv.ParseFloat(cell, 64); err == nil && strings.ContainsAny(cell, ".eE") {
				norm[j] = strconv.FormatFloat(f, 'g', 6, 64)
			} else {
				norm[j] = cell
			}
		}
		lines[i] = strings.Join(norm, "\x1f")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checksum fingerprints a result set exactly (every cell's bytes, FNV-1a per
// row) but order-independently; replays of one position must agree on it. It
// runs in the clients' loop, so it allocates nothing.
func checksum(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, cell := range r {
			for i := 0; i < len(cell); i++ {
				h = (h ^ uint64(cell[i])) * 1099511628211
			}
			h = (h ^ 0x1f) * 1099511628211
		}
		sum += h
	}
	return sum
}

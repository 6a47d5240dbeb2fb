package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"payless"
	"payless/internal/catalog"
	"payless/internal/market"
)

// span is one timed interval at a layer boundary. Times are wall-clock
// nanoseconds; Parent 0 marks a request's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// interval is one timed call or market-side handling of one, by table.
type interval struct {
	Table string `json:"table"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// reqTrace collects one request's boundary crossings while it is in flight.
// The handler goroutine and the admitter run sequentially, so only calls
// (which the scheduler issues from its own goroutines) need the lock.
type reqTrace struct {
	Start        int64      `json:"start_ns"`
	BodyRead     int64      `json:"body_read_ns"`
	ReserveStart int64      `json:"reserve_start_ns"`
	ReserveEnd   int64      `json:"reserve_end_ns"`
	SettleStart  int64      `json:"settle_start_ns"`
	SettleEnd    int64      `json:"settle_end_ns"`
	End          int64      `json:"end_ns"`
	RespBytes    int64      `json:"resp_bytes"`
	Calls        []interval `json:"calls,omitempty"`
}

// traceDump is everything one process recorded: /bench/spans serves it.
type traceDump struct {
	Requests []*reqTrace `json:"requests"` // in completion order
	Orphans  []interval  `json:"orphans"`  // market calls made while no single request was in flight
	Serves   []interval  `json:"serves"`   // market-side handling of data calls
}

// recorder keeps every boundary crossing of a traced role in memory; the
// driver collects it over /bench/spans when the pass is over. Times are
// wall-clock nanoseconds, so the daemon's and the market's records line up.
// The wrappers below sit at the public seams of the system under test and
// are the only instrumentation: spans inside the program are a later change.
type recorder struct {
	mu       sync.Mutex
	inflight map[*reqTrace]struct{}
	dump     traceDump
}

func newRecorder() *recorder {
	return &recorder{inflight: make(map[*reqTrace]struct{})}
}

func now() int64 { return time.Now().UnixNano() }

func (rec *recorder) handleDump(w http.ResponseWriter, r *http.Request) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rec.dump)
}

type traceKey struct{}

func traceOf(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	return rt
}

// markBody stamps the moment the handler has read the whole request body:
// authentication and body read are behind it, admission and the client
// ahead. (daemon.Config.Now is called at the same point but carries no
// request identity, so it cannot be used with two clients in flight.)
type markBody struct {
	io.ReadCloser
	rt *reqTrace
}

func (b *markBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && b.rt.BodyRead == 0 {
		b.rt.BodyRead = now()
	}
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrapDaemon is the middleware round daemon.Server.Handler(). Like the other
// wrap methods it wraps nothing on a nil recorder, i.e. in an untraced role.
func (rec *recorder) wrapDaemon(next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			next.ServeHTTP(w, r)
			return
		}
		rt := &reqTrace{Start: now()}
		rec.mu.Lock()
		rec.inflight[rt] = struct{}{}
		rec.mu.Unlock()
		r.Body = &markBody{ReadCloser: r.Body, rt: rt}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), traceKey{}, rt)))
		rt.End, rt.RespBytes = now(), cw.n
		rec.mu.Lock()
		delete(rec.inflight, rt)
		rec.dump.Requests = append(rec.dump.Requests, rt)
		rec.mu.Unlock()
	})
}

// tracedAdmitter wraps the tenant registry: Reserve is the first thing the
// client does after compiling a plan and Settle the last before rendering
// rows, so the two calls also delimit compile, execute and respond.
type tracedAdmitter struct{ inner payless.Admitter }

func (rec *recorder) wrapAdmitter(a payless.Admitter) payless.Admitter {
	if rec == nil {
		return a
	}
	return tracedAdmitter{a}
}

func (a tracedAdmitter) Reserve(ctx context.Context, est int64) error {
	rt := traceOf(ctx)
	if rt == nil {
		return a.inner.Reserve(ctx, est)
	}
	rt.ReserveStart = now()
	err := a.inner.Reserve(ctx, est)
	rt.ReserveEnd = now()
	return err
}

func (a tracedAdmitter) Settle(ctx context.Context, est, actual int64) {
	rt := traceOf(ctx)
	if rt == nil {
		a.inner.Settle(ctx, est, actual)
		return
	}
	rt.SettleStart = now()
	a.inner.Settle(ctx, est, actual)
	rt.SettleEnd = now()
}

// tracedCaller wraps the HTTP connector. The call scheduler issues wire
// calls under its own context, so a call is tied to its request by time:
// it belongs to the one request in flight when it ends (always the case
// with one client; with two, no workload reaches the market).
type tracedCaller struct {
	rec   *recorder
	inner market.Caller
}

func (c tracedCaller) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	iv := interval{Table: q.Table, Start: now()}
	res, err := c.inner.Call(ctx, q)
	iv.End = now()
	c.rec.mu.Lock()
	if len(c.rec.inflight) == 1 {
		for rt := range c.rec.inflight {
			rt.Calls = append(rt.Calls, iv)
		}
	} else {
		c.rec.dump.Orphans = append(c.rec.dump.Orphans, iv)
	}
	c.rec.mu.Unlock()
	return res, err
}

// wrapMarket is the middleware round market.Handler().
func (rec *recorder) wrapMarket(next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		table, ok := strings.CutPrefix(r.URL.Path, "/v1/data/")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		if i := strings.LastIndexByte(table, '/'); i >= 0 {
			table = table[i+1:]
		}
		iv := interval{Table: table, Start: now()}
		next.ServeHTTP(w, r)
		iv.End = now()
		rec.mu.Lock()
		rec.dump.Serves = append(rec.dump.Serves, iv)
		rec.mu.Unlock()
	})
}

// Span names. The six children of daemon.request tile it; connector.call
// spans hang under client.execute and market.serve spans under the call
// that caused them.
const (
	spanRequest = "daemon.request"
	spanAdmit   = "daemon.admit"
	spanCompile = "client.compile"
	spanReserve = "tenant.reserve"
	spanExecute = "client.execute"
	spanSettle  = "tenant.settle"
	spanRespond = "daemon.respond"
	spanCall    = "connector.call"
	spanServe   = "market.serve"
)

// spansOf flattens what the daemon recorded for one pass (minus the first
// skip requests, the pre-warm) and the market's serves into the span list.
func spansOf(d traceDump, skip int) []span {
	serves := append([]interval(nil), d.Serves...)
	sort.Slice(serves, func(i, j int) bool { return serves[i].Start < serves[j].Start })
	var out []span
	add := func(parent, req int, name string, start, end int64) int {
		id := len(out) + 1
		out = append(out, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		return id
	}
	for i, rt := range d.Requests[skip:] {
		req := i + 1
		root := add(0, req, spanRequest, rt.Start, rt.End)
		if rt.ReserveStart == 0 || rt.SettleEnd == 0 {
			continue // rejected before the client ran: the root is all there is
		}
		add(root, req, spanAdmit, rt.Start, rt.BodyRead)
		add(root, req, spanCompile, rt.BodyRead, rt.ReserveStart)
		add(root, req, spanReserve, rt.ReserveStart, rt.ReserveEnd)
		exec := add(root, req, spanExecute, rt.ReserveEnd, rt.SettleStart)
		add(root, req, spanSettle, rt.SettleStart, rt.SettleEnd)
		add(root, req, spanRespond, rt.SettleEnd, rt.End)
		for _, c := range rt.Calls {
			call := add(exec, req, spanCall, c.Start, c.End)
			// Every page the market served for this table inside the call.
			i := sort.Search(len(serves), func(i int) bool { return serves[i].Start >= c.Start })
			for ; i < len(serves) && serves[i].End <= c.End; i++ {
				if serves[i].Table == c.Table {
					add(call, req, spanServe, serves[i].Start, serves[i].End)
					serves[i].Table = "" // claimed
				}
			}
		}
	}
	return out
}

// layerTime is one span name's aggregate over a traced pass.
type layerTime struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"` // total minus what child spans cover
}

// union is the length covered by the intervals, overlaps counted once.
func union(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// selfTimes aggregates spans by name; a span's self time is its duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalUs += float64(dur) / 1e3
		lt.SelfUs += float64(dur-union(children[s.ID])) / 1e3
	}
	return out
}

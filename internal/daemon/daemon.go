// Package daemon is the paylessd HTTP layer: a long-running multi-tenant
// front end over ONE shared payless Client — one semantic store, one plan
// cache, one call scheduler — so data any tenant has paid for is free for
// every later tenant, and concurrent overlapping purchases single-flight
// across tenants (the "pay one, get hundreds for free" deployment of the
// paper's buyer side).
//
// Admission happens in gates, cheapest first: the drain flag (503 while
// shutting down), API-key authentication (401), the tenant's token-bucket
// rate limit (429 + Retry-After), and the adaptive load shedder (429 +
// Retry-After): a fixed pool of execution slots plus a bounded wait queue
// whose smoothed slot-wait decides — per tenant weight and request
// priority — whether queueing a request could possibly end well. Every
// rejection happens BEFORE budget reservation, so a shed request never
// bills, never reserves, and costs microseconds. Only admitted queries
// reach the client, where per-tenant and global budgets are enforced by
// reservation (402 on rejection) and the actual spend is attributed to the
// tenant whose query triggered each remainder fetch — first-payer
// attribution, see DESIGN.md §14. Deadlines (the daemon default, the
// tenant default, or the request's X-Deadline-Ms header) ride the query
// context down every layer; a query that dies of its deadline mid-flight
// answers 504 with its elapsed/deadline budget in the body.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"payless"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/tenant"
	"payless/internal/value"
)

// retryJitterFrac is the ± fraction applied to every Retry-After hint, so a
// synchronized burst of shed clients does not come back as a synchronized
// retry stampede.
const retryJitterFrac = 0.25

// Config wires a Server.
type Config struct {
	// Client is the shared payless client every tenant queries through.
	// Required; its Config.Admitter should be the same Registry so budgets
	// bind.
	Client *payless.Client
	// Registry authenticates tenants and books their spend. Required.
	Registry *tenant.Registry
	// MaxInflight bounds concurrently executing queries across all tenants;
	// 0 means 4×GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds how many admitted-but-waiting requests may park for an
	// execution slot; 0 means 4×MaxInflight. Beyond it requests shed
	// immediately (reason queue_full).
	MaxQueue int
	// ShedTarget is the slot-wait the shedder aims to keep bounded: a
	// request sheds once the smoothed wait exceeds its tolerance
	// (ShedTarget × tenant weight, halved for batch priority). 0 means 50ms.
	ShedTarget time.Duration
	// DefaultDeadline bounds each query's wall-clock time unless the tenant
	// declares its own or the request carries X-Deadline-Ms. 0 means no
	// default deadline.
	DefaultDeadline time.Duration
	// AdminKey guards the admin API (PUT /v1/admin/endpoints, the
	// federation endpoint swap). Empty disables it entirely (404). Tenants
	// have no admin route: Registry.Apply is the tenant table's one writer.
	AdminKey string
	// RetryAfter is the base Retry-After hint when the shedder rejects;
	// 0 means 1s. Hints are jittered ±25% so shed clients desynchronize.
	RetryAfter time.Duration
	// Now is the admission clock; nil means time.Now (tests inject one).
	Now func() time.Time
	// Jitter is the Retry-After jitter source, a uniform draw from [0,1);
	// nil means math/rand. Tests pin 0.5 for the exact midpoint (no jitter).
	Jitter func() float64
}

// Server is the daemon's HTTP state.
type Server struct {
	cfg Config
	// shed is the adaptive admission gate: execution slots + bounded wait
	// queue + smoothed slot-wait prediction.
	shed *shedder

	// lifemu guards the drain flag together with the handlers WaitGroup:
	// beginRequest checks draining and Adds under the same lock Drain sets
	// the flag under, so no request can slip between "stop accepting" and
	// "wait for in-flight".
	lifemu   sync.Mutex
	draining bool
	handlers sync.WaitGroup

	// shedmu guards the per-reason shed counters (paylessd_shed_total).
	shedmu     sync.Mutex
	shedCounts map[string]int64
}

// New validates the wiring and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("daemon: Config.Client is required")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("daemon: Config.Registry is required")
	}
	n := cfg.MaxInflight
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	q := cfg.MaxQueue
	if q <= 0 {
		q = 4 * n
	}
	if cfg.ShedTarget <= 0 {
		cfg.ShedTarget = 50 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	counts := make(map[string]int64, len(shedReasons))
	for _, r := range shedReasons {
		counts[r] = 0
	}
	s := &Server{cfg: cfg, shedCounts: counts}
	s.shed = newShedder(n, q, cfg.Client.AddQueueDepth)
	return s, nil
}

func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// QueryRequest is the POST /v1/query body (JSON). A text/plain body holding
// bare SQL is accepted too.
type QueryRequest struct {
	SQL string `json:"sql"`
}

// QueryResponse is the successful query envelope. Rows use the same string
// rendering as the in-process client, so a daemon response and a direct
// Query result compare byte-for-byte. The 200 body is this struct as
// encoding/json writes it, appended by hand (appendQueryResponse).
type QueryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// The market bill of THIS query under first-payer attribution: a query
	// served from coverage another tenant paid for reports zero.
	Calls           int64   `json:"calls"`
	Records         int64   `json:"records"`
	Transactions    int64   `json:"transactions"`
	Price           float64 `json:"price"`
	EstTransactions int64   `json:"est_transactions"`
	Planner         string  `json:"planner"`
}

// errorResponse is the JSON error envelope. DeadlineMs/ElapsedMs are set
// only on 504s: how much time the query had and how much it used before
// the deadline killed it — enough for a client to tell "deadline was too
// tight" from "service was too slow" without parsing error prose.
type errorResponse struct {
	Error      string `json:"error"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`
	ElapsedMs  int64  `json:"elapsed_ms,omitempty"`
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/admin/endpoints", s.handleAdminEndpoints)
	return mux
}

// healthResponse is the /healthz JSON body: the status plus one entry per
// market endpoint (a single-market daemon has one, named "market") with its
// breaker and latency state.
type healthResponse struct {
	Status    string                   `json:"status"`
	Endpoints []payless.EndpointHealth `json:"endpoints,omitempty"`
}

// handleHealthz answers "ok" while the daemon can serve, and surfaces
// per-endpoint health so orchestrators can see a dead market without
// grepping metrics. The daemon is "degraded" (still 200 — it keeps serving
// through the healthy mirrors) when some endpoint has open circuits, and
// 503 "down" when every endpoint does — for a single-market daemon, as
// soon as its market's breaker opens. A draining daemon is 503 "draining"
// so load balancers stop routing to it during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.lifemu.Lock()
	draining := s.draining
	s.lifemu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{Status: "draining"})
		return
	}
	resp := healthResponse{Status: "ok", Endpoints: s.cfg.Client.FederationHealth()}
	status := http.StatusOK
	healthy := 0
	for _, ep := range resp.Endpoints {
		if ep.Healthy {
			healthy++
		}
	}
	switch healthy {
	case len(resp.Endpoints):
	case 0:
		resp.Status = "down"
		status = http.StatusServiceUnavailable
	default:
		resp.Status = "degraded"
	}
	writeJSON(w, status, resp)
}

// Server returns an http.Server for the daemon with the shared timeout
// defaults applied.
func (s *Server) Server(addr string) *http.Server {
	return market.NewServer(addr, s.Handler())
}

// beginRequest registers one in-flight handler, refusing once Drain has
// started. The flag check and the WaitGroup Add share lifemu, so Drain's
// Wait can never race a late Add.
func (s *Server) beginRequest() bool {
	s.lifemu.Lock()
	defer s.lifemu.Unlock()
	if s.draining {
		return false
	}
	s.handlers.Add(1)
	return true
}

// Drain performs the zero-downtime shutdown sequence: stop accepting new
// queries (they shed with reason draining), wait — bounded by ctx — for
// every in-flight handler to finish, checkpoint the durable store, and
// close the shared client. Nothing in flight is lost and nothing billed
// goes unrecorded: the WAL has every paid call before Close returns.
// Idempotent; concurrent calls all wait for the same drain.
func (s *Server) Drain(ctx context.Context) error {
	s.lifemu.Lock()
	s.draining = true
	s.lifemu.Unlock()
	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("daemon: drain interrupted with handlers still running: %w", ctx.Err())
	}
	if err := s.cfg.Client.CheckpointStore(); err != nil {
		// Close still flushes the WAL; the checkpoint is an optimization.
		s.cfg.Client.Close()
		return fmt.Errorf("daemon: drain checkpoint: %w", err)
	}
	return s.cfg.Client.Close()
}

// Draining reports whether Drain has started (paylessd's signal loop).
func (s *Server) Draining() bool {
	s.lifemu.Lock()
	defer s.lifemu.Unlock()
	return s.draining
}

// countShed books one shed rejection under its reason.
func (s *Server) countShed(reason string) {
	s.shedmu.Lock()
	s.shedCounts[reason]++
	s.shedmu.Unlock()
}

// ShedCount reports the rejections booked under one reason (tests, bench).
func (s *Server) ShedCount(reason string) int64 {
	s.shedmu.Lock()
	defer s.shedmu.Unlock()
	return s.shedCounts[reason]
}

// apiKey extracts the tenant credential: "Authorization: Bearer <key>" or
// "X-Api-Key: <key>".
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-Api-Key"))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// retryAfter formats a Retry-After header value: whole seconds, rounded up,
// at least 1.
func retryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// setRetryAfter writes a jittered Retry-After hint: the base spread ±25%,
// so a burst of simultaneously shed clients does not return as a
// synchronized stampede exactly one hint later. With atMost the upper half
// of the spread is folded onto the lower (−25%..0): the hint never exceeds
// base.
func (s *Server) setRetryAfter(w http.ResponseWriter, base time.Duration, atMost bool) {
	rnd := s.cfg.Jitter
	if rnd == nil {
		rnd = rand.Float64
	}
	d := jitter(base, retryJitterFrac, rnd)
	if atMost && d > base {
		d = 2*base - d
	}
	w.Header().Set("Retry-After", retryAfter(d))
}

// jitter spreads d uniformly into [d×(1-f), d×(1+f)), f in [0,1], so shed
// clients do not come back in lockstep. rnd is a [0,1) source.
func jitter(d time.Duration, f float64, rnd func() float64) time.Duration {
	return time.Duration(float64(d) * (1 - f + 2*f*rnd()))
}

// deadlineFor resolves one request's deadline, tightest declaration wins
// by precedence: the X-Deadline-Ms header beats the tenant default beats
// the daemon default. A malformed or non-positive header is a client error.
func (s *Server) deadlineFor(r *http.Request, ten *tenant.Tenant) (time.Duration, error) {
	d := s.cfg.DefaultDeadline
	if td := ten.Deadline(); td > 0 {
		d = td
	}
	if h := strings.TrimSpace(r.Header.Get("X-Deadline-Ms")); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("daemon: invalid X-Deadline-Ms %q: want a positive integer of milliseconds", h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	return d, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	// Gate 0: lifecycle. A draining daemon sheds everything new instantly.
	if !s.beginRequest() {
		s.countShed(ShedDraining)
		s.setRetryAfter(w, s.cfg.RetryAfter, false)
		writeError(w, http.StatusServiceUnavailable, errors.New("daemon: draining for shutdown"))
		return
	}
	defer s.handlers.Done()
	// Gate 1: authentication.
	ten, err := s.cfg.Registry.Authenticate(apiKey(r))
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	sql, err := readSQL(r)
	if errors.Is(err, errBodyTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	deadline, err := s.deadlineFor(r, ten)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Gate 2: per-tenant rate limit.
	if ok, wait := ten.Allow(s.now()); !ok {
		s.countShed(ShedRateLimit)
		s.setRetryAfter(w, wait, false)
		writeError(w, http.StatusTooManyRequests, tenant.ErrRateLimited)
		return
	}
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	// Gate 3: the adaptive shedder. Tolerance scales with the tenant's
	// weight and halves for batch-priority requests — under pressure the
	// cheap-to-reject work goes first, before any budget is reserved.
	tolerance := time.Duration(float64(s.cfg.ShedTarget) * ten.Weight())
	if strings.EqualFold(strings.TrimSpace(r.Header.Get("X-Priority")), "batch") {
		tolerance /= 2
	}
	release, reason := s.shed.admit(ctx, tolerance)
	if reason != "" {
		s.countShed(reason)
		s.setRetryAfter(w, s.cfg.RetryAfter, false)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("daemon: overloaded, query shed (%s)", reason))
		return
	}
	defer release()

	start := time.Now()
	ctx = tenant.WithTenant(ctx, ten)
	res, err := s.cfg.Client.QueryContext(ctx, sql)
	if err != nil {
		// A deadline death mid-query is a 504 carrying the budget arithmetic:
		// results already paid for are in the store, so a retry with a looser
		// deadline re-bills only the remainder.
		if errors.Is(err, context.DeadlineExceeded) && deadline > 0 {
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{
				Error:      err.Error(),
				DeadlineMs: deadline.Milliseconds(),
				ElapsedMs:  time.Since(start).Milliseconds(),
			})
			return
		}
		// A breaker refusal (every route to the data is short-circuiting)
		// is a temporary outage, not a gateway error: tell the tenant when
		// the circuit will next admit a probe — never later than that, or the
		// hint would stretch the outage past the breaker's own cooldown.
		var coe *payless.CircuitOpenError
		if errors.As(err, &coe) {
			s.setRetryAfter(w, coe.RetryAfter, true)
		}
		writeError(w, statusOf(err), err)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	body, err := appendQueryResponse((*bp)[:0], res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // headers are sent; nothing more to do about a failed write
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// bodyPool holds the buffers 200 responses are appended into; one bigger
// than maxPooledBody is left to the collector rather than kept.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// appendQueryResponse appends res's 200 body to buf: exactly what
// encoding/json's Encoder writes for the QueryResponse of res, trailing
// newline included, with no reflection and no allocation per cell. Like
// encoding/json, it refuses a non-finite price.
func appendQueryResponse(buf []byte, res *payless.Result) ([]byte, error) {
	price := res.Report.Price
	if math.IsNaN(price) || math.IsInf(price, 0) {
		return buf, fmt.Errorf("daemon: cannot encode price %v", price)
	}
	buf = appendStrings(append(buf, `{"columns":`...), res.Columns)
	buf = append(buf, `,"rows":`...)
	if res.Rows == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, row := range res.Rows {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendStrings(buf, row)
		}
		buf = append(buf, ']')
	}
	buf = strconv.AppendInt(append(buf, `,"calls":`...), res.Report.Calls, 10)
	buf = strconv.AppendInt(append(buf, `,"records":`...), res.Report.Records, 10)
	buf = strconv.AppendInt(append(buf, `,"transactions":`...), res.Report.Transactions, 10)
	buf = appendJSONFloat(append(buf, `,"price":`...), price)
	buf = strconv.AppendInt(append(buf, `,"est_transactions":`...), res.EstTransactions, 10)
	buf = value.AppendJSONString(append(buf, `,"planner":`...), res.Planner)
	return append(buf, "}\n"...), nil
}

// appendStrings appends ss as a JSON array of strings, or null for a nil
// slice, as encoding/json does.
func appendStrings(buf []byte, ss []string) []byte {
	if ss == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = value.AppendJSONString(buf, s)
	}
	return append(buf, ']')
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// plain decimal in [1e-6, 1e21) and zero, exponent form outside it with a
// two-digit negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendJSONFloat(buf []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		buf = strconv.AppendFloat(buf, f, 'e', -1, 64)
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
		return buf
	}
	return strconv.AppendFloat(buf, f, 'f', -1, 64)
}

// maxBody bounds a query body. A longer one is refused whole (413): a
// truncated statement could parse, and answer a different query.
const maxBody = 1 << 20

// errBodyTooLarge is readSQL's refusal of a body over maxBody.
var errBodyTooLarge = fmt.Errorf("daemon: query body over %d bytes", maxBody)

// readSQL accepts {"sql": "..."} JSON or a bare text/plain SQL body.
func readSQL(r *http.Request) (string, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		return "", fmt.Errorf("daemon: read body: %w", err)
	}
	if len(body) > maxBody {
		return "", errBodyTooLarge
	}
	text := strings.TrimSpace(string(body))
	if text == "" {
		return "", errors.New("daemon: empty query body")
	}
	if strings.HasPrefix(text, "{") {
		var req QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("daemon: decode body: %w", err)
		}
		if strings.TrimSpace(req.SQL) == "" {
			return "", errors.New("daemon: empty sql field")
		}
		return req.SQL, nil
	}
	return text, nil
}

// statusOf maps client errors onto HTTP statuses: user errors are 4xx
// (unparseable SQL 400, budget rejections 402), a blown deadline is 504,
// shutdown, an exhausted retry budget (stop amplifying) and an open
// circuit breaker (the market — or every federation endpoint — is refusing
// calls) are 503, everything else — market outages included — is 502.
func statusOf(err error) int {
	switch {
	case errors.Is(err, tenant.ErrTenantOverBudget),
		errors.Is(err, tenant.ErrGlobalOverBudget):
		return http.StatusPaymentRequired
	case errors.Is(err, payless.ErrParse),
		errors.Is(err, payless.ErrBind),
		errors.Is(err, payless.ErrOptimize):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, payless.ErrClosed),
		errors.Is(err, payless.ErrCircuitOpen),
		errors.Is(err, payless.ErrRetryBudget):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// handleMetrics renders the shared client's families under "payless" and
// the per-tenant spend families under "paylessd" in one scrape, plus the
// daemon's shed counters by reason.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.cfg.Client.WriteMetrics(w)
	s.cfg.Registry.WriteMetrics(w, "paylessd")
	s.shedmu.Lock()
	counts := make(map[string]int64, len(s.shedCounts))
	for k, v := range s.shedCounts {
		counts[k] = v
	}
	s.shedmu.Unlock()
	obs.WriteCounterHead(w, "paylessd", "shed_total", "Requests shed by the admission layer, by reason.")
	for _, reason := range shedReasons {
		obs.WriteLabeledCounter(w, "paylessd", "shed_total", "reason", reason, counts[reason])
	}
}

// Package connector is PayLess's data-market connector (paper §3, step 5):
// an HTTP client that registers with a market server, exports its public
// catalog, and issues RESTful data calls carrying the buyer's authentication
// key. It implements the unified context-first market.Caller, so the
// execution engine is oblivious to whether the market is remote (this
// client) or in-process, and its parallel fetch pipeline can cancel
// in-flight calls.
//
// Every attempt runs under a per-call deadline derived from the caller's
// context. Transport failures, per-attempt timeouts, truncated or
// undecodable response bodies and retryable HTTP statuses (5xx, 429) are
// retried with exponential backoff plus jitter — a 429/503 carrying a
// Retry-After header is honoured instead, capped by the backoff maximum.
// Permanent HTTP 4xx responses fail fast: a malformed call must never be
// re-issued, since every accepted call costs money.
//
// Retrying a data call is safe because every logical call carries a unique
// idempotency ID (the X-Call-Id header), assigned once above the retry
// loop. The market bills an ID at most once and replays the billed result
// on retry, so even the worst failure — the connection dropping after the
// server billed but before the response arrived — never double-charges.
//
// Retries are additionally bounded by the query's shared overload budget:
// each fresh logical call deposits credit, each extra attempt here (and
// each federation failover or hedge above) withdraws it, and an exhausted
// budget fails the call with overload.ErrRetryBudget instead of piling on.
// A retry wait ends as soon as the call's context does; the call
// scheduler cancels a wire call once its last waiter detaches.
package connector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/overload"
)

// StatusError is a non-2xx HTTP response from the market. Permanent client
// errors (4xx other than 429) are returned as soon as they are observed,
// without burning retry attempts.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's requested wait before retrying (from the
	// Retry-After header on 429/503 responses); 0 when absent.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("market: %s (HTTP %d)", e.Msg, e.Code)
	}
	return fmt.Sprintf("market: HTTP %d", e.Code)
}

// Permanent reports whether the status must not be retried.
func (e *StatusError) Permanent() bool {
	return e.Code >= 400 && e.Code < 500 && e.Code != http.StatusTooManyRequests
}

// Client talks to one market server on behalf of one account. It is safe
// for concurrent use by the engine's parallel fetch pipeline.
type Client struct {
	baseURL string
	key     string
	http    *http.Client
	// retries is the number of extra attempts on retryable errors.
	retries int
	// perCallTimeout bounds each individual HTTP attempt. The zero value is
	// explicit: 0 means "no per-attempt deadline — each attempt is bounded
	// only by the caller's context", it is never silently replaced by the
	// default. New installs DefaultPerCallTimeout; WithPerCallTimeout(0)
	// opts out deliberately. Before the caller interface was unified, the
	// background-context Call wrapper combined with perCallTimeout == 0
	// produced attempts with no deadline at all; with the context-first
	// entry the caller's context always travels into every attempt, so an
	// explicit 0 degrades to "caller-bounded" instead of "unbounded".
	perCallTimeout time.Duration
	// backoffBase and backoffMax shape the exponential backoff between
	// attempts: base<<attempt capped at max, then jittered to 50–100%.
	backoffBase time.Duration
	backoffMax  time.Duration
	// sleep waits between attempts; replaced in tests.
	sleep func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client.
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithRetries sets the number of extra attempts on retryable errors.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// DefaultPerCallTimeout is the per-attempt deadline New installs when
// WithPerCallTimeout is not given.
const DefaultPerCallTimeout = 30 * time.Second

// WithPerCallTimeout bounds each HTTP attempt. d == 0 explicitly disables
// the per-attempt deadline: each attempt is then bounded only by the
// caller's context (pass a context with a deadline, or accept that a stuck
// attempt lives as long as the query). Negative values are treated as 0.
func WithPerCallTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d < 0 {
			d = 0
		}
		c.perCallTimeout = d
	}
}

// WithBackoff sets the exponential backoff shape between retry attempts.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoffBase = base; c.backoffMax = max }
}

// New returns a client for the market at baseURL authenticating with key.
func New(baseURL, key string, opts ...Option) *Client {
	c := &Client{
		baseURL:        baseURL,
		key:            key,
		http:           &http.Client{},
		retries:        2,
		perCallTimeout: DefaultPerCallTimeout,
		backoffBase:    100 * time.Millisecond,
		backoffMax:     2 * time.Second,
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// backoffDelay returns the jittered wait before retry attempt n (n >= 1).
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.backoffBase
	for i := 1; i < attempt && d < c.backoffMax; i++ {
		d *= 2
	}
	if d > c.backoffMax {
		d = c.backoffMax
	}
	if d <= 0 {
		return 0
	}
	// Jitter into [d/2, d) so synchronized workers don't retry in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// get fetches one path with retries. Retryable failures (transport errors,
// per-attempt timeouts, undecodable bodies, HTTP 5xx/429) back off
// exponentially — unless the response named a Retry-After, which is honoured
// capped at backoffMax; permanent 4xx responses and parent-context
// cancellation return immediately. callID, when non-empty, travels as the
// X-Call-Id idempotency header on every attempt. decode reads a 200's body.
func (c *Client) get(ctx context.Context, path, callID string, decode func(body []byte) error) error {
	buf := bodies.Get().(*[]byte)
	defer putBody(buf)
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			delay := c.backoffDelay(attempt)
			if retryAfter > 0 {
				// The server told us when to come back; trust it over our
				// own schedule, but never wait longer than backoffMax.
				delay = retryAfter
				if delay > c.backoffMax {
					delay = c.backoffMax
				}
				retryAfter = 0
			}
			// Retry budget: every extra attempt, at any layer, withdraws one
			// token from the query's shared pool.
			if !overload.Spend(ctx, 1) {
				return fmt.Errorf("market: giving up after %d attempts: %w (last error: %v)",
					attempt, overload.ErrRetryBudget, lastErr)
			}
			// Annotate the in-flight call's trace record (if the engine
			// attached one) before the backoff sleep.
			obs.CallFromContext(ctx).AddRetry()
			if err := c.waitRetry(ctx, delay); err != nil {
				return fmt.Errorf("market call aborted after %d attempts: %w (last error: %v)", attempt, err, lastErr)
			}
		}
		code, hdr, err := c.attempt(ctx, path, callID, buf)
		body := *buf
		if err != nil {
			if ctx.Err() != nil {
				// The caller's context expired or was cancelled: the engine
				// is tearing the fan-out down, don't keep hammering.
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		if code != http.StatusOK {
			se := &StatusError{Code: code, RetryAfter: parseRetryAfter(hdr)}
			var we market.WireError
			if json.Unmarshal(body, &we) == nil && we.Error != "" {
				se.Msg = we.Error
			}
			if se.Permanent() {
				return se
			}
			retryAfter = se.RetryAfter
			lastErr = se
			continue
		}
		if err := decode(body); err != nil {
			// A 200 with an undecodable body is a corrupted or truncated
			// response, not a server verdict: retry it like a transport
			// error. The idempotency ID makes the retry billing-safe.
			lastErr = fmt.Errorf("malformed market response: %w", err)
			continue
		}
		return nil
	}
	return fmt.Errorf("market unreachable after %d attempts: %w", c.retries+1, lastErr)
}

// waitRetry waits out one backoff or Retry-After delay, aborting promptly
// the moment the caller's context is cancelled: a retry wait must never
// outlive the query that wanted the retry. The sleep is raced against
// ctx.Done() so the guarantee holds even when an injected sleep (tests,
// fake clocks) ignores the context it is handed.
func (c *Client) waitRetry(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- c.sleep(ctx, d) }()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case err := <-done:
		return err
	}
}

// parseRetryAfter reads a Retry-After header: delay-seconds or an HTTP-date.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// attempt performs one HTTP round-trip under the per-call deadline, reading
// the response body into *buf.
func (c *Client) attempt(ctx context.Context, path, callID string, buf *[]byte) (int, http.Header, error) {
	actx := ctx
	cancel := func() {}
	if c.perCallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.perCallTimeout)
	}
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(market.AuthHeader, c.key)
	if callID != "" {
		req.Header.Set(market.CallIDHeader, callID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if err := readBody(resp, buf); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// maxExactRead bounds the Content-Length readBody trusts with an up-front
// allocation: a larger claim is read as it arrives instead.
const maxExactRead = 64 << 20

// maxPooledBody is the largest body buffer get hands back to bodies: the
// pages of a bulk purchase are reused — a full 5 000-row TPC-H page is at
// most 192 KB — and a rare huge one is not kept.
const maxPooledBody = 256 << 10

// bodies recycles response buffers. Nothing a decoder returns points into
// the body it read (market.DecodeResultPage carves rows from its own slab
// and interns strings; encoding/json copies), so get hands its buffer back
// once it returns, on every path.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodies.Put(buf)
	}
}

// readBody reads a response body into *buf. A body of known length — what
// the market sends — is read into one buffer of exactly that size, *buf's
// own when it has room; a body of unknown length (a third-party market, or
// a proxy that strips the header) grows as it arrives. A body shorter than
// its length is io.ErrUnexpectedEOF: a transport error, which get retries
// under the same call ID.
func readBody(resp *http.Response, buf *[]byte) error {
	n := resp.ContentLength
	if n < 0 || n > maxExactRead {
		body, err := io.ReadAll(resp.Body)
		*buf = body
		return err
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := io.ReadFull(resp.Body, *buf); err != nil {
		if err == io.EOF { // nothing at all arrived
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// Catalog fetches the market's public table metadata — the registration
// step of paper Fig. 2.
func (c *Client) Catalog() ([]*catalog.Table, error) {
	return c.CatalogContext(context.Background())
}

// CatalogContext is Catalog under a caller-supplied context.
func (c *Client) CatalogContext(ctx context.Context) ([]*catalog.Table, error) {
	var wire []market.WireTable
	if err := c.get(ctx, "/v1/catalog", "", jsonInto(&wire)); err != nil {
		return nil, err
	}
	out := make([]*catalog.Table, 0, len(wire))
	for _, wt := range wire {
		t, err := market.TableOfWire(wt)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// TuplesPerTransaction fetches the page size t of the named dataset.
func (c *Client) TuplesPerTransaction(dataset string) (int, error) {
	return c.TuplesPerTransactionContext(context.Background(), dataset)
}

// TuplesPerTransactionContext is TuplesPerTransaction under a
// caller-supplied context: cancellation aborts in-flight attempts and any
// pending retry wait.
func (c *Client) TuplesPerTransactionContext(ctx context.Context, dataset string) (int, error) {
	var wire []market.WireTable
	if err := c.get(ctx, "/v1/catalog", "", jsonInto(&wire)); err != nil {
		return 0, err
	}
	for _, wt := range wire {
		if wt.Dataset == dataset {
			return wt.TuplesPerTransaction, nil
		}
	}
	return 0, fmt.Errorf("unknown dataset %s", dataset)
}

// Meter fetches the account's current spending.
func (c *Client) Meter() (market.Meter, error) {
	return c.MeterContext(context.Background())
}

// MeterContext is Meter under a caller-supplied context.
func (c *Client) MeterContext(ctx context.Context) (market.Meter, error) {
	var m market.Meter
	err := c.get(ctx, "/v1/meter", "", jsonInto(&m))
	return m, err
}

// jsonInto decodes a body into v with encoding/json: fine for the catalog
// and the meter, which are fetched once in a while, not once per row.
func jsonInto(v any) func([]byte) error {
	return func(body []byte) error { return json.Unmarshal(body, v) }
}

// Call executes one RESTful data call under ctx. It implements the unified
// market.Caller: cancelling ctx aborts the in-flight request and any
// remaining result pages.
func (c *Client) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	if q.CallID == "" {
		// A fresh logical call funds the query's shared retry budget; a
		// call arriving with an ID was already granted at the layer that
		// assigned it (the federation fan-out).
		overload.Grant(ctx, overload.GrantPerCall)
	}
	// One idempotency ID per logical call, shared by every retry of every
	// page: the market bills it once and replays thereafter.
	market.EnsureCallID(&q)
	params := url.Values{}
	for _, p := range q.Preds {
		switch {
		case p.Eq != nil:
			params.Set(p.Attr, p.Eq.String())
		default:
			if p.Lo != nil {
				params.Set(p.Attr+".gte", strconv.FormatInt(*p.Lo, 10))
			}
			if p.Hi != nil {
				params.Set(p.Attr+".lte", strconv.FormatInt(*p.Hi, 10))
			}
		}
	}
	ds := q.Dataset
	if ds == "" {
		ds = "-" // the server resolves "-" by unique table name
	}
	base := "/v1/data/" + url.PathEscape(ds) + "/" + url.PathEscape(q.Table)
	// Page 0 carries the schema and the bill; later pages only add rows. Each
	// page is decoded inside get, so a page that does not decode is retried.
	var res market.Result
	for page := 0; ; {
		params.Set("page", strconv.Itoa(page))
		var part market.Result
		var next int
		err := c.get(ctx, base+"?"+params.Encode(), q.CallID, func(body []byte) (err error) {
			part, next, err = market.DecodeResultPage(body)
			return err
		})
		if err != nil {
			return market.Result{}, err
		}
		if page == 0 {
			res = part
		} else {
			res.Rows = append(res.Rows, part.Rows...)
		}
		if next == 0 {
			return res, nil
		}
		page = next
	}
}

// Package connector is PayLess's data-market connector (paper §3, step 5):
// an HTTP client that registers with a market server, exports its public
// catalog, and issues RESTful data calls carrying the buyer's authentication
// key. It implements the unified context-first market.Caller, so the
// execution engine is oblivious to whether the market is remote (this
// client) or in-process, and its parallel fetch pipeline can cancel
// in-flight calls.
//
// The connector makes one attempt per request, bounded by a per-attempt
// deadline and by the caller's context. A retryable failure — a transport
// error, that deadline, an HTTP 5xx or 429, a truncated or undecodable body
// — comes back as a *Fault carrying the server's Retry-After; a permanent
// HTTP 4xx comes back as a *StatusError and must never be re-issued, since
// every accepted call costs money. The federation layer above owns every
// retry: it waits, spends the query's retry budget, and resumes a data
// call's Fault at the page that failed.
//
// Retrying a data call is safe because every logical call carries a unique
// idempotency ID (the X-Call-Id header), assigned once above every retry.
// The market bills an ID at most once and replays the billed result on
// retry, so even the worst failure — the connection dropping after the
// server billed but before the response arrived — never double-charges.
package connector

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
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

// Fault is one attempt's retryable failure: a transport error, the
// per-attempt timeout, an HTTP 5xx or 429, or a 200 whose body is truncated
// or does not decode. The caller (the federation layer) decides whether and
// when to try again.
type Fault struct {
	Err error
	// RetryAfter is the wait the server asked for (a 429/503's Retry-After
	// header); 0 when absent.
	RetryAfter time.Duration
	// Page is the result page the failed attempt was reading: 0 for page 0
	// and for metadata calls.
	Page int
	// resume re-issues a data call from Page; nil for metadata calls.
	resume func(ctx context.Context) (market.Result, error)
}

func (f *Fault) Error() string { return f.Err.Error() }

// Unwrap exposes the attempt's own error.
func (f *Fault) Unwrap() error { return f.Err }

// Resume retries the failed data call from the page that failed, under the
// same call ID, keeping the pages already read: the market replays the
// billed result, so a resumed call is never billed again. A metadata call's
// Fault cannot resume and returns itself.
func (f *Fault) Resume(ctx context.Context) (market.Result, error) {
	if f.resume == nil {
		return market.Result{}, f
	}
	return f.resume(ctx)
}

// Client talks to one market server on behalf of one account. It is safe
// for concurrent use by the engine's parallel fetch pipeline.
type Client struct {
	baseURL string
	key     string
	http    *http.Client
	// perCallTimeout bounds each attempt, so a stalled server cannot hold a
	// call as long as the query lives: 30 s, which in-package tests shorten;
	// 0 leaves an attempt bounded only by the caller's context.
	perCallTimeout time.Duration
}

// New returns a client for the market at baseURL authenticating with key.
func New(baseURL, key string) *Client {
	return &Client{baseURL: baseURL, key: key, http: &http.Client{}, perCallTimeout: 30 * time.Second}
}

// get makes one attempt at path. A retryable failure comes back as a
// *Fault, a permanent 4xx as a *StatusError, and the caller's own
// cancellation as ctx's error. callID, when non-empty, travels as the
// X-Call-Id idempotency header. decode reads a 200's body.
func (c *Client) get(ctx context.Context, path, callID string, decode func(body []byte) error) error {
	buf := bodies.Get().(*[]byte)
	defer putBody(buf)
	resp, err := c.attempt(ctx, path, callID, buf)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context expired or was cancelled: the engine is
			// tearing the fan-out down, nothing to retry.
			return ctx.Err()
		}
		return &Fault{Err: err}
	}
	body := *buf
	if code := resp.StatusCode; code != http.StatusOK {
		se := &StatusError{Code: code, RetryAfter: parseRetryAfter(resp.Header)}
		var we market.WireError
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			se.Msg = we.Error
		}
		if se.Permanent() {
			return se
		}
		return &Fault{Err: se, RetryAfter: se.RetryAfter}
	}
	if err := decode(body); err != nil {
		// A 200 with an undecodable body is a corrupted or truncated
		// response, not a server verdict: as retryable as a transport
		// error. The idempotency ID makes the retry billing-safe.
		if errors.Is(err, market.ErrNotAPage) {
			err = fmt.Errorf("%w: the market answered with %q", err, resp.Header.Get("Content-Type"))
		}
		return &Fault{Err: fmt.Errorf("malformed market response: %w", err)}
	}
	return nil
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
func (c *Client) attempt(ctx context.Context, path, callID string, buf *[]byte) (*http.Response, error) {
	actx := ctx
	cancel := func() {}
	if c.perCallTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.perCallTimeout)
	}
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(market.AuthHeader, c.key)
	if callID != "" {
		req.Header.Set(market.CallIDHeader, callID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return resp, readBody(resp, buf)
}

// maxExactRead bounds the Content-Length readBody trusts with an up-front
// allocation: a larger claim is read as it arrives instead.
const maxExactRead = 64 << 20

// maxPooledBody is the largest body buffer get hands back to bodies: the
// pages of a bulk purchase are reused — a full 5 000-row TPC-H page is at
// most 118 KB — and a rare huge one is not kept.
const maxPooledBody = 128 << 10

// bodies recycles response buffers. Nothing a decoder returns points into
// the body it read (market.DecodeResultPage fills its own column batch and
// interns strings; encoding/json copies), so get hands its buffer back
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
// its length is io.ErrUnexpectedEOF: a transport error, which get returns
// as a Fault, to be retried under the same call ID.
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

// Register fetches the market's public catalog — the registration step of
// paper Fig. 2 — with one request: the tables and each dataset's page size t.
func (c *Client) Register() ([]*catalog.Table, map[string]int, error) {
	var wire []market.WireTable
	if err := c.get(context.Background(), "/v1/catalog", "", jsonInto(&wire)); err != nil {
		return nil, nil, err
	}
	out := make([]*catalog.Table, 0, len(wire))
	tpt := make(map[string]int)
	for _, wt := range wire {
		t, err := market.TableOfWire(wt)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, t)
		tpt[wt.Dataset] = wt.TuplesPerTransaction // one t per dataset
	}
	return out, tpt, nil
}

// Catalog fetches the market's public table metadata.
func (c *Client) Catalog() ([]*catalog.Table, error) {
	tables, _, err := c.Register()
	return tables, err
}

// TuplesPerTransaction fetches the page size t of the named dataset.
func (c *Client) TuplesPerTransaction(dataset string) (int, error) {
	_, tpt, err := c.Register()
	if err != nil {
		return 0, err
	}
	t, ok := tpt[dataset]
	if !ok {
		return 0, fmt.Errorf("unknown dataset %s", dataset)
	}
	return t, nil
}

// Meter fetches the account's current spending.
func (c *Client) Meter() (market.Meter, error) {
	var m market.Meter
	err := c.get(context.Background(), "/v1/meter", "", jsonInto(&m))
	return m, err
}

// jsonInto decodes a body into v with encoding/json: fine for the catalog
// and the meter, which are fetched once in a while, not once per row.
func jsonInto(v any) func([]byte) error {
	return func(body []byte) error { return json.Unmarshal(body, v) }
}

// Call executes one RESTful data call under ctx, one attempt per result
// page. It implements the unified market.Caller: cancelling ctx aborts the
// in-flight request and any remaining result pages.
func (c *Client) Call(ctx context.Context, q catalog.AccessQuery) (market.Result, error) {
	// One idempotency ID per logical call, shared by every retry of every
	// page: the market bills it once and replays thereafter.
	market.EnsureCallID(&q)
	return c.pages(ctx, q, market.Result{}, 0)
}

// pages reads q's result from page onward into res. Page 0 carries the
// schema and the bill; later pages only add rows, appended column by
// column, and must carry page 0's schema. Each page is decoded inside get,
// so a page that does not decode or whose schema differs is a Fault, which
// resumes here at the page that failed with the pages before it kept.
func (c *Client) pages(ctx context.Context, q catalog.AccessQuery, res market.Result, page int) (market.Result, error) {
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
	for {
		params.Set("page", strconv.Itoa(page))
		var part market.Result
		var next int
		schema := res.Schema
		err := c.get(ctx, base+"?"+params.Encode(), q.CallID, func(body []byte) (err error) {
			part, next, err = market.DecodeResultPage(body)
			if err == nil && page > 0 && !slices.Equal(part.Schema, schema) {
				err = fmt.Errorf("page %d's schema %v is not page 0's %v", page, part.Schema, schema)
			}
			return err
		})
		if err != nil {
			if f, ok := err.(*Fault); ok {
				kept := res // a copy taken here, so only a failed page pays for it
				f.Page = page
				f.resume = func(ctx context.Context) (market.Result, error) { return c.pages(ctx, q, kept, f.Page) }
			}
			return market.Result{}, err
		}
		if page == 0 {
			res = part
		} else {
			res.Batch.Append(part.Batch)
		}
		if next == 0 {
			return res, nil
		}
		page = next
	}
}

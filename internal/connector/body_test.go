package connector

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/value"
)

// fullPage returns the wire body of one full transport page: PageRows rows
// of an int key, a string, a float and a date-like int.
func fullPage() []byte {
	res := market.Result{Schema: value.Schema{
		{Name: "K", Type: value.Int},
		{Name: "Flag", Type: value.String},
		{Name: "Price", Type: value.Float},
		{Name: "Day", Type: value.Int},
	}}
	for i := range market.PageRows {
		res.Rows = append(res.Rows, value.Row{
			value.NewInt(int64(i)),
			value.NewString([]string{"A", "N", "R"}[i%3]),
			value.NewFloat(float64(i) / 7),
			value.NewInt(int64(1 + i%2400)),
		})
	}
	res.Records, res.Transactions, res.Price = len(res.Rows), 50, 50
	return market.AppendResultPage(nil, res, 0, len(res.Rows), 0)
}

// pageServer serves body to every request: with its Content-Length, as the
// market sends a page, or chunked with no length, as a market that streams
// its pages would.
func pageServer(body []byte, withLength bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", market.PageMediaType)
		if withLength {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		}
		half := len(body) / 2
		w.Write(body[:half])
		w.(http.Flusher).Flush() // headers go out now, so no length can follow
		w.Write(body[half:])
	}))
}

// allocatedPerRun is the bytes the process allocates per run of f: the
// in-process server's share is a few kilobytes per request.
func allocatedPerRun(runs int, f func()) uint64 {
	f() // warm up: the connection, the transport's buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestKnownLengthPageReadOnce: a full page served with its Content-Length is
// read into one buffer of exactly its size. What a Call allocates beyond
// decoding the page stays under 1.25 bodies; reading it through a buffer
// grown as the bytes arrive costs nearly five. The connection is reused from
// call to call, so the exact read still sees the body's end.
func TestKnownLengthPageReadOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	body := fullPage()
	srv := pageServer(body, true)
	defer srv.Close()
	c := New(srv.URL, "k")
	reused := 0
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		},
	})
	const runs = 20
	call := func() {
		if _, err := c.Call(ctx, catalog.AccessQuery{Dataset: "DS", Table: "T"}); err != nil {
			t.Fatal(err)
		}
	}
	perCall := allocatedPerRun(runs, call)
	decode := allocatedPerRun(runs, func() {
		if _, _, err := market.DecodeResultPage(body); err != nil {
			t.Fatal(err)
		}
	})
	over := perCall - decode
	t.Logf("%d-byte page: a Call allocates %d bytes, %d beyond its decode (%.2f bodies)",
		len(body), perCall, over, float64(over)/float64(len(body)))
	if limit := uint64(len(body) + len(body)/4); over > limit {
		t.Errorf("a Call allocates %d bytes beyond decoding its %d-byte page; want at most %d",
			over, len(body), limit)
	}
	if reused != runs {
		t.Errorf("%d of %d calls after the first reused the connection", reused, runs)
	}
}

// TestLargePageReusesItsBody: a page of about 117 KB, the size of the
// largest full TPC-H page, is read into the buffer the call before it
// handed back: a Call allocates less than a quarter of the body beyond
// decoding the page, where reading it into a new buffer costs the whole
// body.
func TestLargePageReusesItsBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	body := taggedPage("a-page-of-about-117-KB-", 4000)
	if len(body) < 112<<10 || len(body) > 118<<10 {
		t.Fatalf("a %d-byte page; the test wants 112 KB to 118 KB", len(body))
	}
	srv := pageServer(body, true)
	defer srv.Close()
	c := New(srv.URL, "k")
	perCall := allocatedPerRun(10, func() {
		if _, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"}); err != nil {
			t.Fatal(err)
		}
	})
	decode := allocatedPerRun(10, func() {
		if _, _, err := market.DecodeResultPage(body); err != nil {
			t.Fatal(err)
		}
	})
	over := perCall - decode
	t.Logf("%d-byte page: a Call allocates %d bytes beyond its decode (%.2f bodies)", len(body), over, float64(over)/float64(len(body)))
	if over > uint64(len(body)/4) {
		t.Errorf("a Call allocates %d bytes beyond decoding its %d-byte page; want under a quarter body", over, len(body))
	}
}

// TestChunkedPageDecodesIdentically: a page of unknown length is read as it
// arrives and decodes to the same result as the same page with a length.
func TestChunkedPageDecodesIdentically(t *testing.T) {
	body := fullPage()
	results := make([]market.Result, 2)
	for i, withLength := range []bool{true, false} {
		srv := pageServer(body, withLength)
		resp, err := srv.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if known := resp.ContentLength >= 0; known != withLength {
			t.Fatalf("served with length %v, but the client sees Content-Length %d", withLength, resp.ContentLength)
		}
		c := New(srv.URL, "k")
		results[i], err = c.Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"})
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(results[0].Rows) != market.PageRows {
		t.Fatalf("decoded %d rows, want %d", len(results[0].Rows), market.PageRows)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("the chunked page decodes differently from the same page with a Content-Length")
	}
}

// TestShortBodyRetriedBilledOnce: a page cut short of its Content-Length is
// an unexpected EOF, retried under the same call ID, and the market bills
// the call once.
func TestShortBodyRetriedBilledOnce(t *testing.T) {
	m := newMarket(t)
	inner := m.Handler()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) > 1 {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			w.Header()[k] = vs // Content-Length included: it will not be met
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut the connection mid-body
	}))
	defer srv.Close()

	c := New(srv.URL, "k")
	_, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "WHW", Table: "Station"})
	var f *Fault
	if !errors.As(err, &f) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a short body: %v, want a Fault wrapping an unexpected EOF", err)
	}
	res, err := f.Resume(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 2 {
		t.Errorf("attempts: %d, want 2 (the short body, then its retry)", hits.Load())
	}
	if res.Records != 150 || res.Transactions != 2 {
		t.Errorf("result: %d records, %d transactions; want 150 and 2", res.Records, res.Transactions)
	}
	if meter, _ := m.MeterOf("k"); meter.Calls != 1 || meter.Transactions != 2 {
		t.Errorf("market meter: %d calls, %d transactions; want the call billed once: 1 call, 2 transactions",
			meter.Calls, meter.Transactions)
	}
}

// TestOversizedContentLengthIsNotPreallocated: a Content-Length beyond
// maxExactRead is not allocated up front (a terabyte would kill the
// process); the body is read as it arrives, and one that stops short is a
// transport error.
func TestOversizedContentLengthIsNotPreallocated(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(1<<40))
		w.Write(fullPage()[:100])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer srv.Close()
	c := New(srv.URL, "k")
	_, err := c.Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a body that stops short of a terabyte Content-Length: %v, want an unexpected EOF", err)
	}
}

// taggedPage returns the wire body of a page of n rows whose string cells
// start with tag: pages of tags of one length have bodies of one length.
func taggedPage(tag string, n int) []byte {
	res := market.Result{Schema: value.Schema{{Name: "K", Type: value.Int}, {Name: "Name", Type: value.String}}}
	for i := range n {
		res.Rows = append(res.Rows, value.Row{value.NewInt(int64(i)), value.NewString(tag + strconv.Itoa(i))})
	}
	res.Records, res.Transactions, res.Price = n, 1, 1
	return market.AppendResultPage(nil, res, 0, n, 0)
}

// TestDecodedPageOutlivesItsBuffer: a body's buffer goes back to the pool
// once its page is decoded, so a decoded Result must hold nothing of it.
// Two pages of one length and different cells are served in turn: the
// second call reads into the buffer the first one gave back (unless the
// race detector's pool dropped it), and the first result must still be the
// first page's. Then a buffer get handed a decoder is overwritten by hand
// after get returns, and the result decoded from it must not change.
func TestDecodedPageOutlivesItsBuffer(t *testing.T) {
	pages := [][]byte{taggedPage("first-", 200), taggedPage("other-", 200)}
	if len(pages[0]) != len(pages[1]) || len(pages[0]) > maxPooledBody {
		t.Fatalf("page bodies of %d and %d bytes; the test wants one length, at most %d", len(pages[0]), len(pages[1]), maxPooledBody)
	}
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := pages[(served.Add(1)-1)%2]
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	defer srv.Close()
	want := make([]market.Result, 2)
	for i, page := range pages {
		var err error
		if want[i], _, err = market.DecodeResultPage(slices.Clone(page)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(srv.URL, "k")
	q := catalog.AccessQuery{Dataset: "DS", Table: "T"}
	first, err := c.Call(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Call(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want[0]) || !reflect.DeepEqual(second, want[1]) {
		t.Fatal("a page read into a recycled buffer changed the result decoded from the page before it")
	}

	var kept []byte
	var res market.Result
	if err := c.get(context.Background(), "/page", "", func(body []byte) (err error) {
		kept = body
		res, _, err = market.DecodeResultPage(body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	kept = kept[:cap(kept)]
	for i := range kept {
		kept[i] = '#'
	}
	if !reflect.DeepEqual(res, want[0]) { // the third request is served the first page
		t.Fatal("overwriting a decoded body's buffer changed the decoded result")
	}
}

// TestWrongMediaTypeIsAFault: a 200 that is not a page — the JSON an older
// market sends, or a proxy's HTML — is a Fault whose error names the type
// the body came as, and so is a page cut short of its end.
func TestWrongMediaTypeIsAFault(t *testing.T) {
	page := taggedPage("x", 3)
	for _, tc := range []struct{ contentType, body, want string }{
		{"application/json", `{"schema":[{"name":"K","type":"int"}],"rows":[["1"]],"records":1}`, `"application/json"`},
		{"text/html; charset=utf-8", "<html><body>502 Bad Gateway</body></html>", `"text/html; charset=utf-8"`},
		{market.PageMediaType, string(page[:len(page)-1]), "unexpected end"},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", tc.contentType)
			w.Write([]byte(tc.body))
		}))
		_, err := New(srv.URL, "k").Call(context.Background(), catalog.AccessQuery{Dataset: "DS", Table: "T"})
		srv.Close()
		var f *Fault
		if !errors.As(err, &f) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("a %s body: %v, want a Fault naming %s", tc.contentType, err, tc.want)
		}
	}
}

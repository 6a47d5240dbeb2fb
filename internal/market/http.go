package market

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"payless/internal/catalog"
	"payless/internal/value"
)

// Wire types shared by the HTTP server and the connector client. A data
// call's body has its own hand-written codec in wire.go.

// WireColumn is the JSON form of one column with its access metadata.
type WireColumn struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Binding string   `json:"binding"`
	Class   string   `json:"class"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Domain  []string `json:"domain,omitempty"`
}

// WireTable is the JSON form of a table's public metadata.
type WireTable struct {
	Dataset              string       `json:"dataset"`
	Name                 string       `json:"name"`
	Cardinality          int64        `json:"cardinality"`
	PricePerTransaction  float64      `json:"pricePerTransaction"`
	TuplesPerTransaction int          `json:"tuplesPerTransaction"`
	Columns              []WireColumn `json:"columns"`
}

// PageRows is the HTTP transport's page size in rows. It is a transport
// detail independent of the billing page size t. It is a variable so tests
// can shrink it to exercise multi-page fetches with small tables.
var PageRows = 5000

// WireError is the JSON error envelope.
type WireError struct {
	Error string `json:"error"`
}

// BindingOf parses a wire binding tag.
func BindingOf(s string) (catalog.BindingClass, error) {
	switch s {
	case "f":
		return catalog.Free, nil
	case "b":
		return catalog.Bound, nil
	case "o":
		return catalog.Output, nil
	default:
		return 0, fmt.Errorf("unknown binding %q", s)
	}
}

func className(c catalog.AttrClass) string {
	if c == catalog.CategoricalAttr {
		return "categorical"
	}
	return "numeric"
}

// ClassOf parses a wire attribute class.
func ClassOf(s string) (catalog.AttrClass, error) {
	switch s {
	case "numeric":
		return catalog.NumericAttr, nil
	case "categorical":
		return catalog.CategoricalAttr, nil
	default:
		return 0, fmt.Errorf("unknown class %q", s)
	}
}

// WireTableOf converts catalog metadata plus dataset pricing to wire form.
func WireTableOf(t *catalog.Table, tuplesPerTransaction int) WireTable {
	wt := WireTable{
		Dataset:              t.Dataset,
		Name:                 t.Name,
		Cardinality:          t.Cardinality,
		PricePerTransaction:  t.PricePerTransaction,
		TuplesPerTransaction: tuplesPerTransaction,
	}
	for i, c := range t.Schema {
		a := t.Attrs[i]
		wc := WireColumn{
			Name:    c.Name,
			Type:    c.Type.String(),
			Binding: a.Binding.String(),
			Class:   className(a.Class),
			Min:     a.Min,
			Max:     a.Max,
		}
		for _, d := range a.Domain {
			wc.Domain = append(wc.Domain, d.String())
		}
		wt.Columns = append(wt.Columns, wc)
	}
	return wt
}

// TableOfWire converts wire metadata back into a catalog table.
func TableOfWire(wt WireTable) (*catalog.Table, error) {
	t := &catalog.Table{
		Dataset:             wt.Dataset,
		Name:                wt.Name,
		Cardinality:         wt.Cardinality,
		PricePerTransaction: wt.PricePerTransaction,
	}
	for _, wc := range wt.Columns {
		k, err := value.ParseKind(wc.Type)
		if err != nil {
			return nil, err
		}
		b, err := BindingOf(wc.Binding)
		if err != nil {
			return nil, err
		}
		cl, err := ClassOf(wc.Class)
		if err != nil {
			return nil, err
		}
		a := catalog.Attribute{Name: wc.Name, Type: k, Binding: b, Class: cl, Min: wc.Min, Max: wc.Max}
		for _, d := range wc.Domain {
			v, err := value.Parse(k, d)
			if err != nil {
				return nil, err
			}
			a.Domain = append(a.Domain, v)
		}
		t.Schema = append(t.Schema, value.Column{Name: wc.Name, Type: k})
		t.Attrs = append(t.Attrs, a)
	}
	return t, nil
}

// AuthHeader carries the buyer's account key on every HTTP request.
const AuthHeader = "X-Account-Key"

// CallIDHeader carries the logical call's idempotency ID on data requests.
// All pages of one call (including retried pages) send the same ID; the
// server bills the ID at most once and serves every page from the billed
// snapshot while the ledger remembers it.
const CallIDHeader = "X-Call-Id"

// Handler returns the market's RESTful HTTP interface:
//
//	GET /v1/catalog                      — public table metadata
//	GET /v1/meter                        — the calling account's meter
//	GET /v1/data/{dataset}/{table}?...   — one RESTful data call
//	GET /metrics                         — seller-side Prometheus metrics
//
// Data-call predicates travel as query parameters: attr=value for equality,
// attr.gte= / attr.lte= for inclusive numeric range ends.
func (m *Market) Handler() http.Handler {
	mux := http.NewServeMux()
	// /metrics is unauthenticated by design: it exposes aggregate service
	// counters (no per-account data) in the format scrapers expect.
	mux.Handle("GET /metrics", m.metrics.Handler("market"))
	mux.HandleFunc("GET /v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		if !m.authed(r) {
			httpError(w, http.StatusUnauthorized, "unknown account key")
			return
		}
		var out []WireTable
		for _, t := range m.ExportCatalog() {
			ds, _ := m.Dataset(t.Dataset)
			out = append(out, WireTableOf(t, ds.TuplesPerTransaction))
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("GET /v1/meter", func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(AuthHeader)
		mt, ok := m.MeterOf(key)
		if !ok {
			httpError(w, http.StatusUnauthorized, "unknown account key")
			return
		}
		writeJSON(w, mt)
	})
	mux.HandleFunc("GET /v1/data/{dataset}/{table}", func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(AuthHeader)
		if _, ok := m.MeterOf(key); !ok {
			httpError(w, http.StatusUnauthorized, "unknown account key")
			return
		}
		dataset := r.PathValue("dataset")
		if dataset == "-" {
			// "-" lets clients address a table unique across datasets.
			dataset = ""
		}
		table := r.PathValue("table")
		_, mt, err := m.lookup(dataset, table)
		if err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		params := r.URL.Query()
		mt.mu.RLock()
		q, err := decodeQuery(mt.meta, dataset, table, params)
		mt.mu.RUnlock()
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		q.CallID = r.Header.Get(CallIDHeader)
		page := 0
		if p := params.Get("page"); p != "" {
			page, err = strconv.Atoi(p)
			if err != nil || page < 0 {
				httpError(w, http.StatusBadRequest, "invalid page")
				return
			}
		}
		var res Result
		if page == 0 {
			res, err = m.Execute(key, q)
		} else {
			// Follow-up pages never bill: they are served from the replay
			// ledger's billed snapshot when the call carries an ID the
			// ledger still holds — so a paginated result stays consistent
			// while the table is appended to — or by re-reading unbilled.
			var replayed bool
			if res, replayed, err = m.replay(key, q); err == nil && !replayed {
				res, _, err = m.serve(q)
			}
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		start := min(page*PageRows, res.Batch.N)
		end := min(start+PageRows, res.Batch.N)
		next := 0
		if end < res.Batch.N {
			next = page + 1
		}
		buf := pageBufs.Get().(*[]byte)
		body := AppendResultPage((*buf)[:0], res, start, end, next)
		w.Header().Set("Content-Type", PageMediaType)
		// The whole page is in hand: its length lets the buyer read it into
		// one buffer of exactly that size.
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		// Headers are sent; nothing more to do about a failed write.
		_, _ = w.Write(body)
		if *buf = body[:0]; cap(body) <= maxPooledPage {
			pageBufs.Put(buf)
		}
	})
	return mux
}

// pageBufs recycles page bodies once written, up to maxPooledPage bytes: a
// full page fits while its rows take under 800 bytes each on the wire (a
// full TPC-H page is at most 118 KB).
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPage = 4 << 20

// decodeQuery parses URL query parameters into an AccessQuery using the
// table's schema to type equality values. The caller holds the table's
// lock (shared suffices). The two ends of a range meet in one predicate.
func decodeQuery(meta *catalog.Table, dataset, table string, params url.Values) (catalog.AccessQuery, error) {
	q := catalog.AccessQuery{Dataset: dataset, Table: table}
	for key, vals := range params {
		if len(vals) == 0 || key == "page" {
			// "page" is the transport's paging cursor, not a predicate.
			continue
		}
		raw := vals[0]
		attr, lo := strings.CutSuffix(key, ".gte")
		if !lo {
			attr, _ = strings.CutSuffix(key, ".lte")
		}
		if attr != key {
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return q, fmt.Errorf("invalid %s: %v", key, err)
			}
			if _, ok := meta.Attr(attr); !ok {
				return q, fmt.Errorf("unknown attribute %q", attr)
			}
			i := slices.IndexFunc(q.Preds, func(p catalog.Pred) bool { return p.Eq == nil && p.Attr == attr })
			if i < 0 {
				i, q.Preds = len(q.Preds), append(q.Preds, catalog.Pred{Attr: attr})
			}
			if lo {
				q.Preds[i].Lo = &n
			} else {
				q.Preds[i].Hi = &n
			}
			continue
		}
		a, ok := meta.Attr(key)
		if !ok {
			return q, fmt.Errorf("unknown attribute %q", key)
		}
		v, err := value.Parse(a.Type, raw)
		if err != nil {
			return q, fmt.Errorf("invalid value for %s: %v", key, err)
		}
		q.Preds = append(q.Preds, catalog.Pred{Attr: key, Eq: &v})
	}
	return q, nil
}

func (m *Market) authed(r *http.Request) bool {
	_, ok := m.MeterOf(r.Header.Get(AuthHeader))
	return ok
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(WireError{Error: msg})
}

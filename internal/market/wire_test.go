package market

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/value"
)

// refWireResult and refResultOfWire are the decoder this package had before
// DecodeResultPage — encoding/json into a struct of string cells, then
// value.Parse per cell — kept as its reference. Cells are *string so that the
// JSON null the wire now uses for NULL has somewhere to go.
type refWireResult struct {
	Schema []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	} `json:"schema"`
	Rows         [][]*string `json:"rows"`
	Records      int         `json:"records"`
	Transactions int64       `json:"transactions"`
	Price        float64     `json:"price"`
	NextPage     int         `json:"nextPage,omitempty"`
}

func refResultOfWire(wr refWireResult) (Result, error) {
	r := Result{Records: wr.Records, Transactions: wr.Transactions, Price: wr.Price}
	kinds := make([]value.Kind, len(wr.Schema))
	for i, wc := range wr.Schema {
		k, err := value.ParseKind(wc.Type)
		if err != nil {
			return Result{}, err
		}
		kinds[i] = k
		r.Schema = append(r.Schema, value.Column{Name: wc.Name, Type: k})
	}
	for _, enc := range wr.Rows {
		if len(enc) != len(kinds) {
			return Result{}, fmt.Errorf("row width %d, want %d", len(enc), len(kinds))
		}
		row := make(value.Row, len(enc))
		for i, s := range enc {
			if s == nil {
				continue // NULL
			}
			v, err := value.Parse(kinds[i], *s)
			if err != nil {
				return Result{}, err
			}
			row[i] = v
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

func refDecode(body []byte) (Result, int, error) {
	var wr refWireResult
	if err := json.Unmarshal(body, &wr); err != nil {
		return Result{}, 0, err
	}
	res, err := refResultOfWire(wr)
	return res, wr.NextPage, err
}

// repeatsAKey reports whether a (valid) body repeats, in any case, a key the
// decoder reads: in the top-level object or in a schema column. That is the
// one kind of body DecodeResultPage rejects and encoding/json merges.
func repeatsAKey(body []byte) bool {
	members := func(raw []byte, known ...string) (vals map[string]json.RawMessage, repeated bool) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			return nil, false
		}
		vals = map[string]json.RawMessage{}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return vals, repeated
			}
			var val json.RawMessage
			if err := dec.Decode(&val); err != nil {
				return vals, repeated
			}
			for _, k := range known {
				if strings.EqualFold(k, tok.(string)) {
					if _, dup := vals[k]; dup {
						repeated = true
					}
					vals[k] = val
				}
			}
		}
		return vals, repeated
	}
	top, repeated := members(body, "schema", "rows", "records", "transactions", "price", "nextPage")
	if repeated {
		return true
	}
	var cols []json.RawMessage
	if json.Unmarshal(top["schema"], &cols) != nil {
		return false
	}
	for _, col := range cols {
		if _, repeated := members(col, "name", "type"); repeated {
			return true
		}
	}
	return false
}

// sameResult compares two decoded pages exactly: kinds, payloads (NaN equals
// NaN, -0 differs from 0) and every scalar.
func sameResult(a, b Result) error {
	if a.Records != b.Records || a.Transactions != b.Transactions ||
		math.Float64bits(a.Price) != math.Float64bits(b.Price) {
		return fmt.Errorf("scalars %d/%d/%v vs %d/%d/%v", a.Records, a.Transactions, a.Price, b.Records, b.Transactions, b.Price)
	}
	if len(a.Schema) != len(b.Schema) || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d columns x %d rows vs %d x %d", len(a.Schema), len(a.Rows), len(b.Schema), len(b.Rows))
	}
	for i := range a.Schema {
		if a.Schema[i] != b.Schema[i] {
			return fmt.Errorf("column %d: %v vs %v", i, a.Schema[i], b.Schema[i])
		}
	}
	for r := range a.Rows {
		if len(a.Rows[r]) != len(b.Rows[r]) {
			return fmt.Errorf("row %d: width %d vs %d", r, len(a.Rows[r]), len(b.Rows[r]))
		}
		for c, v := range a.Rows[r] {
			w := b.Rows[r][c]
			if v.K != w.K || v.Int64() != w.Int64() || v.Str() != w.Str() || math.Float64bits(v.Float64()) != math.Float64bits(w.Float64()) {
				return fmt.Errorf("row %d cell %d: %#v vs %#v", r, c, v, w)
			}
		}
	}
	return nil
}

// checkAgainstReference is the equivalence the fuzz target and the table
// test share: both decoders reject the body, or both accept it and return
// equal pages — except a repeated key, which only the new one rejects.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	got, gotNext, gotErr := DecodeResultPage(body)
	want, wantNext, wantErr := refDecode(body)
	if wantErr == nil && repeatsAKey(body) {
		if gotErr == nil {
			t.Fatalf("body repeats a key and was accepted: %q", body)
		}
		return
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoder: %v, reference: %v\nbody: %q", gotErr, wantErr, body)
	}
	if gotErr != nil {
		return
	}
	if gotNext != wantNext {
		t.Fatalf("nextPage %d, reference %d\nbody: %q", gotNext, wantNext, body)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatalf("%v\nbody: %q", err, body)
	}
}

// wireCorpus is every shape of body the decoder's contract names: what the
// server writes, what encoding/json tolerates, and what must be rejected.
var wireCorpus = []string{
	`{"schema":[{"name":"a","type":"int"},{"name":"b","type":"string"}],"rows":[["1","x"],["-2","y"]],"records":2,"transactions":1,"price":1,"nextPage":1}`,
	`{"schema":[{"name":"a","type":"int","binding":"","class":""}],"rows":[],"records":0,"transactions":0,"price":0}`,
	`{"Calls":1,"Records":2,"Transactions":1,"Price":1,"Rows":[],"NextPage":1}`,
	` { "rows" : [ [ "1.5" , null ] , [ "NaN" , "NULL" ] ] , "schema" : [ { "type" : "float" , "name" : "f" } , { "name" : "s" , "type" : "string" } ] } `,
	`{"schema":[{"name":"n","type":"null"},{"name":"i","type":"int"}],"rows":[["anything",null],[null,"+7"]]}`,
	`{"schema":[{"name":"s","type":"string"}],"rows":[["a\"b\\c\/d\b\f\n\r\t"],["é世界"],["😀"],["\ud800"],["\udc00x"],["  "]]}`,
	"{\"schema\":[{\"name\":\"s\",\"type\":\"string\"}],\"rows\":[[\"raw \xff\xfe bytes\"],[\"\xe4\xb8\x96  \"]]}",
	`{"schema":[{"name":"i","type":"int"}],"rows":[["9223372036854775807"],["-9223372036854775808"],["12"],["12"]]}`,
	`{"schema":[{"name":"i","type":"int"}],"rows":[["9223372036854775808"]]}`,
	`{"schema":[{"name":"i","type":"int"}],"rows":[["1.0"]]}`,
	`{"schema":[{"name":"i","type":"int"}],"rows":[["NULL"]]}`,
	`{"schema":[{"name":"i","type":"int"}],"rows":[[""]]}`,
	`{"schema":[{"name":"i","type":"int"}],"rows":[[7]]}`,
	`{"schema":[{"name":"f","type":"float"}],"rows":[["1e400"]]}`,
	`{"schema":[{"name":"f","type":"float"}],"rows":[["1e-400"],["-0"],["+Inf"],["0x1p-2"],["0.000000000000000000000000000000000000000000001234"]]}`,
	`{"schema":[{"name":"f","type":"float"}],"rows":[["1_0"]]}`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1","2"]]}`,
	`{"schema":[{"name":"a","type":"int"},{"name":"b","type":"int"}],"rows":[["1"]]}`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[null]}`,
	`{"rows":[null,[]]}`,
	`{"schema":null,"rows":null,"records":null,"transactions":null,"price":null,"nextPage":null}`,
	`{"schema":[{"name":"a","type":"banana"}],"rows":[]}`,
	`{"schema":[{"name":"a"}],"rows":[]}`,
	`{"schema":[null],"rows":[]}`,
	`{"schema":[{"name":null,"type":"int"}],"rows":[["1"]]}`,
	`{"schema":[{"NAME":"a","Type":"int"}],"ROWS":[["1"]],"NEXTPAGE":3}`,
	"{\"ſchema\":[{\"name\":\"a\",\"type\":\"int\"}],\"rows\":[[\"1\"]],\"nextpaKe\":1}", // U+017F folds to s; U+212A to k, not g
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1"]]}`,
	`{"records":1.0}`, `{"records":1e2}`, `{"records":"1"}`, `{"records":-0}`, `{"records":01}`, `{"records":99999999999999999999}`,
	`{"price":1e400}`, `{"price":1e-400}`, `{"price":-1.5E+3}`, `{"price":.5}`, `{"price":1.}`, `{"price":"1"}`, `{"transactions":true}`,
	`{"extra":{"a":[1,2,{"b":null}],"c":"é","d":-1.5e-3,"e":true,"f":false},"records":3}`,
	`{"extra":{"a":1,}}`, `{"extra":[1,]}`, `{"extra":{"a" 1}}`, `{"extra":"\x"}`, `{"extra":tru}`, `{"extra":nul}`, `{"extra":-}`, `{null:1}`, `{"a":1,,"b":2}`,
	`{"extra":{"\x":1}}`, `{"extra":"\ud800\u"}`, `{"extra":+1}`, `{"extra":1e}`, `{"extra":[1 2]}`,
	`{"records":1,"records":2}`, `{"records":1,"RECORDS":2}`, `{"schema":[{"name":"a","name":"b","type":"int"}]}`, `{"extra":1,"extra":2,"records":1}`,
	`{"schema":[],"schema":[]}`, `{"rows":[],"rows":[]}`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1"]],"records":1} x`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1"]],"records":1}{}`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1"],`, `{"sChemA":[{"tYpe":"int"},{"tYpe":"string"}],"rows":[["-0",`, `{"schema":[{"name":"a","type":"int"}],"rows":[["1`, `{"schema":[{"name":"a","ty`,
	`{"schema":[{"name":"a","type":"int"}],"rows":[["1"]`, `{"schema":[{"name":"a","type":"int"}],"rows":[["1\`,
	"{\"schema\":[{\"name\":\"s\",\"type\":\"string\"}],\"rows\":[[\"line\nbreak\"]]}",
	"{\"schema\":[{\"name\":\"s\",\"type\":\"string\"}],\"rows\":[[\"nul \x00\"]]}",
	`null`, ` null `, `nullx`, `[]`, `"x"`, `5`, `{}`, ``, ` `, `{`, `}`, `{"rows"}`, `{"rows":}`, "\xef\xbb\xbf{}", "{}\x00",
	`{"schema":{"name":"a"}}`, `{"schema":[5]}`, `{"rows":{}}`, `{"rows":["x"]}`, `{"rows":[[{}]]}`,
}

func TestDecodeResultPageAgainstReference(t *testing.T) {
	accepted := 0
	for _, body := range wireCorpus {
		checkAgainstReference(t, []byte(body))
		if _, _, err := DecodeResultPage([]byte(body)); err == nil {
			accepted++
		}
	}
	if accepted < 15 || accepted > len(wireCorpus)-40 {
		t.Fatalf("%d of %d corpus bodies accepted: the corpus no longer covers both verdicts", accepted, len(wireCorpus))
	}
	deep := func(n int) []byte {
		return []byte(`{"extra":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"records":1}`)
	}
	checkAgainstReference(t, deep(9999)) // with the top-level object, encoding/json's limit of 10 000 levels
	checkAgainstReference(t, deep(10000))
}

func FuzzDecodeWireResult(f *testing.F) {
	for _, body := range wireCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstReference(t, body) })
}

// allKinds is a result over the four kinds whose rows put NULL and the
// four-letter string "NULL" where the old wire format confused them.
func allKinds() Result {
	schema := value.Schema{{Name: "I", Type: value.Int}, {Name: "F", Type: value.Float}, {Name: "S", Type: value.String}, {Name: "N", Type: value.Null}}
	rows := []value.Row{
		{value.NewInt(-42), value.NewFloat(2.5), value.NewString("NULL"), value.NewNull()},
		{value.NewNull(), value.NewNull(), value.NewNull(), value.NewNull()},
		{value.NewInt(math.MinInt64), value.NewFloat(math.Inf(-1)), value.NewString("quote\" slash\\ tab\t é 世 \x00 <&>"), value.NewNull()},
		{value.NewInt(0), value.NewFloat(math.Copysign(0, -1)), value.NewString(""), value.NewNull()},
	}
	return Result{Schema: schema, Rows: rows, Records: len(rows), Transactions: 1, Price: 0.25}
}

// TestWireRoundTripKeepsNull: NULL used to travel as the string "NULL", which
// failed to parse back in a numeric column and came back as a four-letter
// string in a string column.
func TestWireRoundTripKeepsNull(t *testing.T) {
	res := allKinds()
	body := AppendResultPage(nil, res, 0, len(res.Rows), 0)
	if !json.Valid(body) {
		t.Fatalf("not JSON: %s", body)
	}
	back, next, err := DecodeResultPage(body)
	if err != nil || next != 0 {
		t.Fatalf("decode: next %d, %v\n%s", next, err, body)
	}
	if err := sameResult(back, res); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	if back.Rows[0][2].K != value.String || back.Rows[1][0].K != value.Null {
		t.Fatalf(`String("NULL") and NULL must stay apart: %v / %v`, back.Rows[0], back.Rows[1])
	}
	checkAgainstReference(t, body)

	// A follow-up page carries rows and the record count but no bill.
	page, next, err := DecodeResultPage(AppendResultPage(nil, res, 1, 3, 2))
	if err != nil || next != 2 || len(page.Rows) != 2 || page.Records != len(res.Rows) || page.Transactions != 0 || page.Price != 0 {
		t.Fatalf("page 1: %+v next %d (%v)", page, next, err)
	}
}

// TestHTTPAgreesWithInProcessOnNulls: the two transports must hand the engine
// the same rows for a table with missing values.
func TestHTTPAgreesWithInProcessOnNulls(t *testing.T) {
	m := New()
	ds, err := m.AddDataset("EHR", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta, rows := testTable(40)
	meta.Schema = append(meta.Schema, value.Column{Name: "Note", Type: value.String})
	meta.Attrs = append(meta.Attrs, catalog.Attribute{Name: "Note", Type: value.String, Binding: catalog.Output})
	for i := range rows {
		note := value.NewString("NULL")
		switch i % 3 {
		case 0:
			note = value.NewNull()
		case 1:
			rows[i][2] = value.NewNull() // Latitude, a float column
		}
		rows[i] = append(rows[i], note)
	}
	if err := ds.AddTable(meta, rows); err != nil {
		t.Fatal(err)
	}
	m.RegisterAccount("key1")
	srv, _ := newTestServerFor(t, m)

	q := catalog.AccessQuery{Dataset: "EHR", Table: "Pollution", Preds: []catalog.Pred{{Attr: "Rank", Lo: catalog.IntPtr(1), Hi: catalog.IntPtr(30)}}}
	local, err := m.Execute("key1", q)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv, "/v1/data/EHR/Pollution?Rank.gte=1&Rank.lte=30", "key1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	remote, _, err := DecodeResultPage(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Rows) != 30 {
		t.Fatalf("in-process call returned %d rows, want 30", len(local.Rows))
	}
	if err := sameResult(remote, local); err != nil {
		t.Fatalf("HTTP vs in-process: %v", err)
	}
}

// TestDecodeResultPageAllocations is the deterministic gate on the per-row
// cost of the wire: a page of 500 rows by 8 columns, 3 of them strings,
// decodes in a constant number of allocations that does not depend on the
// number of rows (schema, slab, row headers) once its texts are interned.
// The race detector adds allocations of its own, so the gate runs only
// without it.
func TestDecodeResultPageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const rows, stringCols, pinned = 500, 3, 24
	res := Result{Records: rows, Transactions: 5, Price: 5}
	for c, k := range []value.Kind{value.Int, value.Int, value.Float, value.Float, value.String, value.String, value.Int, value.String} {
		res.Schema = append(res.Schema, value.Column{Name: fmt.Sprintf("C%d", c), Type: k})
	}
	for r := 0; r < rows; r++ {
		row := make(value.Row, len(res.Schema))
		for c, col := range res.Schema {
			switch col.Type {
			case value.Int:
				row[c] = value.NewInt(int64(r*1000003 + c))
			case value.Float:
				row[c] = value.NewFloat(float64(r) / 7)
			default:
				row[c] = value.NewString(fmt.Sprintf("cell %d of row %d", c, r))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	body := AppendResultPage(nil, res, 0, rows, 0)
	allocs := testing.AllocsPerRun(20, func() {
		if got, _, err := DecodeResultPage(body); err != nil || len(got.Rows) != rows {
			t.Fatalf("%d rows (%v)", len(got.Rows), err)
		}
	})
	// The first decode interned every text, so the measured ones hit the
	// dictionary for every string cell and allocate nothing for it.
	if allocs > pinned {
		t.Errorf("decoding %d rows: %v allocations, pinned at %d (none per string cell)", rows, allocs, pinned)
	}
	t.Logf("%v allocations for %d string cells", allocs, rows*stringCols)
}

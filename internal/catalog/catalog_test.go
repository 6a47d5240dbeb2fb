package catalog

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"payless/internal/region"
	"payless/internal/value"
)

// weatherTable builds the paper's Weather table (Fig. 1a):
// Weather(Country^f, StationID^f, Date^f), Temperature output-only.
func weatherTable() *Table {
	return &Table{
		Dataset: "WHW",
		Name:    "Weather",
		Schema: value.Schema{
			{Name: "Country", Type: value.String},
			{Name: "StationID", Type: value.Int},
			{Name: "Date", Type: value.Int},
			{Name: "Temperature", Type: value.Float},
		},
		Attrs: []Attribute{
			{Name: "Country", Type: value.String, Binding: Free, Class: CategoricalAttr,
				Domain: []value.Value{value.NewString("Canada"), value.NewString("Germany"), value.NewString("United States")}},
			{Name: "StationID", Type: value.Int, Binding: Free, Class: NumericAttr, Min: 1, Max: 4000},
			{Name: "Date", Type: value.Int, Binding: Free, Class: NumericAttr, Min: 20140101, Max: 20141231},
			{Name: "Temperature", Type: value.Float, Binding: Output},
		},
		Cardinality:         19549140,
		PricePerTransaction: 1,
	}
}

func TestBindingClassString(t *testing.T) {
	if Free.String() != "f" || Bound.String() != "b" || Output.String() != "o" || BindingClass(9).String() != "?" {
		t.Error("BindingClass.String")
	}
}

func TestAttributeDomain(t *testing.T) {
	w := weatherTable()
	country, _ := w.Attr("country")
	if country.DomainWidth() != 3 {
		t.Errorf("categorical width: %d", country.DomainWidth())
	}
	if country.FullInterval() != (region.Interval{Lo: 0, Hi: 3}) {
		t.Error("categorical full interval")
	}
	date, _ := w.Attr("Date")
	if date.DomainWidth() != 20141231-20140101+1 {
		t.Error("numeric width")
	}
	c, err := country.Coord(value.NewString("Germany"))
	if err != nil || c != 1 {
		t.Errorf("Coord: %d %v", c, err)
	}
	if _, err := country.Coord(value.NewString("Mars")); err == nil {
		t.Error("Coord outside domain should error")
	}
	if _, err := date.Coord(value.NewString("x")); err == nil {
		t.Error("numeric Coord with string should error")
	}
	v, err := country.ValueAt(2)
	if err != nil || v.Str() != "United States" {
		t.Errorf("ValueAt: %v %v", v, err)
	}
	if _, err := country.ValueAt(5); err == nil {
		t.Error("ValueAt outside domain should error")
	}
	nv, _ := date.ValueAt(20140601)
	if nv.Int64() != 20140601 {
		t.Error("numeric ValueAt")
	}
}

func TestTableAccessors(t *testing.T) {
	w := weatherTable()
	if got := w.NumDims(); got != 3 {
		t.Errorf("NumDims: %d", got)
	}
	if dim, a := w.Dim("date"); dim != 2 || a.Name != "Date" {
		t.Errorf("Dim(date): %d %v", dim, a.Name)
	}
	if _, ok := w.Attr("Temperature"); !ok {
		t.Error("Attr lookup")
	}
	if _, ok := w.Attr("nope"); ok {
		t.Error("Attr missing")
	}
	fb := w.FullBox()
	if fb.D() != 3 || fb.Dims[0] != (region.Interval{Lo: 0, Hi: 3}) {
		t.Errorf("FullBox: %v", fb)
	}
	bp := w.BindingPattern()
	if !strings.Contains(bp, "Country^f") || strings.Contains(bp, "Temperature") {
		t.Errorf("BindingPattern: %s", bp)
	}
}

func TestCatalogRegisterLookup(t *testing.T) {
	c := New()
	if err := c.Register(weatherTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(weatherTable()); err == nil {
		t.Error("duplicate register should error")
	}
	if _, ok := c.Lookup("WEATHER"); !ok {
		t.Error("case-insensitive lookup")
	}
	if got := c.Tables(); len(got) != 1 || got[0].Name != "Weather" {
		t.Errorf("Tables: %v", got)
	}
}

func TestCatalogRegisterValidation(t *testing.T) {
	c := New()
	bad := weatherTable()
	bad.Name = "BadAttrs"
	bad.Attrs = bad.Attrs[:2]
	if err := c.Register(bad); err == nil {
		t.Error("attr/schema length mismatch should error")
	}
	bad2 := weatherTable()
	bad2.Name = "BadName"
	bad2.Attrs[0].Name = "Wrong"
	if err := c.Register(bad2); err == nil {
		t.Error("attr name mismatch should error")
	}
	bad3 := weatherTable()
	bad3.Name = "EmptyDom"
	bad3.Attrs[0].Domain = nil
	if err := c.Register(bad3); err == nil {
		t.Error("empty categorical domain should error")
	}
	bad4 := weatherTable()
	bad4.Name = "InvDom"
	bad4.Attrs[1].Min, bad4.Attrs[1].Max = 10, 5
	if err := c.Register(bad4); err == nil {
		t.Error("inverted numeric domain should error")
	}
	wide := &Table{Name: "Wide"}
	for i := 0; i <= MaxDims; i++ {
		name := fmt.Sprintf("a%d", i)
		wide.Schema = append(wide.Schema, value.Column{Name: name, Type: value.Int})
		wide.Attrs = append(wide.Attrs, Attribute{Name: name, Type: value.Int, Binding: Free, Class: NumericAttr, Max: 9})
	}
	if err := c.Register(wide); err == nil {
		t.Errorf("%d queryable attributes should error", MaxDims+1)
	}
	wide.Attrs[0].Binding = Output
	if err := c.Register(wide); err != nil {
		t.Errorf("%d queryable attributes: %v", MaxDims, err)
	}
}

func TestValidateBinding(t *testing.T) {
	w := weatherTable()
	us := value.NewString("United States")
	ok := AccessQuery{Table: "Weather", Preds: []Pred{
		{Attr: "Country", Eq: &us},
		{Attr: "Date", Lo: IntPtr(20140601), Hi: IntPtr(20140630)},
	}}
	if err := ValidateBinding(w, ok); err != nil {
		t.Errorf("valid call rejected: %v", err)
	}
	// Whole-table download: no predicates on all-free pattern.
	if err := ValidateBinding(w, AccessQuery{Table: "Weather"}); err != nil {
		t.Errorf("whole-table call rejected: %v", err)
	}
	cases := []AccessQuery{
		{Table: "Weather", Preds: []Pred{{Attr: "Nope", Eq: &us}}},
		{Table: "Weather", Preds: []Pred{{Attr: "Temperature", Lo: IntPtr(0)}}},
		{Table: "Weather", Preds: []Pred{{Attr: "Country"}}},
		{Table: "Weather", Preds: []Pred{{Attr: "Country", Lo: IntPtr(1)}}},
		{Table: "Weather", Preds: []Pred{{Attr: "Date", Eq: ValPtr(value.NewInt(20140601)), Lo: IntPtr(1)}}},
	}
	for i, q := range cases {
		if err := ValidateBinding(w, q); err == nil {
			t.Errorf("case %d: invalid call accepted: %v", i, q)
		}
	}
	// A Bound attribute must be specified.
	b := weatherTable()
	b.Name = "BoundW"
	b.Attrs[1].Binding = Bound
	if err := ValidateBinding(b, AccessQuery{Table: "BoundW"}); err == nil {
		t.Error("missing bound attribute should be rejected")
	}
	sid := value.NewInt(3817)
	if err := ValidateBinding(b, AccessQuery{Table: "BoundW", Preds: []Pred{{Attr: "StationID", Eq: &sid}}}); err != nil {
		t.Errorf("bound attribute given should pass: %v", err)
	}
}

func TestQueryForBox(t *testing.T) {
	w := weatherTable()
	b := region.NewBox(
		region.Point(2),                             // United States
		region.Interval{Lo: 1, Hi: 4001},            // StationID full
		region.Interval{Lo: 20140601, Hi: 20140631}, // Date half-open -> inclusive
	)
	back, err := QueryForBox(w, b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dataset != "WHW" || back.Table != "Weather" || len(back.Preds) != 2 {
		t.Fatalf("QueryForBox: %+v", back)
	}
	cp, _ := back.Pred("Country")
	if cp.Eq == nil || cp.Eq.Str() != "United States" {
		t.Errorf("country pred: %v", cp)
	}
	dp, _ := back.Pred("Date")
	if dp.Lo == nil || *dp.Lo != 20140601 || dp.Hi == nil || *dp.Hi != 20140630 {
		t.Errorf("date pred: %v", dp)
	}
	if !boxOf(t, w, back).Equal(b) {
		t.Errorf("box of %v = %v, want %v", back, boxOf(t, w, back), b)
	}
}

// boxOf maps a query QueryForBox wrote back onto t's queryable space: an
// equality is its value's coordinate, a range its inclusive bounds and an
// attribute without a predicate its domain.
func boxOf(t *testing.T, tb *Table, q AccessQuery) region.Box {
	t.Helper()
	b := tb.FullBox()
	for _, p := range q.Preds {
		d, a := tb.Dim(p.Attr)
		switch {
		case d < 0:
			t.Fatalf("%v: %s is not queryable", q, p.Attr)
		case p.Eq != nil:
			c, err := a.Coord(*p.Eq)
			if err != nil {
				t.Fatal(err)
			}
			b.Dims[d] = region.Point(c)
		default:
			if p.Lo != nil {
				b.Dims[d].Lo = *p.Lo
			}
			if p.Hi != nil {
				b.Dims[d].Hi = *p.Hi + 1
			}
		}
	}
	return b
}

// randomBox returns a box over the weather table's queryable space that a
// call can express: a country or all, a station span or all, a date, a date
// span or all.
func randomBox(rng *rand.Rand, w *Table) region.Box {
	b := w.FullBox()
	if rng.Intn(2) == 0 {
		b.Dims[0] = region.Point(int64(rng.Intn(len(w.Attrs[0].Domain))))
	}
	if rng.Intn(2) == 0 {
		lo := int64(1 + rng.Intn(3000))
		b.Dims[1] = region.Interval{Lo: lo, Hi: lo + 1 + int64(rng.Intn(int(4000-lo)))}
	}
	switch rng.Intn(3) {
	case 0:
		b.Dims[2] = region.Point(int64(20140101 + rng.Intn(300)))
	case 1:
		lo := int64(20140101 + rng.Intn(300))
		b.Dims[2] = region.Interval{Lo: lo, Hi: lo + 1 + int64(rng.Intn(60))}
	}
	return b
}

func TestQueryForBoxErrors(t *testing.T) {
	w := weatherTable()
	if _, err := QueryForBox(w, region.NewBox(region.Point(0))); err == nil {
		t.Error("dimension mismatch should error")
	}
	// Categorical span of 2 of 3 values is inexpressible.
	bad := w.FullBox()
	bad.Dims[0] = region.Interval{Lo: 0, Hi: 2}
	if _, err := QueryForBox(w, bad); err == nil {
		t.Error("partial categorical span should error")
	}
	// Extent outside the domain.
	out := w.FullBox()
	out.Dims[1] = region.Interval{Lo: 0, Hi: 9999}
	if _, err := QueryForBox(w, out); err == nil {
		t.Error("out-of-domain extent should error")
	}
	// Full box has no predicates at all.
	q, err := QueryForBox(w, w.FullBox())
	if err != nil || len(q.Preds) != 0 {
		t.Errorf("full box should be predicate-free: %v %v", q, err)
	}
}

// matchesRowNaive is the filter as it was before it was compiled: every
// predicate's column found again, by a case-insensitive name scan, for every
// row. The tests keep it as CompileFilter's reference.
func matchesRowNaive(t *Table, q AccessQuery, row value.Row) bool {
	for _, p := range q.Preds {
		i := t.Schema.IndexOf(p.Attr)
		if i < 0 {
			return false
		}
		v := row[i]
		if p.Eq != nil {
			if !v.Equal(*p.Eq) {
				return false
			}
			continue
		}
		if p.Lo != nil && v.AsInt() < *p.Lo {
			return false
		}
		if p.Hi != nil && v.AsInt() > *p.Hi {
			return false
		}
	}
	return true
}

// MatchesRow is what the callers do: compile once, match.
func MatchesRow(t *Table, q AccessQuery, row value.Row) bool {
	return CompileFilter(t, q).Matches(row)
}

// TestCompileFilterAgreesWithNaive: over random tables, rows and access
// queries — equality, ranges open at either end, NULL cells, attribute names
// in the wrong case and names the table does not have — the compiled filter
// and the per-row reference give the same verdict.
func TestCompileFilterAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	names := []string{"Alpha", "beta", "GAMMA", "Delta", "epsilon"}
	recase := func(s string) string {
		switch rng.Intn(4) {
		case 0:
			return strings.ToUpper(s)
		case 1:
			return strings.ToLower(s)
		}
		return s
	}
	randVal := func(k value.Kind) value.Value {
		switch {
		case rng.Intn(10) == 0:
			return value.NewNull()
		case k == value.Int:
			return value.NewInt(int64(rng.Intn(20)))
		case k == value.Float:
			return value.NewFloat(float64(rng.Intn(40)) / 2)
		}
		return value.NewString(string(rune('a' + rng.Intn(5))))
	}
	verdicts := map[bool]int{}
	for trial := 0; trial < 400; trial++ {
		tbl := &Table{Name: "T"}
		for _, n := range names[:1+rng.Intn(len(names))] {
			tbl.Schema = append(tbl.Schema, value.Column{Name: n, Type: value.Kind(1 + rng.Intn(3))})
		}
		var q AccessQuery
		for i := 0; i < rng.Intn(4); i++ {
			attr := "Ghost"
			kind := value.Int
			if rng.Intn(8) != 0 {
				c := tbl.Schema[rng.Intn(len(tbl.Schema))]
				attr, kind = recase(c.Name), c.Type
			}
			p := Pred{Attr: attr}
			switch rng.Intn(4) {
			case 0:
				p.Eq = ValPtr(randVal(kind))
			case 1:
				p.Lo = IntPtr(int64(rng.Intn(20)))
			case 2:
				p.Hi = IntPtr(int64(rng.Intn(20)))
			default:
				p.Lo, p.Hi = IntPtr(int64(rng.Intn(10))), IntPtr(int64(10+rng.Intn(10)))
			}
			q.Preds = append(q.Preds, p)
		}
		f := CompileFilter(tbl, q)
		for r := 0; r < 20; r++ {
			row := make(value.Row, len(tbl.Schema))
			for i, c := range tbl.Schema {
				row[i] = randVal(c.Type)
			}
			got, want := f.Matches(row), matchesRowNaive(tbl, q, row)
			if got != want {
				t.Fatalf("trial %d: compiled %v, naive %v (schema %v, q %v, row %v)", trial, got, want, tbl.Schema, q, row)
			}
			verdicts[got]++
		}
	}
	if verdicts[true] < 500 || verdicts[false] < 500 {
		t.Fatalf("lopsided sample: %v", verdicts)
	}
	if !Filter(nil).Matches(nil) {
		t.Error("the zero filter must match every row")
	}
}

func TestMatchesRow(t *testing.T) {
	w := weatherTable()
	row := value.Row{value.NewString("United States"), value.NewInt(3817), value.NewInt(20140615), value.NewFloat(21.5)}
	us := value.NewString("United States")
	q := AccessQuery{Table: "Weather", Preds: []Pred{
		{Attr: "Country", Eq: &us},
		{Attr: "Date", Lo: IntPtr(20140601), Hi: IntPtr(20140630)},
	}}
	if !MatchesRow(w, q, row) {
		t.Error("matching row rejected")
	}
	q2 := AccessQuery{Table: "Weather", Preds: []Pred{{Attr: "Date", Hi: IntPtr(20140610)}}}
	if MatchesRow(w, q2, row) {
		t.Error("row above Hi matched")
	}
	q3 := AccessQuery{Table: "Weather", Preds: []Pred{{Attr: "Date", Lo: IntPtr(20140620)}}}
	if MatchesRow(w, q3, row) {
		t.Error("row below Lo matched")
	}
	q4 := AccessQuery{Table: "Weather", Preds: []Pred{{Attr: "Ghost", Eq: &us}}}
	if MatchesRow(w, q4, row) {
		t.Error("unknown attribute matched")
	}
}

func TestPredAndQueryString(t *testing.T) {
	us := value.NewString("US")
	p := Pred{Attr: "Country", Eq: &us}
	if p.String() != "Country=US" || !p.IsPoint() {
		t.Errorf("pred string: %s", p.String())
	}
	r := Pred{Attr: "Date", Lo: IntPtr(1), Hi: IntPtr(2)}
	if r.String() != "Date in [1,2]" || r.IsPoint() {
		t.Errorf("range pred string: %s", r.String())
	}
	h := Pred{Attr: "Date", Lo: IntPtr(1)}
	if h.String() != "Date in [1,+inf]" {
		t.Errorf("half range pred string: %s", h.String())
	}
	q := AccessQuery{Table: "Weather", Preds: []Pred{r, p}}
	if got := q.String(); got != "Weather(Country=US, Date in [1,2])" {
		t.Errorf("query string: %s", got)
	}
}

// TestBoxQueryRoundTripProperty: QueryForBox of a random expressible box
// passes the binding check and maps back onto the same box.
func TestBoxQueryRoundTripProperty(t *testing.T) {
	w := weatherTable()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		box := randomBox(rng, w)
		q, err := QueryForBox(w, box)
		if err != nil {
			t.Fatalf("trial %d: QueryForBox(%v): %v", trial, box, err)
		}
		if err := ValidateBinding(w, q); err != nil {
			t.Fatalf("trial %d: %v: %v", trial, q, err)
		}
		if back := boxOf(t, w, q); !back.Equal(box) {
			t.Fatalf("trial %d: round trip %v -> %v -> %v", trial, box, q, back)
		}
	}
}

// TestMatchesRowAgreesWithBox: a row matches the call QueryForBox writes
// for a box iff its coordinate point lies inside the box — a local scan of
// a box and a market call for it keep the same rows.
func TestMatchesRowAgreesWithBox(t *testing.T) {
	w := weatherTable()
	rng := rand.New(rand.NewSource(31))
	var verdicts [2]int
	for trial := 0; trial < 200; trial++ {
		country := w.Attrs[0].Domain[rng.Intn(3)]
		sid := int64(1 + rng.Intn(4000))
		date := int64(20140101 + rng.Intn(365))
		row := value.Row{country, value.NewInt(sid), value.NewInt(date), value.NewFloat(1)}

		box := randomBox(rng, w)
		q, err := QueryForBox(w, box)
		if err != nil {
			t.Fatal(err)
		}
		cCoord, _ := w.Attrs[0].Coord(country)
		pt := region.NewBox(region.Point(cCoord), region.Point(sid), region.Point(date))
		inBox := box.Contains(pt)
		matches := MatchesRow(w, q, row)
		if inBox != matches {
			t.Fatalf("trial %d: box says %v, MatchesRow says %v (q=%v row=%v)", trial, inBox, matches, q, row)
		}
		if inBox {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Errorf("rows outside and inside their box: %v, want both", verdicts)
	}
}

// fmtQueryString is how AccessQuery.String rendered a call through fmt: each
// predicate Sprintf'd on its own, the parts sorted and joined.
func fmtQueryString(q AccessQuery) string {
	var parts []string
	for _, p := range q.Preds {
		if p.Eq != nil {
			parts = append(parts, fmt.Sprintf("%s=%s", p.Attr, p.Eq.String()))
			continue
		}
		lo, hi := "-inf", "+inf"
		if p.Lo != nil {
			lo = fmt.Sprintf("%d", *p.Lo)
		}
		if p.Hi != nil {
			hi = fmt.Sprintf("%d", *p.Hi)
		}
		parts = append(parts, fmt.Sprintf("%s in [%s,%s]", p.Attr, lo, hi))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s(%s)", q.Table, strings.Join(parts, ", "))
}

// TestQueryStringIsFmtRendering: the scheduler keys calls by
// AccessQuery.String, so it must render exactly what the fmt version did, on
// random calls: equalities of every kind, ranges with open ends and negative
// bounds, repeated attributes, and more predicates or text than its stack
// buffers hold.
func TestQueryStringIsFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	attrs := []string{"Country", "Date", "StationID", "D", "date", "Date ", "", strings.Repeat("Wide", 40)}
	bound := func() *int64 {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return IntPtr(-rng.Int63n(1 << 40))
		case 2:
			return IntPtr([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)])
		}
		return IntPtr(rng.Int63n(30000000))
	}
	eq := func() *value.Value {
		switch rng.Intn(5) {
		case 0:
			return ValPtr(value.NewInt(rng.Int63n(2000) - 1000))
		case 1:
			return ValPtr(value.NewFloat(rng.NormFloat64() * 1e3))
		case 2:
			return ValPtr(value.NewNull())
		}
		return ValPtr(value.NewString([]string{"United States", "Canada", "", "a, b", "Z"}[rng.Intn(5)]))
	}
	for i := 0; i < 2000; i++ {
		q := AccessQuery{Table: []string{"Weather", "Station", ""}[rng.Intn(3)]}
		for n := rng.Intn(12); n > 0; n-- {
			p := Pred{Attr: attrs[rng.Intn(len(attrs))]}
			if rng.Intn(2) == 0 {
				p.Eq = eq()
			} else {
				p.Lo, p.Hi = bound(), bound()
			}
			q.Preds = append(q.Preds, p)
		}
		if got, want := q.String(), fmtQueryString(q); got != want {
			t.Fatalf("String() = %q, fmt rendered %q", got, want)
		}
		for _, p := range q.Preds {
			if got, want := p.String(), fmtQueryString(AccessQuery{Preds: []Pred{p}}); "("+got+")" != want {
				t.Fatalf("Pred.String() = %q, fmt rendered %q", got, want)
			}
		}
	}
}

// TestRegisterRefusesInvalidUTF8Domain: every codec writes invalid UTF-8 as
// U+FFFD, so a categorical domain value holding it could never be read back
// from a snapshot or the wire as itself; Register refuses it.
func TestRegisterRefusesInvalidUTF8Domain(t *testing.T) {
	tbl := &Table{
		Name:   "T",
		Schema: value.Schema{{Name: "C", Type: value.String}},
		Attrs: []Attribute{{Name: "C", Type: value.String, Binding: Free, Class: CategoricalAttr,
			Domain: []value.Value{value.NewString("ok"), value.NewString("\xff")}}},
	}
	if err := New().Register(tbl); err == nil || !strings.Contains(err.Error(), "not valid UTF-8") {
		t.Fatalf("Register: %v, want the invalid domain value refused", err)
	}
	tbl.Attrs[0].Domain[1] = value.NewString("�")
	if err := New().Register(tbl); err != nil {
		t.Fatalf("Register of a valid domain: %v", err)
	}
}

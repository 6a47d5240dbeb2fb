package sqlparse

import (
	"strings"
	"testing"

	"payless/internal/value"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParsePaperQ1(t *testing.T) {
	// The paper's running example (page 1).
	q := mustParse(t, `SELECT Temperature
		FROM Station, Weather
		WHERE City = 'Seattle' AND
			Country = 'United States' AND
			Date >= 20140601 AND Date <= 20140630 AND
			Station.StationID = Weather.StationID`)
	if len(q.Select) != 1 || q.Select[0].Col.Column != "Temperature" {
		t.Errorf("select: %v", q.Select)
	}
	if len(q.From) != 2 || q.From[0].Name != "Station" || q.From[1].Name != "Weather" {
		t.Errorf("from: %v", q.From)
	}
	if len(q.Where) != 5 {
		t.Fatalf("where count: %d", len(q.Where))
	}
	join := q.Where[4]
	if !join.IsJoin() || join.Left.Table != "Station" || join.RightCol.Table != "Weather" {
		t.Errorf("join condition: %v", join)
	}
	lo := q.Where[2]
	if lo.Op != OpGe || lo.RightVal.Int64() != 20140601 {
		t.Errorf("range condition: %v", lo)
	}
	if q.HasAggregates() {
		t.Error("no aggregates expected")
	}
}

func TestParseChainedEquality(t *testing.T) {
	// The paper's templates use "Station.Country = Weather.Country = ?".
	q := mustParse(t, `SELECT * FROM Station, Weather
		WHERE Station.Country = Weather.Country = 'United States'`)
	if len(q.Where) != 2 {
		t.Fatalf("chained equality should expand to 2 conjuncts: %v", q.Where)
	}
	if !q.Where[0].IsJoin() {
		t.Errorf("first conjunct should be a join: %v", q.Where[0])
	}
	if q.Where[1].IsJoin() || q.Where[1].RightVal.Str() != "United States" {
		t.Errorf("second conjunct should bind the constant: %v", q.Where[1])
	}
}

func TestParseAggregatesGroupBy(t *testing.T) {
	q := mustParse(t, `SELECT City, AVG(Temperature) AS avg_temp, COUNT(*)
		FROM Weather GROUP BY City ORDER BY City DESC LIMIT 10`)
	if q.Select[1].Agg != AggAvg || q.Select[1].Alias != "avg_temp" {
		t.Errorf("avg item: %+v", q.Select[1])
	}
	if q.Select[2].Agg != AggCount || !q.Select[2].AggStar {
		t.Errorf("count item: %+v", q.Select[2])
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "City" {
		t.Errorf("group by: %v", q.GroupBy)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Errorf("order by: %v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("limit: %d", q.Limit)
	}
	if !q.HasAggregates() {
		t.Error("HasAggregates")
	}
}

func TestParseTableAlias(t *testing.T) {
	q := mustParse(t, `SELECT s.City FROM Station AS s, Weather w WHERE s.StationID = w.StationID`)
	if q.From[0].Alias != "s" || q.From[1].Alias != "w" {
		t.Errorf("aliases: %v", q.From)
	}
	if q.Select[0].Col.Table != "s" {
		t.Errorf("qualified select: %v", q.Select[0])
	}
}

func TestParseLiteralKinds(t *testing.T) {
	q := mustParse(t, `SELECT * FROM T WHERE a = -5 AND b = 2.75 AND c = 'it''s'`)
	if q.Where[0].RightVal.Int64() != -5 {
		t.Errorf("negative int: %v", q.Where[0])
	}
	if q.Where[1].RightVal.K != value.Float || q.Where[1].RightVal.Float64() != 2.75 {
		t.Errorf("float: %v", q.Where[1])
	}
	if q.Where[2].RightVal.Str() != "it's" {
		t.Errorf("escaped string: %v", q.Where[2])
	}
}

func TestParseFlippedComparison(t *testing.T) {
	q := mustParse(t, `SELECT * FROM T WHERE 5 < a`)
	c := q.Where[0]
	if c.Left.Column != "a" || c.Op != OpGt || c.RightVal.Int64() != 5 {
		t.Errorf("flip: %v", c)
	}
}

func TestParseOperators(t *testing.T) {
	q := mustParse(t, `SELECT * FROM T WHERE a <> 1 AND b != 2 AND c < 3 AND d <= 4 AND e > 5 AND f >= 6`)
	want := []CompareOp{OpNe, OpNe, OpLt, OpLe, OpGt, OpGe}
	for i, c := range q.Where {
		if c.Op != want[i] {
			t.Errorf("cond %d: op %v, want %v", i, c.Op, want[i])
		}
	}
}

func TestParseStarSelect(t *testing.T) {
	q := mustParse(t, `SELECT * FROM Pollution WHERE Rank >= 1 AND Rank <= 10`)
	if !q.Select[0].Star {
		t.Error("star select")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT City, AVG(Temperature) FROM Station, Weather WHERE Station.StationID = Weather.StationID AND Country = 'United States' GROUP BY City ORDER BY City LIMIT 5`
	q := mustParse(t, src)
	q2 := mustParse(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("String round trip:\n%s\n%s", q.String(), q2.String())
	}
	if !strings.Contains(q.String(), "'United States'") {
		t.Errorf("string literal quoting: %s", q.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T WHERE a",
		"SELECT * FROM T WHERE a = ",
		"SELECT * FROM T WHERE 1 = 2",
		"SELECT * FROM T WHERE a = 'unterminated",
		"SELECT * FROM T GROUP City",
		"SELECT * FROM T ORDER City",
		"SELECT * FROM T LIMIT x",
		"SELECT * FROM T LIMIT -1",
		"SELECT * FROM T extra garbage !",
		"SELECT AVG(*) FROM T",
		"SELECT a FROM WHERE",
		"SELECT * FROM T WHERE a ~ 1",
		"SELECT * FROM T WHERE a = 1 OR b = 2", // disjunction unsupported
		"SELECT t. FROM T",
		"SELECT * FROM T WHERE a = - ",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseChainStopsAfterInequality(t *testing.T) {
	// a < b < c is not a valid chain; the parser accepts `a < b` and must
	// then reject the dangling `< c`.
	if _, err := Parse("SELECT * FROM T WHERE a < b < c"); err == nil {
		t.Error("inequality chain should fail")
	}
}

func TestCompareOpString(t *testing.T) {
	if OpEq.String() != "=" || OpNe.String() != "<>" || CompareOp(99).String() != "?" {
		t.Error("CompareOp.String")
	}
}

func TestSelectItemString(t *testing.T) {
	cases := []struct {
		item SelectItem
		want string
	}{
		{SelectItem{Star: true}, "*"},
		{SelectItem{Agg: AggCount, AggStar: true}, "COUNT(*)"},
		{SelectItem{Agg: AggAvg, Col: ColRef{Column: "t"}}, "AVG(t)"},
		{SelectItem{Col: ColRef{Table: "w", Column: "t"}, Alias: "x"}, "w.t AS x"},
	}
	for _, c := range cases {
		if got := c.item.String(); got != c.want {
			t.Errorf("SelectItem.String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseIn(t *testing.T) {
	q := mustParse(t, "SELECT * FROM T WHERE Country IN ('Canada', 'Germany') AND a = 1")
	if len(q.Where) != 2 || !q.Where[0].IsIn() {
		t.Fatalf("where: %v", q.Where)
	}
	c := q.Where[0]
	if len(c.InVals) != 2 || c.InVals[0].Str() != "Canada" || c.InVals[1].Str() != "Germany" {
		t.Errorf("in values: %v", c.InVals)
	}
	if got := c.String(); got != "Country IN ('Canada', 'Germany')" {
		t.Errorf("render: %s", got)
	}
	// Numeric IN.
	q2 := mustParse(t, "SELECT * FROM T WHERE Rank IN (1, 2, 3)")
	if len(q2.Where[0].InVals) != 3 || q2.Where[0].InVals[2].Int64() != 3 {
		t.Errorf("numeric in: %v", q2.Where[0].InVals)
	}
}

func TestParseOrGroup(t *testing.T) {
	q := mustParse(t, "SELECT * FROM T WHERE (Country = 'Canada' OR Country = 'Germany')")
	if len(q.Where) != 1 || !q.Where[0].IsIn() || len(q.Where[0].InVals) != 2 {
		t.Fatalf("or group: %v", q.Where)
	}
	// Mixing IN inside an OR group merges values.
	q2 := mustParse(t, "SELECT * FROM T WHERE (a IN (1,2) OR a = 3)")
	if len(q2.Where[0].InVals) != 3 {
		t.Errorf("merged or/in: %v", q2.Where[0].InVals)
	}
	// A parenthesised plain condition passes through.
	q3 := mustParse(t, "SELECT * FROM T WHERE (a >= 5)")
	if q3.Where[0].IsIn() || q3.Where[0].Op != OpGe {
		t.Errorf("paren passthrough: %v", q3.Where[0])
	}
	// Chained equality inside parens still expands.
	q4 := mustParse(t, "SELECT * FROM T, U WHERE (T.a = U.a = 5)")
	if len(q4.Where) != 2 {
		t.Errorf("paren chain: %v", q4.Where)
	}
}

func TestParseInAndOrErrors(t *testing.T) {
	bad := []string{
		"SELECT * FROM T WHERE 1 IN (1)",
		"SELECT * FROM T WHERE a IN ()",
		"SELECT * FROM T WHERE a IN (b)",
		"SELECT * FROM T WHERE a IN (1",
		"SELECT * FROM T WHERE a IN 1",
		"SELECT * FROM T WHERE (a = 1 OR b = 2)", // different columns
		"SELECT * FROM T WHERE (a = 1 OR a > 2)", // non-equality branch
		"SELECT * FROM T WHERE (a = b OR a = 1)", // join branch
		"SELECT * FROM T WHERE (a = 1 OR a = 2",  // unclosed
		"SELECT * FROM T WHERE IN (1)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseInRoundTrip(t *testing.T) {
	src := "SELECT * FROM T WHERE Country IN ('Canada', 'Germany')"
	q := mustParse(t, src)
	q2 := mustParse(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip: %s vs %s", q.String(), q2.String())
	}
}

func TestParseDistinctAndHaving(t *testing.T) {
	q := mustParse(t, "SELECT DISTINCT City FROM Station")
	if !q.Distinct {
		t.Error("DISTINCT flag")
	}
	q2 := mustParse(t, "SELECT b, COUNT(*) AS n FROM R GROUP BY b HAVING n >= 10 AND b <= 2 ORDER BY b")
	if len(q2.Having) != 2 {
		t.Fatalf("having conds: %v", q2.Having)
	}
	if q2.Having[0].Item.Col.Column != "n" || q2.Having[0].Op != OpGe || q2.Having[0].Val.Int64() != 10 {
		t.Errorf("having[0]: %+v", q2.Having[0])
	}
	q3 := mustParse(t, "SELECT b, AVG(v) FROM R GROUP BY b HAVING AVG(v) > 1.5")
	if q3.Having[0].Item.Agg != AggAvg || q3.Having[0].Val.Float64() != 1.5 {
		t.Errorf("aggregate having: %+v", q3.Having[0])
	}
	// Round trip.
	q4 := mustParse(t, q2.String())
	if q4.String() != q2.String() {
		t.Errorf("round trip: %s vs %s", q4.String(), q2.String())
	}
	bad := []string{
		"SELECT b FROM R HAVING * >= 1",
		"SELECT b FROM R HAVING b >= c",
		"SELECT b FROM R HAVING b ~ 1",
		"SELECT b FROM R HAVING b",
		"SELECT b FROM R HAVING b AS x >= 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, `SELECT * -- the whole row
		FROM Pollution -- market table
		WHERE Rank >= 1 -- lower bound
		AND Rank <= 10`)
	if len(q.Where) != 2 {
		t.Errorf("where: %v", q.Where)
	}
	// A comment at the very end and a lone comment line.
	q2 := mustParse(t, "SELECT * FROM T --done")
	if q2.From[0].Name != "T" {
		t.Error("trailing comment")
	}
	// "a - -5" is still subtraction-free arithmetic we reject, but "a >= -5"
	// with a space keeps working.
	q3 := mustParse(t, "SELECT * FROM T WHERE a >= -5")
	if q3.Where[0].RightVal.Int64() != -5 {
		t.Error("negative literal after comment support")
	}
}

// TestParseAllocations pins what parsing the WHW Q4 text allocates: tokens,
// the AST and its slices, nothing per identifier or per unescaped string
// literal. A reserved-word check that lowercased through the heap cost one
// allocation per mixed-case identifier (72 in all), and a string literal
// built through a strings.Builder one per literal (58). The race detector
// adds allocations of its own, so the gate runs only without it.
func TestParseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const q4 = "SELECT Temperature FROM Station, Weather, ZipMap " +
		"WHERE Station.Country = Weather.Country = 'United States' AND ZipMap.ZipCode = '98101' " +
		"AND Weather.Date >= 20140601 AND Weather.Date <= 20140614 " +
		"AND Station.StationID = Weather.StationID AND Station.City = ZipMap.City"
	const pinned = 55
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Parse(q4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pinned {
		t.Errorf("parsing WHW Q4: %v allocations, pinned at %d", allocs, pinned)
	}
}

package sqlparse

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// skeletonCorpus covers every place a literal can stand: comparisons both
// ways round, chained equalities, IN lists and OR chains of each arity,
// HAVING, LIMIT, negative numbers, floats, escaped quotes, comments, and
// aliases and case variants of identifiers.
var skeletonCorpus = []string{
	"SELECT * FROM T",
	"SELECT * FROM Weather WHERE Weather.Country = 'United States' AND Weather.Date >= 20140401 AND Weather.Date <= 20140414",
	"SELECT Temperature FROM Station, Weather WHERE Station.Country = Weather.Country = 'US' AND Station.StationID = Weather.StationID",
	"SELECT * FROM Station, Weather WHERE Station.Country = 'US' = Weather.Country",
	"SELECT * FROM T WHERE a = 1 = a",
	"SELECT * FROM T WHERE (a = 1 = a OR a = 2)",
	"SELECT * FROM T WHERE 5 < a AND -3 >= b",
	"SELECT * FROM T WHERE a IN (1)",
	"SELECT * FROM T WHERE a IN (1, 2, 3) AND b IN ('x', 'y')",
	"SELECT * FROM T WHERE (a = 'x' OR a = 'y' OR a IN ('z', 'w'))",
	"SELECT * FROM T WHERE (a = 1)",
	"SELECT * FROM T WHERE a = -7 AND b = 2.5 AND c = -0.25",
	"SELECT * FROM T WHERE a = 'it''s' -- comment",
	"SELECT * FROM T WHERE a = '' AND b = ''''",
	"SELECT * FROM T WHERE a <> 1 AND b != 2.5",
	"SELECT DISTINCT a FROM T WHERE a >= 1 ORDER BY a DESC LIMIT 5",
	"SELECT a, COUNT(*) FROM T WHERE a >= 1 AND b = 'x' GROUP BY a HAVING COUNT(*) > 2 AND a < 'm' ORDER BY a DESC LIMIT 0",
	"SELECT City, AVG(Temperature) AS t FROM Station S, Weather AS W WHERE S.StationID = W.StationID AND W.Date >= 20140402 GROUP BY City HAVING t > 1.5 ORDER BY City",
	"select s.city from station s where S.Country = 'CA' limit 3",
	"SELECT AVG(x) AS m FROM T",
}

// literalEnd returns the offset just past the literal that starts at pos.
func literalEnd(src string, lit Literal) int {
	if src[lit.Pos] != '\'' {
		return lit.Pos + len(lit.Text)
	}
	for i := lit.Pos + 1; ; i++ {
		if src[i] == '\'' {
			if i+1 < len(src) && src[i+1] == '\'' {
				i++
				continue
			}
			return i + 1
		}
	}
}

// resubstitute replaces every literal of src, which Scan accepts, by a
// random one of the same kind: ints (negative, zero, beyond int64 now and
// then), floats, and strings with and without quotes.
func resubstitute(src string, rng *rand.Rand) string {
	_, lits, err := Scan(src, nil, nil)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	at := 0
	for _, lit := range lits {
		b.WriteString(src[at:lit.Pos])
		if src[lit.Pos] == '-' && lit.Pos > 0 {
			// "WHERE-1" must not become the identifier "WHERE1".
			b.WriteByte(' ')
		}
		at = literalEnd(src, lit)
		switch {
		case src[lit.Pos] == '\'':
			s := []string{"", "x", "United States", "it's", "''", "Country07", "ÿ"}[rng.Intn(7)]
			b.WriteString("'" + strings.ReplaceAll(s, "'", "''") + "'")
		case strings.Contains(lit.Text, "."):
			fmt.Fprintf(&b, "%d.%d", rng.Intn(2001)-1000, rng.Intn(100))
		default:
			switch rng.Intn(20) {
			case 0:
				b.WriteString("99999999999999999999")
			case 1, 2:
				fmt.Fprintf(&b, "%d", -rng.Intn(1000))
			default:
				fmt.Fprintf(&b, "%d", rng.Int63n(40000000))
			}
		}
	}
	b.WriteString(src[at:])
	return b.String()
}

// checkTemplate checks that every resubstitution of src, which Parse
// accepts, has src's skeleton, and that its Instance is what Parse returns
// for it, or fails as Parse fails. A statement Scan rejects, Parse rejects.
func checkTemplate(t *testing.T, src string, rng *rand.Rand, n int) {
	t.Helper()
	skel, _, err := Scan(src, nil, nil)
	if err != nil {
		t.Fatalf("Scan(%q) refuses what Parse accepts: %v", src, err)
	}
	tmpl, err := NewTemplate(src)
	if err != nil {
		t.Fatalf("NewTemplate(%q): %v", src, err)
	}
	for i := 0; i < n; i++ {
		src2 := resubstitute(src, rng)
		want, wantErr := Parse(src2)
		skel2, lits, err := Scan(src2, nil, nil)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("Scan(%q) refuses what Parse accepts: %v", src2, err)
			}
			continue
		}
		if !bytes.Equal(skel, skel2) {
			t.Fatalf("%q and %q differ in literals only, but not in skeleton", src, src2)
		}
		got, err := tmpl.Instance(lits)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: Instance error %v, Parse error %v", src2, err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: Instance\n%#v\nParse\n%#v", src2, got, want)
		}
	}
}

func TestTemplateInstanceIsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, src := range skeletonCorpus {
		checkTemplate(t, src, rng, 200)
	}
}

func TestSkeletonSeparatesShapes(t *testing.T) {
	skel := func(src string) string {
		s, _, err := Scan(src, nil, nil)
		if err != nil {
			t.Fatalf("Scan(%q): %v", src, err)
		}
		return string(s)
	}
	same := [][2]string{
		{"SELECT * FROM T WHERE a = 1", "SELECT  *  FROM T  WHERE a=-20 -- note"},
		{"SELECT * FROM T WHERE a = 'x'", "SELECT * FROM T WHERE a = 'it''s'"},
		{"SELECT * FROM T WHERE a = 1.5", "SELECT * FROM T WHERE a = -0.0"},
		{"SELECT * FROM T LIMIT 1", "SELECT * FROM T LIMIT -1"},
	}
	for _, p := range same {
		if skel(p[0]) != skel(p[1]) {
			t.Errorf("%q and %q should share a skeleton", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"SELECT * FROM T WHERE a = 1", "SELECT * FROM T WHERE a = 1.0"},
		{"SELECT * FROM T WHERE a = 1", "SELECT * FROM T WHERE a = '1'"},
		{"SELECT * FROM T WHERE a = 1", "SELECT * FROM T WHERE A = 1"},
		{"SELECT * FROM T WHERE a <> 1", "SELECT * FROM T WHERE a != 1"},
		{"SELECT * FROM T WHERE a < = 1", "SELECT * FROM T WHERE a <= 1"},
		{"SELECT * FROM T WHERE a IN (1, 2)", "SELECT * FROM T WHERE a IN (1, 2, 3)"},
		{"SELECT * FROM ab, c", "SELECT * FROM a, bc"},
		{"SELECT * FROM T t", "SELECT * FROM T"},
	}
	for _, p := range differ {
		if skel(p[0]) == skel(p[1]) {
			t.Errorf("%q and %q should not share a skeleton", p[0], p[1])
		}
	}
}

// TestScanRefusesWhatParseRefuses: Scan rejects a statement only for a
// malformed token or literal, which Parse rejects too.
func TestScanRefusesWhatParseRefuses(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM T WHERE a = 99999999999999999999",
		"SELECT * FROM T LIMIT 99999999999999999999",
		"SELECT * FROM T WHERE a = 'open",
		"SELECT * FROM T WHERE a ! 1",
		"SELECT * FROM T WHERE a = - 1",
		"SELECT * FROM T WHERE a = #",
	} {
		if _, _, err := Scan(src, nil, nil); err == nil {
			t.Errorf("Scan(%q) accepted", src)
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

// FuzzTemplate: for any statement Parse accepts, a statement with the same
// tokens but other literals of the same kinds has its skeleton, and the
// template's instance for it is Parse's AST, or Parse's error. Scan never
// accepts a statement with a malformed token.
func FuzzTemplate(f *testing.F) {
	for _, src := range skeletonCorpus {
		f.Add(src, int64(1))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		if _, err := Parse(src); err != nil {
			if _, err := lex(src, false); err != nil {
				if _, _, serr := Scan(src, nil, nil); serr == nil {
					t.Fatalf("Scan(%q) accepts what the lexer refuses: %v", src, err)
				}
			}
			return
		}
		checkTemplate(t, src, rand.New(rand.NewSource(seed)), 5)
	})
}

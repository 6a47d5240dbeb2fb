package core

import (
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/sqlparse"
	"payless/internal/workload"
)

// normalizeCorpus exercises every literal position the normalizer strips:
// WHERE comparisons, IN lists, HAVING thresholds and LIMIT.
var normalizeCorpus = []string{
	"SELECT * FROM Weather WHERE Country = 'BR' AND Date >= 20140601 AND Date <= 20140630",
	"SELECT City, AVG(Temp) FROM Weather WHERE Temp > 12.5 GROUP BY City",
	"SELECT * FROM Pollution WHERE ZipCode IN ('10001', '10002', '94103')",
	"SELECT Country, COUNT(*) AS n FROM Stations GROUP BY Country HAVING COUNT(*) >= 3",
	"SELECT DISTINCT S.City FROM Stations S, Weather W WHERE S.City = W.City AND W.Date = 20140607",
	"SELECT * FROM Weather ORDER BY Date DESC LIMIT 10",
	"SELECT SUM(Rank) FROM Pollution WHERE Rank >= 1 AND Rank <= 50 AND ZipCode <> 'x'",
	"SELECT * FROM R WHERE R.a = S.a AND R.b IN (1, 2, 3) AND S.c < 4.25",
}

// checkNormalize is the key-stability property: re-parsing a statement's
// own rendering normalizes to the same key, and Normalize leaves its input
// as it found it.
func checkNormalize(t *testing.T, q *sqlparse.Query) {
	t.Helper()
	orig := q.String()
	key := Normalize(q)
	if q.String() != orig {
		t.Fatalf("Normalize mutated its input:\nwas %s\nnow %s", orig, q.String())
	}
	rq, err := sqlparse.Parse(orig)
	if err != nil {
		t.Fatalf("rendering does not re-parse: %v\n%s", err, orig)
	}
	if k := Normalize(rq); k != key {
		t.Fatalf("key not stable under re-parse:\n in: %s\nout: %s", key, k)
	}
}

// TestNormalizeRoundTrip checks the key-stability property on a corpus
// that covers every literal position: WHERE, IN, HAVING and LIMIT.
func TestNormalizeRoundTrip(t *testing.T) {
	for _, sql := range normalizeCorpus {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		checkNormalize(t, q)
	}
}

// TestNormalizeSharedShape: two instantiations of one template collide on
// the key — that is the point of the cache.
func TestNormalizeSharedShape(t *testing.T) {
	a, err := sqlparse.Parse("SELECT * FROM Weather WHERE Country = 'BR' AND Date >= 20140601")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sqlparse.Parse("SELECT * FROM Weather WHERE Country = 'US' AND Date >= 20140615")
	if err != nil {
		t.Fatal(err)
	}
	if ka, kb := Normalize(a), Normalize(b); ka != kb {
		t.Fatalf("same template, different keys:\n%s\n%s", ka, kb)
	}
}

// TestNormalizeDistinctShapesDistinctKeys: shapes that must never share a
// cached plan get distinct keys, including the subtle pairs — operator
// direction, IN arity, literal type and LIMIT presence.
func TestNormalizeDistinctShapesDistinctKeys(t *testing.T) {
	shapes := []string{
		"SELECT * FROM R WHERE a = 1",
		"SELECT * FROM R WHERE a > 1",
		"SELECT * FROM R WHERE a < 1",
		"SELECT * FROM R WHERE b = 1",
		"SELECT * FROM R WHERE a = 1.0",
		"SELECT * FROM R WHERE a = 'one'",
		"SELECT * FROM R WHERE a IN (1)",
		"SELECT * FROM R WHERE a IN (1, 2)",
		"SELECT * FROM R WHERE a IN (1, 2, 3)",
		"SELECT * FROM R, S WHERE a = 1",
		"SELECT * FROM S WHERE a = 1",
		"SELECT a FROM R WHERE a = 1",
		"SELECT COUNT(*) FROM R WHERE a = 1",
		"SELECT * FROM R WHERE a = 1 ORDER BY a",
		"SELECT * FROM R WHERE a = 1 ORDER BY a DESC",
		"SELECT * FROM R WHERE a = 1 LIMIT 5",
		"SELECT DISTINCT a FROM R WHERE a = 1",
		"SELECT a, COUNT(*) FROM R WHERE a = 1 GROUP BY a",
		"SELECT a, COUNT(*) FROM R WHERE a = 1 GROUP BY a HAVING COUNT(*) > 2",
	}
	seen := map[string]string{}
	for _, sql := range shapes {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		key := Normalize(q)
		if prev, dup := seen[key]; dup {
			t.Errorf("key collision between %q and %q: %s", prev, sql, key)
		}
		seen[key] = sql
	}
}

// FuzzNormalize checks the key-stability property on whatever the real
// parser accepts.
func FuzzNormalize(f *testing.F) {
	for _, sql := range normalizeCorpus {
		f.Add(sql)
	}
	f.Add("SELECT * FROM t WHERE x IN ('a', 'b') AND y = 0 LIMIT 3")
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Skip()
		}
		checkNormalize(t, q)
	})
}

// FuzzBind checks that Bind never panics on what the parser accepts, that
// a statement it binds names only columns of its FROM relations and orders
// and filters only by output columns, and that its boxes, residuals and
// unbound attributes equal the reference derivation's (bind_ref_test.go).
func FuzzBind(f *testing.F) {
	for _, sql := range normalizeCorpus {
		f.Add(sql)
	}
	f.Add("SELECT City, AVG(Temperature) AS t FROM Station S, Weather W WHERE S.StationID = W.StationID AND W.Date >= 20140402 GROUP BY City HAVING t > 1 ORDER BY City DESC")
	f.Add("SELECT * FROM Weather, Station WHERE Weather.StationID < Station.StationID ORDER BY Country LIMIT 3")
	f.Add("SELECT * FROM Weather WHERE Date >= 20140402 AND Date = 20140401 AND Country IN ('Country01', 'x', 'Country01')")
	f.Add("SELECT * FROM Weather WHERE Date IN (20140401, 20140402.0, 7) AND Date <= 20140401.5 AND StationID = 2")
	whw := workload.GenerateWHW(workload.WHWConfig{Seed: 1, Countries: 2, StationsPerCountry: 2, CitiesPerCountry: 2, Days: 3, StartDate: 20140401, Zips: 4, MaxRank: 10})
	cat := catalog.New()
	for _, tb := range []*catalog.Table{whw.Station, whw.Weather, whw.Pollution, whw.ZipMap} {
		if err := cat.Register(tb); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Skip()
		}
		checkBindRef(t, q, cat)
		b, err := Bind(q, cat)
		if err != nil {
			return
		}
		names := map[string]bool{}
		for _, r := range b.Rels {
			for _, c := range r.Table.Schema {
				names[r.Alias()+"."+c.Name] = true
			}
		}
		for ref, name := range b.Cols {
			if !names[name] {
				t.Fatalf("%s: %s recorded as %q, not a FROM column", sql, ref, name)
			}
		}
		for _, name := range b.Star {
			if !names[name] {
				t.Fatalf("%s: SELECT * lists %q, not a FROM column", sql, name)
			}
		}
		if len(b.OrderIdx) != len(q.OrderBy) || len(b.HavingIdx) != len(q.Having) {
			t.Fatalf("%s: %d ORDER BY and %d HAVING positions", sql, len(b.OrderIdx), len(b.HavingIdx))
		}
		for _, i := range append(append([]int(nil), b.OrderIdx...), b.HavingIdx...) {
			if i < 0 || i >= len(b.Output) {
				t.Fatalf("%s: position %d outside output %s", sql, i, strings.Join(b.Output, ", "))
			}
		}
	})
}

package core

import (
	"testing"

	"payless/internal/sqlparse"
	"payless/internal/value"
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

// TestNormalizeRoundTrip is the normalize-then-rebind property: stripping a
// query's literals and reinstating them must reproduce the original query
// exactly, and the reconstruction must normalize back to the same key.
func TestNormalizeRoundTrip(t *testing.T) {
	for _, sql := range normalizeCorpus {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		orig := q.String()
		n := Normalize(q)
		rb, err := n.Rebind(n.Params)
		if err != nil {
			t.Fatalf("%s: rebind own params: %v", sql, err)
		}
		if got := rb.String(); got != orig {
			t.Errorf("round trip diverged:\n in: %s\nout: %s", orig, got)
		}
		n2 := Normalize(rb)
		if n2.Key != n.Key {
			t.Errorf("re-normalized key diverged:\n in: %s\nout: %s", n.Key, n2.Key)
		}
		if q.String() != orig {
			t.Errorf("Normalize mutated its input: %s", q.String())
		}
	}
}

// TestNormalizeSharedShape: two instantiations of one template collide on
// the key (that is the point of the cache) while keeping their own params.
func TestNormalizeSharedShape(t *testing.T) {
	a, err := sqlparse.Parse("SELECT * FROM Weather WHERE Country = 'BR' AND Date >= 20140601")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sqlparse.Parse("SELECT * FROM Weather WHERE Country = 'US' AND Date >= 20140615")
	if err != nil {
		t.Fatal(err)
	}
	na, nb := Normalize(a), Normalize(b)
	if na.Key != nb.Key {
		t.Fatalf("same template, different keys:\n%s\n%s", na.Key, nb.Key)
	}
	if na.NumParams() != 2 || nb.NumParams() != 2 {
		t.Fatalf("params: %v vs %v", na.Params, nb.Params)
	}
	if na.Params[0].Str() != "BR" || nb.Params[0].Str() != "US" {
		t.Errorf("literals not kept per instance: %v vs %v", na.Params, nb.Params)
	}
	// Cross-rebinding builds b from a's template.
	rb, err := na.Rebind(nb.Params)
	if err != nil {
		t.Fatal(err)
	}
	if rb.String() != b.String() {
		t.Errorf("cross rebind:\nwant %s\n got %s", b.String(), rb.String())
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
		key := Normalize(q).Key
		if prev, dup := seen[key]; dup {
			t.Errorf("key collision between %q and %q: %s", prev, sql, key)
		}
		seen[key] = sql
	}
}

// TestRebindValidation: parameter lists that don't fit the template are
// rejected instead of silently building a wrong query.
func TestRebindValidation(t *testing.T) {
	q, err := sqlparse.Parse("SELECT * FROM R WHERE a = 1 AND b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	n := Normalize(q)
	if _, err := n.Rebind(n.Params[:1]); err == nil {
		t.Error("short parameter list must error")
	}
	swapped := []value.Value{n.Params[1], n.Params[0]}
	if _, err := n.Rebind(swapped); err == nil {
		t.Error("kind mismatch must error")
	}
}

// FuzzNormalize fuzzes the normalize/rebind pair through the real parser:
// whatever parses must strip and reconstruct losslessly.
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
		orig := q.String()
		n := Normalize(q)
		rb, err := n.Rebind(n.Params)
		if err != nil {
			t.Fatalf("rebind own params: %v\n%s", err, sql)
		}
		if got := rb.String(); got != orig {
			t.Fatalf("round trip diverged:\n in: %s\nout: %s", orig, got)
		}
		if n2 := Normalize(rb); n2.Key != n.Key {
			t.Fatalf("key not stable:\n in: %s\nout: %s", n.Key, n2.Key)
		}
	})
}

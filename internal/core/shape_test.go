package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"payless/internal/catalog"
	"payless/internal/sqlparse"
	"payless/internal/workload"
)

// statement is what a statement-cache hit holds for one skeleton.
type statement struct {
	skel  string
	tmpl  *sqlparse.Template
	shape *Shape
}

// compileStatement builds the cache entry for sql, as a miss does.
func compileStatement(t *testing.T, sql string, cat *catalog.Catalog) *statement {
	t.Helper()
	skel, _, err := sqlparse.Scan(sql, nil, nil)
	if err != nil {
		t.Fatalf("Scan(%s): %v", sql, err)
	}
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%s): %v", sql, err)
	}
	shape, err := NewShape(q, cat)
	if err != nil {
		t.Fatalf("NewShape(%s): %v", sql, err)
	}
	tmpl, err := sqlparse.NewTemplate(sql)
	if err != nil {
		t.Fatalf("NewTemplate(%s): %v", sql, err)
	}
	return &statement{skel: string(skel), tmpl: tmpl, shape: shape}
}

// checkHit binds sql through st, as a hit does, and checks the result
// against the full path: Bind(Parse(sql)), or the same error.
func checkHit(t *testing.T, st *statement, sql string, cat *catalog.Catalog) {
	t.Helper()
	skel, lits, err := sqlparse.Scan(sql, nil, nil)
	if err != nil || string(skel) != st.skel {
		t.Fatalf("%s: not a hit on its shape (%v)", sql, err)
	}
	var want *BoundQuery
	q, wantErr := sqlparse.Parse(sql)
	if wantErr == nil {
		want, wantErr = Bind(q, cat)
	}
	var got *BoundQuery
	inst, err := st.tmpl.Instance(lits)
	if err == nil {
		got, err = st.shape.Bind(inst)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: hit error %v, full path %v", sql, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: hit path bound\n%+v\nfull path\n%+v", sql, got, want)
	}
}

func whwCatalog(t testing.TB) (*workload.WHW, *catalog.Catalog) {
	w := workload.GenerateWHW(workload.WHWConfig{Seed: 17, Countries: 4, StationsPerCountry: 15, CitiesPerCountry: 4, Days: 25, StartDate: 20140401, Zips: 80, MaxRank: 100})
	cat := catalog.New()
	for _, tb := range []*catalog.Table{w.Station, w.Weather, w.Pollution, w.ZipMap} {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	return w, cat
}

// TestShapeBindIsBind: every WHW and TPC-H template, 200 instances each,
// bound through the first instance's statement entry, deep-equals the full
// path's binding.
func TestShapeBindIsBind(t *testing.T) {
	w, whwCat := whwCatalog(t)
	d, tpchCat := tpchCatalog(t)
	for _, set := range []struct {
		templates []workload.Template
		cat       *catalog.Catalog
	}{{w.Templates(), whwCat}, {d.Templates(), tpchCat}} {
		for _, tpl := range set.templates {
			rng := rand.New(rand.NewSource(7))
			entries := map[string]*statement{}
			for i := 0; i < 200; i++ {
				sql := tpl.Instantiate(rng)
				skel, _, err := sqlparse.Scan(sql, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				st := entries[string(skel)]
				if st == nil {
					st = compileStatement(t, sql, set.cat)
					entries[string(skel)] = st
				}
				checkHit(t, st, sql, set.cat)
			}
		}
	}
}

// TestShapeBindSpecialForms: statements that differ from their family's
// first member in literals only bind through its entry as the full path
// binds them — chained equalities, OR chains and IN lists of each arity,
// negative numbers, floats where ints were pushable, escaped quotes,
// HAVING, ORDER BY, LIMIT, DISTINCT, aliases and case variants — and fail
// where it fails: an empty range, a negative LIMIT.
func TestShapeBindSpecialForms(t *testing.T) {
	_, cat := whwCatalog(t)
	families := [][]string{
		{
			"SELECT Temperature FROM Station, Weather WHERE Station.Country = Weather.Country = 'Country01' AND Station.StationID = Weather.StationID",
			"SELECT Temperature FROM Station, Weather WHERE Station.Country = Weather.Country = 'Atlantis' AND Station.StationID = Weather.StationID",
		},
		{
			"SELECT * FROM Station s, Weather w WHERE s.Country = 'Country02' = w.Country AND s.StationID = w.StationID",
			"SELECT * FROM Station s, Weather w WHERE s.Country = 'it''s' = w.Country AND s.StationID = w.StationID",
		},
		{
			"SELECT * FROM Weather WHERE (Country = 'Country01' OR Country = 'Country02' OR Country IN ('Country03'))",
			"SELECT * FROM Weather WHERE (Country = 'Nowhere' OR Country = 'Atlantis' OR Country IN ('Country03'))",
			"SELECT * FROM Weather WHERE (Country = 'Nowhere' OR Country = 'Atlantis' OR Country IN ('Mu'))",
			"SELECT * FROM Weather WHERE (Country = 'Country01' OR Country = 'Country01' OR Country IN ('Country01'))",
		},
		{
			"SELECT * FROM Weather WHERE Country IN ('Country01') AND Date IN (20140401)",
			"SELECT * FROM Weather WHERE Country IN ('Atlantis') AND Date IN (20140402)",
		},
		{
			"SELECT * FROM Weather WHERE Country IN ('Country01', 'Country02') AND Date IN (20140401, 20140402, 20140403)",
			"SELECT * FROM Weather WHERE Country IN ('Country01', 'Country01') AND Date IN (20140405, 20140401, 20140405)",
			"SELECT * FROM Weather WHERE Country IN ('Atlantis', 'Mu') AND Date IN (20140401, 20140402, 20140403)",
		},
		{
			"SELECT * FROM Weather WHERE Date >= 20140401 AND Date <= 20140410 AND Temperature > 3",
			"SELECT * FROM Weather WHERE Date >= -5 AND Date <= 20140410 AND Temperature > -3",
			"SELECT * FROM Weather WHERE Date >= 20140420 AND Date <= 20140410 AND Temperature > 3",
			"SELECT * FROM Weather WHERE Date >= 9223372036854775807 AND Date <= 20140410 AND Temperature > 3",
		},
		{
			"SELECT * FROM Weather WHERE Date > 20140401.5 AND Temperature < 2.5",
			"SELECT * FROM Weather WHERE Date > -1.0 AND Temperature < 0.0",
		},
		{
			"SELECT City, AVG(Temperature) AS t, COUNT(*) FROM Station S, Weather AS W WHERE S.StationID = W.StationID AND W.Date >= 20140402 GROUP BY City HAVING t > 1 AND COUNT(*) >= 2 ORDER BY City DESC LIMIT 4",
			"SELECT City, AVG(Temperature) AS t, COUNT(*) FROM Station S, Weather AS W WHERE S.StationID = W.StationID AND W.Date >= 20140410 GROUP BY City HAVING t > -10 AND COUNT(*) >= 0 ORDER BY City DESC LIMIT 0",
			"SELECT City, AVG(Temperature) AS t, COUNT(*) FROM Station S, Weather AS W WHERE S.StationID = W.StationID AND W.Date >= 20140410 GROUP BY City HAVING t > -10 AND COUNT(*) >= 0 ORDER BY City DESC LIMIT -1",
		},
		{
			"select distinct s.city from station s where S.COUNTRY = 'Country01' order by CITY limit 3",
			"select distinct s.city from station s where S.COUNTRY = 'Country03' order by CITY limit 30",
		},
		{
			"SELECT COUNT(ZipCode) FROM Pollution WHERE 10 <= Pollution.Rank AND 20 >= Pollution.Rank",
			"SELECT COUNT(ZipCode) FROM Pollution WHERE 50 <= Pollution.Rank AND 20 >= Pollution.Rank",
		},
	}
	for _, fam := range families {
		st := compileStatement(t, fam[0], cat)
		for _, sql := range fam {
			checkHit(t, st, sql, cat)
		}
	}
}

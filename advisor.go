package payless

import (
	"fmt"

	"payless/internal/engine"
	"payless/internal/rewrite"
)

// Advice is the download advisor's verdict for one market table. The paper
// stresses that "it is always tough to predict how many user queries would
// eventually be issued" — the advisor makes the trade-off visible from the
// organisation's own history instead of requiring foreknowledge.
type Advice struct {
	Coverage TableCoverage
	// SpentSoFar is what the organisation's workload has already paid for
	// this table's data (approximated by records bought, priced at the
	// table's page size).
	SpentSoFar int64
	// CompleteNow recommends finishing the download: the remainder now
	// costs no more than what history has already spent, so if the
	// workload keeps its pace, completing is the cheaper endgame.
	CompleteNow bool
}

// Advise evaluates every market table against the organisation's spending
// history.
func (c *Client) Advise() []Advice {
	var out []Advice
	spent := c.spentPerTable()
	for _, tc := range c.Coverage() {
		a := Advice{Coverage: tc, SpentSoFar: spent[tc.Table]}
		a.CompleteNow = !tc.FullyCovered &&
			tc.RemainderTransactions > 0 &&
			a.SpentSoFar >= tc.RemainderTransactions
		out = append(out, a)
	}
	return out
}

// spentPerTable approximates historical spending per table from the rows
// materialised in the semantic store (every stored row was paid for once).
func (c *Client) spentPerTable() map[string]int64 {
	out := make(map[string]int64)
	opts := c.options()
	for _, t := range c.cat.Tables() {
		if t.Local {
			continue
		}
		out[t.Name] = rewrite.Price(float64(c.store.StoredRowCount(t.Name)), opts.TuplesPer(t.Dataset))
	}
	return out
}

// CompleteDownload fetches everything of the table that is still missing,
// so all future queries touching it are free. It is the "switch to
// Download All" endgame, but paying only for the remainder: the data
// already owned is never re-bought. The budget guard applies.
func (c *Client) CompleteDownload(table string) (engine.Report, error) {
	t, ok := c.cat.Lookup(table)
	if !ok {
		return engine.Report{}, fmt.Errorf("payless: unknown table %s", table)
	}
	if t.Local {
		return engine.Report{}, fmt.Errorf("payless: %s is a local table", table)
	}
	sql := fmt.Sprintf("SELECT * FROM %s", t.Name)
	// Reuse the regular query path: a whole-table SELECT with SQR fetches
	// exactly the remainder and records everything.
	if c.cfg.MinimizeCalls || c.cfg.Consistency.window < 0 {
		return engine.Report{}, fmt.Errorf("payless: CompleteDownload requires semantic query rewriting")
	}
	res, err := c.Query(sql)
	if err != nil {
		return engine.Report{}, err
	}
	if !c.store.Covered(t.Name, t.FullBox(), c.options().Since) {
		return res.Report, fmt.Errorf("payless: %s not fully covered after download", t.Name)
	}
	return res.Report, nil
}

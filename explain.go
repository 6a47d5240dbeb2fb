package payless

import (
	"context"

	"payless/internal/core"
	"payless/internal/sqlparse"
)

// ExplainOption adjusts what Explain reports.
type ExplainOption func(*explainConfig)

type explainConfig struct {
	verbose bool
}

// Verbose makes Explain render the optimizer's step-by-step plan report
// into Result.PlanDetail.
func Verbose() ExplainOption {
	return func(ec *explainConfig) { ec.verbose = true }
}

// Explain parses and optimises a statement without executing it. The
// returned Result carries the plan rendering, the price estimate and the
// optimizer's search counters; no market call is made and nothing is
// billed.
func (c *Client) Explain(sql string, opts ...ExplainOption) (*Result, error) {
	return c.ExplainContext(context.Background(), sql, opts...)
}

// ExplainContext is Explain under a caller-supplied context.
func (c *Client) ExplainContext(ctx context.Context, sql string, opts ...ExplainOption) (*Result, error) {
	return c.explain(ctx, sql, nil, nil, opts...)
}

// explain plans sql, or the prepared statement st given lits, through the
// plan slot its executions plan through, so the plan reported is the plan a
// query would run.
func (c *Client) explain(ctx context.Context, sql string, st *core.Statement, lits []sqlparse.Literal, opts ...ExplainOption) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ec explainConfig
	for _, o := range opts {
		o(&ec)
	}
	tr := c.beginTrace(sql)
	plan, _, err := c.compile(sql, st, lits, tr)
	if err != nil {
		c.finishTrace(tr)
		return nil, err
	}
	res := planResult(plan)
	if ec.verbose {
		res.PlanDetail = plan.Describe()
	}
	c.finishTrace(tr)
	res.Trace = tr
	return res, nil
}

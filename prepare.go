package payless

import (
	"context"
	"fmt"

	"payless/internal/core"
	"payless/internal/sqlparse"
)

// Stmt is a prepared, parameterised statement. The paper's setting (§2.2)
// expects exactly this: "parameterized queries embedded in certain
// application so that users issue the queries by specifying the parameter
// values via a web interface". It is parsed and its names resolved once; an
// execution binds its arguments as values into the parsed template — an
// argument never becomes SQL text — and plans through the statement's own
// plan slot, which its executions share.
type Stmt struct {
	client *Client
	sql    string
	st     *core.Statement
}

// Prepare compiles a SQL template whose `?` placeholders stand for literals:
// a WHERE or HAVING value, an IN value or the LIMIT count. A `?` inside a
// string literal or a comment is text. A template that does not parse, or
// whose names do not resolve, fails here with a *QueryError (ErrParse or
// ErrBind) instead of on every execution.
func (c *Client) Prepare(template string) (*Stmt, error) {
	tmpl, err := sqlparse.Prepare(template)
	if err != nil {
		return nil, stageErr(StageParse, err)
	}
	shape, err := core.NewShape(tmpl.Query(), c.cat)
	if err != nil {
		return nil, stageErr(StageBind, err)
	}
	return &Stmt{client: c, sql: template, st: &core.Statement{Template: tmpl, Shape: shape}}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.st.Template.NumParams() }

// Query executes the statement with the given parameter values: an int,
// int32, int64, finite float32 or float64, string or non-NULL value.Value
// each, which binds as a literal of its value does.
func (s *Stmt) Query(args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query under a caller-supplied context.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Result, error) {
	lits, err := s.literals(args)
	if err != nil {
		return nil, err
	}
	return s.client.query(ctx, s.sql, s.st, lits)
}

// Explain optimises the statement with the given parameter values without
// executing it, through the plan slot Query uses.
func (s *Stmt) Explain(args ...any) (*Result, error) {
	lits, err := s.literals(args)
	if err != nil {
		return nil, err
	}
	return s.client.explain(context.Background(), s.sql, s.st, lits)
}

// literals returns the statement's literals with args in its placeholders.
func (s *Stmt) literals(args []any) ([]sqlparse.Literal, error) {
	lits, err := s.st.Template.Args(args)
	if err != nil {
		return nil, fmt.Errorf("payless: %w", err)
	}
	return lits, nil
}

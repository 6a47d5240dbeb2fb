package payless

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"payless/internal/core"
	"payless/internal/value"
)

// Stmt is a prepared, parameterised statement. The paper's setting (§2.2)
// expects exactly this: "parameterized queries embedded in certain
// application so that users issue the queries by specifying the parameter
// values via a web interface". Placeholders are written as `?`.
type Stmt struct {
	client *Client
	// segments are the SQL fragments around the placeholders:
	// len(segments) == NumParams + 1.
	segments []string
	// cache is the plan-template cache executions plan through: the
	// client-wide cache when one is enabled, otherwise a small private one —
	// either way a prepared statement optimizes once per template shape
	// instead of re-running the planner on every Query.
	cache *core.PlanCache
}

// Prepare splits a SQL template on its `?` placeholders. Placeholders
// inside string literals and `--` comments are ignored. Validation of the
// SQL happens at execution time, once parameters give the statement a
// concrete form.
func (c *Client) Prepare(template string) (*Stmt, error) {
	var segments []string
	var cur strings.Builder
	inString := false
	for i := 0; i < len(template); i++ {
		ch := template[i]
		switch {
		case ch == '\'':
			// '' inside a literal is an escaped quote, not a terminator.
			if inString && i+1 < len(template) && template[i+1] == '\'' {
				cur.WriteString("''")
				i++
				continue
			}
			inString = !inString
			cur.WriteByte(ch)
		case ch == '-' && !inString && strings.HasPrefix(template[i:], "--"):
			// A line comment, skipped as the lexer skips it: a `?` or a quote
			// in it is text.
			comment, _, _ := strings.Cut(template[i:], "\n")
			cur.WriteString(comment)
			i += len(comment) - 1
		case ch == '?' && !inString:
			segments = append(segments, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	if inString {
		return nil, fmt.Errorf("payless: unterminated string literal in template")
	}
	segments = append(segments, cur.String())
	cache := c.plans
	if cache == nil {
		// One template usually renders to one skeleton; a handful of slots
		// absorbs variants (an argument of another kind).
		cache = core.NewPlanCache(8, c.metrics)
	}
	return &Stmt{client: c, segments: segments, cache: cache}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return len(s.segments) - 1 }

// render substitutes the arguments into the template with proper quoting.
func (s *Stmt) render(args []any) (string, error) {
	if len(args) != s.NumParams() {
		return "", fmt.Errorf("payless: statement has %d parameters, got %d arguments", s.NumParams(), len(args))
	}
	var b strings.Builder
	for i, seg := range s.segments {
		b.WriteString(seg)
		if i == len(s.segments)-1 {
			break
		}
		lit, err := renderArg(args[i])
		if err != nil {
			return "", fmt.Errorf("payless: argument %d: %w", i+1, err)
		}
		b.WriteString(lit)
	}
	return b.String(), nil
}

// renderArg converts a Go value into a SQL literal that parses back to the
// same value. Strings are quoted with each quote doubled, so arbitrary
// argument content cannot alter the statement.
func renderArg(arg any) (string, error) {
	switch v := arg.(type) {
	case int:
		return fmt.Sprintf("%d", v), nil
	case int32:
		return fmt.Sprintf("%d", v), nil
	case int64:
		return fmt.Sprintf("%d", v), nil
	case float32:
		return renderArg(float64(v))
	case float64:
		// Plain decimal with a '.', the only number syntax the lexer reads
		// as a Float; NaN and infinities have none.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%v has no SQL literal", v)
		}
		s := strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s, nil
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'", nil
	case value.Value:
		switch v.K {
		case value.String:
			return renderArg(v.Str())
		case value.Float:
			return renderArg(v.Float64())
		}
		return v.String(), nil
	default:
		return "", fmt.Errorf("unsupported argument type %T", arg)
	}
}

// Query executes the statement with the given parameter values. The plan is
// derived once per template shape and re-bound per execution (see Stmt.cache).
func (s *Stmt) Query(args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query under a caller-supplied context.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Result, error) {
	sql, err := s.render(args)
	if err != nil {
		return nil, err
	}
	return s.client.queryCached(ctx, sql, s.cache)
}

// Explain optimises the instantiated statement without executing it,
// through the plan cache Query uses.
func (s *Stmt) Explain(args ...any) (*Result, error) {
	sql, err := s.render(args)
	if err != nil {
		return nil, err
	}
	return s.client.explain(context.Background(), sql, s.cache)
}

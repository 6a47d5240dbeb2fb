package payless

import (
	"errors"
	"fmt"
	"strings"

	"payless/internal/connector"
	"payless/internal/engine"
	"payless/internal/market"
)

// The error taxonomy. Every failure a Client returns is matchable with
// errors.Is / errors.As:
//
//   - ErrParse / ErrBind / ErrOptimize / ErrExecute identify the query
//     stage that failed (carried by *QueryError);
//   - *StatusError surfaces a non-2xx HTTP response from the market
//     through the execute stage (errors.As);
//   - *PartialError surfaces a query that died part-way through its market
//     fan-out, carrying what it billed and salvaged (errors.As);
//   - ErrCircuitOpen means every market endpoint's circuit breaker for the
//     dataset short-circuited the call (only with Config.Calls.BreakAfter > 0);
//   - ErrRetryBudget means the query's retry budget refused another attempt.
var (
	// ErrParse marks a SQL syntax error.
	ErrParse = errors.New("payless: parse error")
	// ErrBind marks a failure resolving tables/columns against the catalog.
	ErrBind = errors.New("payless: bind error")
	// ErrOptimize marks a failure deriving a plan (e.g. an unsatisfiable
	// binding pattern).
	ErrOptimize = errors.New("payless: optimize error")
	// ErrExecute marks a failure running the plan (market outages land
	// here, wrapping the transport error).
	ErrExecute = errors.New("payless: execute error")
	// ErrClosed marks a query submitted after Close started; the query was
	// rejected before parsing and nothing was billed.
	ErrClosed = errors.New("payless: client is closed")
)

// StatusError is a non-2xx HTTP response from the market, re-exported from
// the connector so callers can match transport failures:
//
//	var se *payless.StatusError
//	if errors.As(err, &se) && se.Code == 429 { ... }
type StatusError = connector.StatusError

// PartialError is a query that failed part-way through its market fan-out,
// re-exported from the engine. It carries the spend the failed query
// actually billed (already folded into TotalSpend) and how many calls were
// salvaged into the semantic store — a re-run pays only for the remainder:
//
//	var pe *payless.PartialError
//	if errors.As(err, &pe) { log.Printf("banked $%.2f", pe.Billed.Price) }
type PartialError = engine.PartialError

// ErrCircuitOpen marks a call short-circuited by open circuit breakers
// (see Config.Calls): every endpoint serving the dataset
// refused. It surfaces wrapped in the execute stage's PartialError.
var ErrCircuitOpen = market.ErrCircuitOpen

// ErrRetryBudget marks a retry, failover or hedge denied because the
// query's retry-token budget ran out: transport retries, failovers and
// hedges each spend one token from a per-query pool of 3 tokens plus half a
// token per logical call. It is deliberately distinct from ErrCircuitOpen:
// the budget says "this query has amplified enough — stop multiplying
// attempts", the breaker says "this market is known dead — stop calling it
// at all". It surfaces wrapped in the execute stage, usually inside a
// PartialError carrying whatever the query billed before giving up.
var ErrRetryBudget = market.ErrRetryBudget

// CircuitOpenError is the concrete breaker-refusal error. It matches
// errors.Is(err, ErrCircuitOpen) and carries how long until a breaker next
// admits a probe — user-facing transports turn it into 503 + Retry-After:
//
//	var coe *payless.CircuitOpenError
//	if errors.As(err, &coe) { wait := coe.RetryAfter }
type CircuitOpenError = market.CircuitOpenError

// Stage names the query-processing phase an error belongs to.
type Stage string

// The query stages, in pipeline order.
const (
	StageParse    Stage = "parse"
	StageBind     Stage = "bind"
	StageOptimize Stage = "optimize"
	StageExecute  Stage = "execute"
)

// sentinel maps a stage to its matchable sentinel error.
func (s Stage) sentinel() error {
	switch s {
	case StageParse:
		return ErrParse
	case StageBind:
		return ErrBind
	case StageOptimize:
		return ErrOptimize
	case StageExecute:
		return ErrExecute
	}
	return nil
}

// QueryError is a failure in one stage of query processing. It matches
// both its stage sentinel (errors.Is(err, payless.ErrParse)) and whatever
// the stage itself returned (errors.As through Err).
type QueryError struct {
	Stage Stage
	Err   error
}

// Error renders "payless: <stage>: <cause>" — the format this package has
// always used, now carried by a typed error.
func (e *QueryError) Error() string {
	return "payless: " + string(e.Stage) + ": " + e.Err.Error()
}

// Unwrap exposes both the stage sentinel and the underlying cause.
func (e *QueryError) Unwrap() []error {
	if s := e.Stage.sentinel(); s != nil {
		return []error{s, e.Err}
	}
	return []error{e.Err}
}

// stageErr wraps err as a QueryError; nil stays nil.
func stageErr(stage Stage, err error) error {
	if err == nil {
		return nil
	}
	return &QueryError{Stage: stage, Err: err}
}

// BatchError locates a failed statement inside a QueryBatch. It unwraps to
// the statement's QueryError, so stage sentinels keep matching.
type BatchError struct {
	// Index is the failed statement's position in the submitted batch.
	Index int
	Err   error
}

// Error renders "payless: batch statement <i>: <stage>: <cause>".
func (e *BatchError) Error() string {
	return fmt.Sprintf("payless: batch statement %d: %s",
		e.Index, strings.TrimPrefix(e.Err.Error(), "payless: "))
}

// Unwrap exposes the statement's error.
func (e *BatchError) Unwrap() error { return e.Err }

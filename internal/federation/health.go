package federation

import (
	"sync"
	"time"

	"payless/internal/market"
)

// health is what the federation knows of one endpoint, behind one lock: the
// latency EWMA, counters and failure streak that rank reads, and one circuit
// per dataset. An endpoint that UpdateEndpoints keeps by name keeps its
// record, so an attempt in flight across a swap settles into it; a removed
// endpoint's record, circuits included, leaves with it.
type health struct {
	mu       sync.Mutex
	ewma     time.Duration      // observed round-trip EWMA; 0 until the first success
	calls    int64              // visits settled with a verdict (no refusals, no cancellations)
	failures int64              // hard failures among them
	streak   int64              // consecutive hard failures, reset on success
	circuits map[string]circuit // by dataset; a closed circuit with no failures is absent
}

// circuit is the breaker of one endpoint×dataset, so a dead mirror trips
// only its own circuits, never a dataset's standing at healthy mirrors. It
// is closed (openedAt zero) while visits flow, opens after BreakAfter
// consecutive failed visits, refuses every visit for Cooldown, then admits
// exactly one probe: the probe's success closes it, its failure re-opens it
// for another cooldown.
type circuit struct {
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last tripped; zero while closed
	probing  bool      // the half-open probe is in flight
}

// retryIn is how long an open circuit still refuses at now: zero once the
// cooldown has elapsed, and while the probe is in flight.
func (c circuit) retryIn(now time.Time, cooldown time.Duration) time.Duration {
	if c.probing {
		return 0
	}
	return max(cooldown-now.Sub(c.openedAt), 0)
}

// admit asks h to let one visit for dataset ds through. It refuses with a
// CircuitOpenError while the circuit is open or its probe is in flight;
// probe reports that this visit is the half-open probe. The visit's outcome
// goes to settle, once.
func (f *Caller) admit(h *health, ds string) (probe bool, err error) {
	if f.cfg.Policy.BreakAfter <= 0 {
		return false, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.circuits[ds]
	if c.openedAt.IsZero() {
		return false, nil
	}
	if wait := c.retryIn(f.now(), f.cfg.Policy.Cooldown); c.probing || wait > 0 {
		f.cfg.Metrics.ObserveBreakerShortCircuit()
		return false, &market.CircuitOpenError{RetryAfter: wait}
	}
	// Cooldown elapsed: this visit is the probe; concurrent callers keep
	// short-circuiting until it settles.
	c.probing = true
	h.circuits[ds] = c
	f.cfg.Metrics.ObserveBreakerProbe()
	return true, nil
}

// settle folds one admitted visit's outcome into h. nil is a success. A
// context error is no verdict on the endpoint — the caller gave up, a hedge
// lost, or the visit never started — and a cancelled probe leaves the
// circuit open with its old trip time, so the next caller may probe at
// once. Any other error is a hard failure.
func (f *Caller) settle(h *health, ds string, probe bool, lat time.Duration, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.circuits[ds]
	switch {
	case isContextErr(err):
		if probe {
			c.probing = false
			h.circuits[ds] = c
		}
	case err == nil:
		h.calls++
		h.streak = 0
		if h.ewma == 0 {
			h.ewma = lat
		} else {
			h.ewma = (time.Duration(ewmaAlpha-1)*h.ewma + lat) / ewmaAlpha
		}
		// The probe's success closes the circuit. A visit admitted while
		// closed only resets the failure count: a circuit that a concurrent
		// failure opened meanwhile stays open, its probe untouched.
		if probe || c.openedAt.IsZero() {
			delete(h.circuits, ds)
		}
	default:
		h.calls++
		h.failures++
		h.streak++
		if f.cfg.Policy.BreakAfter <= 0 || (!probe && !c.openedAt.IsZero()) {
			return // no circuits, or this one opened while the visit ran: its probe decides
		}
		c.failures++
		if probe || c.failures >= f.cfg.Policy.BreakAfter {
			c = circuit{openedAt: f.now()}
			f.cfg.Metrics.ObserveBreakerOpen()
		}
		if h.circuits == nil {
			h.circuits = make(map[string]circuit)
		}
		h.circuits[ds] = c
	}
}

// EndpointHealth is a point-in-time view of one endpoint, surfaced by the
// daemon's /healthz and the client's FederationHealth.
type EndpointHealth struct {
	Name string `json:"name"`
	// Healthy means no circuit on this endpoint is currently open.
	Healthy bool `json:"healthy"`
	// Calls and Failures count attempts issued to the endpoint and the hard
	// failures among them; ConsecutiveFailures is the current streak.
	Calls               int64 `json:"calls"`
	Failures            int64 `json:"failures"`
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// EWMALatencyMillis is the observed round-trip EWMA (0 until the first
	// success).
	EWMALatencyMillis int64 `json:"ewma_latency_ms"`
	// OpenCircuits counts this endpoint's datasets with an open breaker;
	// RetryInMillis is the soonest re-probe among them.
	OpenCircuits  int   `json:"open_circuits"`
	RetryInMillis int64 `json:"retry_in_ms,omitempty"`
}

// Health reports every endpoint's state, in configuration order.
func (f *Caller) Health() []EndpointHealth {
	eps := f.endpoints()
	now := f.now()
	out := make([]EndpointHealth, 0, len(eps))
	for _, ep := range eps {
		h := ep.health
		h.mu.Lock()
		eh := EndpointHealth{
			Name:                ep.Name,
			Calls:               h.calls,
			Failures:            h.failures,
			ConsecutiveFailures: h.streak,
			EWMALatencyMillis:   h.ewma.Milliseconds(),
		}
		for _, c := range h.circuits {
			if c.openedAt.IsZero() {
				continue
			}
			eh.OpenCircuits++
			if ms := c.retryIn(now, f.cfg.Policy.Cooldown).Milliseconds(); eh.RetryInMillis == 0 || (ms > 0 && ms < eh.RetryInMillis) {
				eh.RetryInMillis = ms
			}
		}
		h.mu.Unlock()
		eh.Healthy = eh.OpenCircuits == 0
		out = append(out, eh)
	}
	return out
}

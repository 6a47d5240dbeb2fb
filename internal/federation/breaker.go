package federation

import (
	"sync"
	"time"

	"payless/internal/market"
	"payless/internal/obs"
)

// breakerState is the classic three-state machine: closed (calls flow),
// open (calls short-circuit), half-open (one probe call decides).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a circuit breaker for one endpoint×dataset pair. It trips
// after Threshold consecutive failures, short-circuits every call while
// open, and after Cooldown admits exactly one probe: probe success closes
// the circuit, probe failure re-opens it for another cooldown.
//
// Only hard call failures count; context cancellation — the engine tearing
// a batch down, a lost hedge, the last waiter of a scheduled call leaving —
// is the caller's doing, not the seller's, and must not poison the breaker.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	metrics   *obs.Metrics

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last tripped
}

// Acquire asks permission to issue one call. It returns an error matching
// market.ErrCircuitOpen when the circuit is open (or a probe is already in
// flight half-open); otherwise it returns a release function the caller must
// invoke exactly once with the call's resulting error: nil counts as
// success, a context error counts as neither (the call was cancelled, the
// seller did nothing wrong), and any other error counts as a seller failure.
func (b *Breaker) Acquire() (release func(callErr error), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if since := b.now().Sub(b.openedAt); since < b.cooldown {
			b.metrics.ObserveBreakerShortCircuit()
			return nil, &market.CircuitOpenError{RetryAfter: b.cooldown - since}
		}
		// Cooldown elapsed: half-open, this caller is the probe. Concurrent
		// callers keep short-circuiting until the probe resolves.
		b.state = breakerHalfOpen
		b.metrics.ObserveBreakerProbe()
		return b.releaseProbe, nil
	case breakerHalfOpen:
		b.metrics.ObserveBreakerShortCircuit()
		return nil, &market.CircuitOpenError{}
	default:
		return b.releaseClosed, nil
	}
}

// releaseClosed records the outcome of a call admitted while closed.
func (b *Breaker) releaseClosed(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case callErr == nil:
		b.failures = 0
	case isContextErr(callErr):
		// Batch tear-down cancelled the call: no verdict on the seller.
	default:
		b.failures++
		if b.state == breakerClosed && b.failures >= b.threshold {
			b.trip()
		}
	}
}

// releaseProbe records the outcome of the half-open probe call.
func (b *Breaker) releaseProbe(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerHalfOpen {
		return // a concurrent reset/trip already settled the state
	}
	switch {
	case callErr == nil:
		b.state = breakerClosed
		b.failures = 0
	case isContextErr(callErr):
		// The probe was cancelled, not answered: back to open, keeping the
		// old trip time so the next caller may probe again right away.
		b.state = breakerOpen
	default:
		b.trip()
	}
}

// trip opens the circuit. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = breakerOpen
	b.failures = 0
	b.openedAt = b.now()
	b.metrics.ObserveBreakerOpen()
}

// BreakerSet holds one Breaker per key (endpoint×dataset, see breakerKey),
// lazily created. A nil *BreakerSet is valid and disables breaking entirely
// — Acquire admits everything — so the call path needs no configuration
// check.
type BreakerSet struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	metrics   *obs.Metrics

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewBreakerSet builds a set tripping each key's breaker after threshold
// consecutive failures and re-probing after cooldown. threshold <= 0 returns
// nil (breaking disabled).
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &BreakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		breakers:  make(map[string]*Breaker),
	}
}

// WithClock substitutes the time source (tests). Returns s for chaining.
func (s *BreakerSet) WithClock(now func() time.Time) *BreakerSet {
	if s != nil {
		s.now = now
	}
	return s
}

// WithMetrics routes breaker events to m. Returns s for chaining.
func (s *BreakerSet) WithMetrics(m *obs.Metrics) *BreakerSet {
	if s != nil {
		s.metrics = m
		s.mu.Lock()
		for _, b := range s.breakers {
			b.metrics = m
		}
		s.mu.Unlock()
	}
	return s
}

// For returns the key's breaker, creating it on first use.
func (s *BreakerSet) For(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		b = &Breaker{
			threshold: s.threshold,
			cooldown:  s.cooldown,
			now:       s.now,
			metrics:   s.metrics,
		}
		s.breakers[key] = b
	}
	return b
}

// Acquire is For(key).Acquire() with a nil-set fast path: a nil set admits
// every call and its release is a no-op.
func (s *BreakerSet) Acquire(key string) (release func(callErr error), err error) {
	if s == nil {
		return func(error) {}, nil
	}
	return s.For(key).Acquire()
}

// BreakerStatus is a point-in-time view of one breaker, for health surfaces.
type BreakerStatus struct {
	// State is "closed", "open" or "half-open".
	State string
	// RetryIn is the remaining cooldown while open, zero otherwise.
	RetryIn time.Duration
}

// Status snapshots the breaker's state.
func (b *Breaker) Status() BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		retry := b.cooldown - b.now().Sub(b.openedAt)
		if retry < 0 {
			retry = 0
		}
		return BreakerStatus{State: "open", RetryIn: retry}
	case breakerHalfOpen:
		return BreakerStatus{State: "half-open"}
	default:
		return BreakerStatus{State: "closed"}
	}
}

// States snapshots every breaker in the set, keyed as created. A nil set
// has no breakers.
func (s *BreakerSet) States() map[string]BreakerStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	keys := make([]string, 0, len(s.breakers))
	bs := make([]*Breaker, 0, len(s.breakers))
	for k, b := range s.breakers {
		keys = append(keys, k)
		bs = append(bs, b)
	}
	s.mu.Unlock()
	out := make(map[string]BreakerStatus, len(keys))
	for i, b := range bs {
		out[keys[i]] = b.Status()
	}
	return out
}

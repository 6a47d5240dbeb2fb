// Package chaos injects deterministic faults into PayLess's market
// transports, for testing the failure-recovery layer: the connector's
// retries, the market's idempotency ledger, the engine's circuit breakers
// and partial-result salvage.
//
// A Schedule is seeded: the same seed and event sequence produce the same
// fault decisions, so a failing chaos run reproduces from its seed alone.
// Random fault rates drive broad invariant suites; targeted rules
// (Target) pin a specific fault onto specific calls for directed tests.
//
// Faults are modelled on where they hurt billing:
//
//   - Reject / ServerError fire before the market executes the call —
//     nothing is billed, the buyer just has to retry.
//   - Drop fires after: the call executes (and bills), then the response
//     is lost. Without idempotent retries this is the double-billing
//     fault; with the replay ledger the retry is free.
//   - Truncate also fires after billing: the client receives a 200 whose
//     body was cut mid-flight and must treat it as retryable.
//   - Latency delays the response without failing it.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Kind is a class of injected fault.
type Kind int

const (
	// Latency delays the call, then serves it normally.
	Latency Kind = iota
	// Reject fails the call with HTTP 429 (or an in-process error) before
	// the market executes it: nothing is billed.
	Reject
	// ServerError fails the call with HTTP 500 before execution.
	ServerError
	// Drop executes the call — billing it — then severs the connection
	// before the response reaches the client.
	Drop
	// Truncate executes the call — billing it — then delivers only half
	// the response body.
	Truncate

	numKinds = int(Truncate) + 1
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Reject:
		return "reject"
	case ServerError:
		return "server-error"
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the root of every in-process injected fault, so tests can
// errors.Is a failure back to the chaos layer.
var ErrInjected = errors.New("chaos: injected fault")

// InjectedError is one injected in-process fault.
type InjectedError struct {
	Kind Kind
	Key  string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected %s on %s", e.Kind, e.Key)
}

func (e *InjectedError) Unwrap() error { return ErrInjected }

// rule is a targeted fault: fire kind on events whose key matches, up to
// times occurrences (times < 0 = every match, forever).
type rule struct {
	match func(key string) bool
	kind  Kind
	times int
}

// Schedule decides, event by event, which fault (if any) to inject. It is
// safe for concurrent use; decisions draw from one seeded stream under a
// lock, so a fixed seed yields a reproducible fault mix.
type Schedule struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rates    [numKinds]float64
	latency  time.Duration
	rules    []rule
	injected [numKinds]int64
	disarmed bool
}

// NewSchedule returns an empty schedule drawing from seed. With no rates
// and no rules it injects nothing.
func NewSchedule(seed int64) *Schedule {
	return &Schedule{rng: rand.New(rand.NewSource(seed))}
}

// Rate sets the independent probability of kind firing on each event.
// Rates are evaluated in Kind order and are mutually exclusive per event:
// at most one fault fires. Returns s for chaining.
func (s *Schedule) Rate(kind Kind, p float64) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rates[kind] = p
	return s
}

// WithLatency sets the delay used when a Latency fault fires (default 0:
// the fault is decided but waits for nothing). Returns s for chaining.
func (s *Schedule) WithLatency(d time.Duration) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
	return s
}

// Target adds a deterministic rule: kind fires on events whose key matches,
// for the next times matching events (times < 0 keeps firing forever).
// Rules are checked before the random rates, in the order added. Returns s
// for chaining.
func (s *Schedule) Target(match func(key string) bool, kind Kind, times int) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, rule{match: match, kind: kind, times: times})
	return s
}

// Disarm stops all fault injection (rules and rates); the schedule passes
// every subsequent event through untouched. Injection counts survive.
func (s *Schedule) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disarmed = true
}

// Rearm re-enables injection after Disarm.
func (s *Schedule) Rearm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disarmed = false
}

// Injected returns how many faults of each kind have fired.
func (s *Schedule) Injected() map[Kind]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Kind]int64, numKinds)
	for k, n := range s.injected {
		if n > 0 {
			out[Kind(k)] = n
		}
	}
	return out
}

// TotalInjected returns the total number of faults fired.
func (s *Schedule) TotalInjected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, n := range s.injected {
		t += n
	}
	return t
}

// next decides the fault for one event. ok is false when the event passes
// through clean. delay is non-zero only for Latency faults.
func (s *Schedule) next(key string) (kind Kind, delay time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disarmed {
		return 0, 0, false
	}
	for i := range s.rules {
		r := &s.rules[i]
		if r.times == 0 || !r.match(key) {
			continue
		}
		if r.times > 0 {
			r.times--
		}
		s.injected[r.kind]++
		if r.kind == Latency {
			return r.kind, s.latency, true
		}
		return r.kind, 0, true
	}
	// One uniform draw decides among the rates, evaluated cumulatively in
	// Kind order, so at most one random fault fires per event.
	u := s.rng.Float64()
	var acc float64
	for k := 0; k < numKinds; k++ {
		if s.rates[k] <= 0 {
			continue
		}
		acc += s.rates[k]
		if u < acc {
			s.injected[k]++
			if Kind(k) == Latency {
				return Kind(k), s.latency, true
			}
			return Kind(k), 0, true
		}
	}
	return 0, 0, false
}

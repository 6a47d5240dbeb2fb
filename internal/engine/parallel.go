package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"payless/internal/catalog"
	"payless/internal/market"
	"payless/internal/obs"
	"payless/internal/region"
	"payless/internal/sched"
)

// callSpec is one planned market call of a batch: the access query to issue
// and the box it covers. Specs are computed up front against a snapshot of
// the semantic store and statistics, so the batch contents do not depend on
// the concurrency level; record marks calls whose rows must be recorded
// into the semantic store (the SQR path).
type callSpec struct {
	meta   *catalog.Table
	box    region.Box
	q      catalog.AccessQuery
	record bool
	// parts holds the specs a fused call stands for, in plan order; nil for
	// a call that was planned as it is issued.
	parts []callSpec
}

// partQueries returns the access queries of a fused call's parts; nil for a
// call that was planned as it is issued.
func (sp callSpec) partQueries() []catalog.AccessQuery {
	if sp.parts == nil {
		return nil
	}
	qs := make([]catalog.AccessQuery, len(sp.parts))
	for k, p := range sp.parts {
		qs[k] = p.q
	}
	return qs
}

// specsForBoxes builds one call spec per box; record marks the SQR path.
func specsForBoxes(meta *catalog.Table, boxes []region.Box, record bool) ([]callSpec, error) {
	specs := make([]callSpec, 0, len(boxes))
	for _, b := range boxes {
		q, err := catalog.QueryForBox(meta, b)
		if err != nil {
			return nil, err
		}
		specs = append(specs, callSpec{meta: meta, box: b, q: q, record: record})
	}
	return specs, nil
}

// fuse merges a record-path batch's pieces into exact unions by the
// scheduler's own rule (sched.Fuse) before any is issued, so whether two
// siblings share a call depends on the plan, not on the coalesce window's
// timing. A fused call is recorded as its union box; the access still reads
// its own boxes back from the store. Batches that do not record (no SQR, or
// no store) concatenate per-spec rows and are issued as planned: the
// paper's no-SQR baseline buys call by call.
func (e *Engine) fuse(specs []callSpec) []callSpec {
	if len(specs) < 2 || !specs[0].record {
		return specs
	}
	boxes := make([]region.Box, len(specs))
	for i, sp := range specs {
		boxes[i] = sp.box
	}
	fus := e.Sched.Fuse(specs[0].meta, boxes)
	if len(fus) == len(specs) {
		return specs
	}
	out := make([]callSpec, len(fus))
	for i, fu := range fus {
		if len(fu.Members) == 1 {
			out[i] = specs[fu.Members[0]]
			continue
		}
		parts := make([]callSpec, len(fu.Members))
		for k, m := range fu.Members {
			parts[k] = specs[m]
		}
		out[i] = callSpec{meta: specs[0].meta, box: fu.Box, q: fu.Query, record: true, parts: parts}
	}
	return out
}

// concurrency returns the effective worker-pool width for a batch.
func (e *Engine) concurrency(n int) int {
	c := e.Concurrency
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// runBatch executes a batch of call specs through a bounded worker pool and
// merges the results. The merge — billing (account), histogram feedback,
// and semantic-store recording — walks the specs strictly in slice order,
// so the final billing, coverage geometry, and statistics state are
// identical at every concurrency level.
//
// On the first hard error the batch cancels its context to stop in-flight
// calls and launches no further ones; results that already completed are
// still merged (they are paid for, and recording them lets a retry avoid
// re-billing). At Concurrency<=1 this degrades to exactly the serial
// engine's behavior: calls issue one at a time and stop at the first error.
// Record-path specs are fused first (see fuse); the returned results align
// with the calls issued, and entries are nil only when the batch failed.
func (e *Engine) runBatch(ctx context.Context, specs []callSpec, report *Report) ([]*market.Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	specs = e.fuse(specs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*market.Result, len(specs))
	errs := make([]error, len(specs))
	// A traced call's latency is timed by its fetching goroutine; its trace
	// record is built from that, the result and its route in the plan-order
	// merge below, so traced call order is deterministic at every
	// concurrency level.
	traced := e.Trace != nil
	var latencies []time.Duration
	if traced {
		latencies = make([]time.Duration, len(specs))
	}
	// infos holds the scheduler's verdict per call (shared, merged,
	// recorded-on-our-behalf).
	infos := make([]sched.Info, len(specs))
	var failed atomic.Bool
	sem := make(chan struct{}, e.concurrency(len(specs)))
	var wg sync.WaitGroup
	for i := range specs {
		sem <- struct{}{}
		// Re-check after acquiring the slot: a serial pool (width 1) only
		// frees the slot once the previous call has fully finished, so a
		// failure there stops the very next launch — the exact fail-fast
		// point of the old serial loop.
		if failed.Load() {
			<-sem
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			var start time.Time
			if traced {
				start = time.Now()
			}
			res, info, err := e.Sched.Fetch(cctx, sched.Request{
				Meta:   specs[i].meta,
				Box:    specs[i].box,
				Query:  specs[i].q,
				Record: specs[i].record,
				Parts:  specs[i].partQueries(),
			})
			infos[i] = info
			if traced {
				latencies[i] = time.Since(start)
			}
			if err != nil {
				errs[i] = err
				failed.Store(true)
				cancel()
				return
			}
			results[i] = &res
		}(i)
	}
	wg.Wait()
	var mergeErr error
	for i, spec := range specs {
		res := results[i]
		if res == nil {
			continue
		}
		e.account(report, *res)
		if spec.parts == nil {
			e.Stats.Feedback(spec.meta.Name, spec.box, int64(res.Records))
		} else {
			// Statistics learn what each planned piece held, as if it had
			// been bought on its own.
			for k, n := range sched.PartCounts(spec.meta, spec.partQueries(), res.Batch) {
				e.Stats.Feedback(spec.meta.Name, spec.parts[k].box, n)
			}
		}
		added, compacted := 0, 0
		var walMicros int64
		var walSynced bool
		// The scheduler records shared/merged/abandoned calls itself,
		// exactly once per wire call; recording here again would duplicate
		// the rows' coverage entry.
		if spec.record && !infos[i].Recorded {
			rr, err := e.Store.Record(spec.meta, spec.box, res.Batch, time.Now())
			added, compacted = rr.Added, rr.Compacted()
			walMicros, walSynced = rr.WALMicros, rr.Synced
			if err != nil && mergeErr == nil {
				mergeErr = err
			}
		}
		if traced {
			rt := res.Route
			e.Trace.AddCall(obs.CallRecord{
				Dataset:      spec.meta.Dataset,
				Table:        spec.meta.Name,
				Query:        spec.q.String(),
				Records:      int64(res.Records),
				Transactions: res.Transactions,
				Price:        res.Price,
				Retries:      rt.Retries,
				Latency:      latencies[i],
				Recorded:     spec.record,
				NewRows:      added,
				Compacted:    compacted,
				WALMicros:    walMicros,
				WALSynced:    walSynced,
				Coalesced:    infos[i].Shared || infos[i].Merged,
				SharedWith:   infos[i].SharedWith,
				Endpoint:     rt.Endpoint,
				Failovers:    rt.Failovers,
				Hedged:       rt.Hedged,
				HedgeWon:     rt.HedgeWon,
			})
		}
	}
	if err := batchError(errs); err != nil {
		// Wrap the root cause with the salvage accounting: how many paid-for
		// results survived into the store, how many calls died, how many
		// never ran. The executor fills in the billed totals.
		pe := &PartialError{Err: err}
		for i := range specs {
			switch {
			case results[i] != nil:
				pe.Salvaged++
			case errs[i] != nil && !isContextErr(errs[i]) && !errors.Is(errs[i], market.ErrCircuitOpen):
				pe.Failed++
			default:
				// Never issued: cancelled before launch, torn down in
				// flight, or short-circuited by an open breaker.
				pe.Skipped++
			}
		}
		return results, pe
	}
	return results, mergeErr
}

// batchError picks the error to surface: the lowest-index non-context
// error, so the root cause (e.g. a market outage) wins over the
// context.Canceled errors our own tear-down induced in sibling calls.
func batchError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !isContextErr(err) {
			return err
		}
	}
	return first
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

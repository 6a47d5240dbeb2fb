package payless

import (
	"fmt"
	"sync"

	"payless/internal/catalog"
)

// AddQueueDepth moves the client's admission-queue-depth gauge
// (payless_queue_depth) by delta. The daemon's load shedder feeds it as
// requests start and stop waiting for an execution slot; embedding callers
// with their own admission queue may do the same.
func (c *Client) AddQueueDepth(delta int64) { c.metrics.AddQueueDepth(delta) }

// mirrorTable is the federation layer's mutable view of which endpoints
// mirror each market table and at what terms. It starts as a copy of the
// catalog's Mirror annotations and is rewritten by
// UpdateFederationEndpoints, so routing terms can change at runtime without
// mutating catalog tables that queries read concurrently.
type mirrorTable struct {
	mu      sync.RWMutex
	byTable map[string][]catalog.Mirror
}

// newMirrorTable seeds the table from the catalog annotations.
func newMirrorTable(tables []*catalog.Table) *mirrorTable {
	mt := &mirrorTable{byTable: make(map[string][]catalog.Mirror)}
	for _, t := range tables {
		if t.Local || len(t.Mirrors) == 0 {
			continue
		}
		mt.byTable[t.Name] = append([]catalog.Mirror(nil), t.Mirrors...)
	}
	return mt
}

// get is the federation Config.Mirrors callback.
func (mt *mirrorTable) get(table string) []catalog.Mirror {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.byTable[table]
}

// sync rewrites the mirror sets after an endpoint swap. Only tables whose
// mirror set named exactly the previous endpoint pool are rewritten — those
// were auto-annotated "every endpoint offers this table" entries (the
// OpenFederated default); a table pinned to a subset of endpoints keeps its
// pinning, minus endpoints that no longer exist.
func (mt *mirrorTable) sync(prevNames []string, eps []MarketEndpoint) {
	prev := make(map[string]bool, len(prevNames))
	for _, n := range prevNames {
		prev[n] = true
	}
	auto := make([]catalog.Mirror, 0, len(eps))
	alive := make(map[string]bool, len(eps))
	for _, ep := range eps {
		alive[ep.Name] = true
		auto = append(auto, catalog.Mirror{
			Endpoint:    ep.Name,
			PriceFactor: ep.PriceFactor,
			LatencyHint: ep.LatencyHint,
			AccountKey:  ep.AccountKey,
		})
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for table, ms := range mt.byTable {
		full := len(ms) == len(prev)
		for _, m := range ms {
			if !prev[m.Endpoint] {
				full = false
				break
			}
		}
		if full {
			mt.byTable[table] = append([]catalog.Mirror(nil), auto...)
			continue
		}
		kept := ms[:0]
		for _, m := range ms {
			if alive[m.Endpoint] {
				kept = append(kept, m)
			}
		}
		mt.byTable[table] = kept
	}
}

// UpdateFederationEndpoints hot-swaps the federated client's endpoint pool:
// the new set replaces the old atomically, endpoints kept by name carry
// their observed health (latency EWMA, failure streaks, call counts) across
// the swap, and in-flight calls complete against the endpoints they
// started on. Auto-annotated mirror sets (every endpoint offers every
// table — the OpenFederated default) are rewritten to the new pool's terms;
// mirror sets pinned to an endpoint subset keep their pinning. Endpoints
// without a pre-built Caller get an HTTP connector from BaseURL using the
// connector defaults. Returns an error — leaving the pool untouched — on an
// invalid endpoint set, or on a client opened on one Config.Caller: its one
// endpoint is that caller, and there is no endpoint list to update.
func (c *Client) UpdateFederationEndpoints(endpoints []MarketEndpoint) error {
	if len(c.cfg.FederationEndpoints) == 0 {
		return fmt.Errorf("payless: client was opened on a single Config.Caller, not on federation endpoints")
	}
	eps, err := resolveEndpoints(endpoints)
	if err != nil {
		return err
	}
	c.fedmu.Lock()
	defer c.fedmu.Unlock()
	prevNames := c.fed.Names()
	if err := c.fed.UpdateEndpoints(fedEndpoints(eps)); err != nil {
		return err
	}
	c.mirrors.sync(prevNames, eps)
	return nil
}

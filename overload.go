package payless

import "fmt"

// AddQueueDepth moves the client's admission-queue-depth gauge
// (payless_queue_depth) by delta. The daemon's load shedder feeds it as
// requests start and stop waiting for an execution slot; embedding callers
// with their own admission queue may do the same.
func (c *Client) AddQueueDepth(delta int64) { c.metrics.AddQueueDepth(delta) }

// UpdateFederationEndpoints hot-swaps the federated client's endpoint pool:
// the new set replaces the old atomically, endpoints kept by name carry
// their observed health (latency EWMA, failure streaks, call counts) across
// the swap, and in-flight calls complete against the endpoints they
// started on. Only the pool changes: a table without Mirrors is offered by
// whatever endpoints the new pool holds, and a pinned table keeps the
// endpoints and terms it was opened with — while none of them is in the
// pool, its calls fail with "no endpoint offers table" and bill nothing.
// Endpoints without a pre-built Caller get an HTTP connector from BaseURL
// using the connector defaults. Returns an error — leaving the pool
// untouched — on an invalid endpoint set, or on a client opened on one
// Config.Caller: its one endpoint is that caller, and there is no endpoint
// list to update.
func (c *Client) UpdateFederationEndpoints(endpoints []MarketEndpoint) error {
	if len(c.cfg.FederationEndpoints) == 0 {
		return fmt.Errorf("payless: client was opened on a single Config.Caller, not on federation endpoints")
	}
	eps, err := resolveEndpoints(endpoints)
	if err != nil {
		return err
	}
	return c.fed.UpdateEndpoints(fedEndpoints(eps))
}

package obs

import "context"

type callKey struct{}

// ContextWithCall attaches a call record to ctx so layers below the engine
// (the federation's retry loop) can annotate the in-flight
// call without threading trace plumbing through every signature.
func ContextWithCall(ctx context.Context, rec *CallRecord) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, callKey{}, rec)
}

// CallFromContext returns the call record attached to ctx, or nil.
func CallFromContext(ctx context.Context) *CallRecord {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(callKey{}).(*CallRecord)
	return rec
}

// AddRetry counts one extra transport attempt. Safe on a nil receiver; a
// call record is only ever touched by the wire call it describes.
func (r *CallRecord) AddRetry() {
	if r == nil {
		return
	}
	r.Retries++
}

// SetFederation annotates the call with the federation layer's routing
// outcome: which endpoint served it, how many endpoints hard-failed first,
// and whether a hedge was raced (and won). Safe on a nil receiver.
func (r *CallRecord) SetFederation(endpoint string, failovers int, hedged, hedgeWon bool) {
	if r == nil {
		return
	}
	r.Endpoint = endpoint
	r.Failovers = failovers
	r.Hedged = hedged
	r.HedgeWon = hedgeWon
}

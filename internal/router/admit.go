package router

import (
	"net/http"

	"repro/internal/server"
)

// Router-side admission control. Every queue in the system is bounded
// except the one that used to form inside the router's HTTP client:
// under overload, forwards piled up against saturated shards until
// everything timed out at once. Admission control moves the refusal to
// the front: the router tracks in-flight forwards per shard and sheds
// with 429 + Retry-After the moment a shard's cap is reached, instead
// of queueing into a timeout storm. Shedding is class-prioritized —
// bulk traffic (/v1/batch, or anything marked with ClassHeader) loses
// its slot headroom before interactive traffic does — and a shed is
// never spilled to a non-replica shard, because forwarding a key away
// from its placement would trade a fast 429 for a guaranteed cache
// miss. Lattice streams are admission-checked at setup and then
// released: a stream can stay open for minutes and must not pin a
// forward slot.

// reqClass is the admission priority of a request.
type reqClass int

const (
	// classInteractive is the default: single parses, lattice calls.
	classInteractive reqClass = iota
	// classBulk is /v1/batch and anything marked ClassHeader: bulk.
	classBulk
)

func (c reqClass) String() string {
	if c == classBulk {
		return "bulk"
	}
	return "interactive"
}

// classOf derives the admission class from the request by the
// service's one class rule (server.BulkRequest): an explicit
// ClassHeader wins, otherwise /v1/batch is bulk and everything else is
// interactive.
func classOf(req *http.Request) reqClass {
	if server.BulkRequest(req) {
		return classBulk
	}
	return classInteractive
}

// admitState tracks per-shard in-flight forwards. A nil *admitState
// admits everything (admission control off).
type admitState struct {
	cap     int // interactive in-flight cap per shard
	bulkCap int // bulk cap: lower, so bulk sheds first

	// The counters live in routerMetrics' perShard table (inflight,
	// inflightHigh) so /metrics and Stats see them without a second
	// lock; admitState only holds the policy.
	m *routerMetrics
}

// newAdmitState returns the admission policy, or nil when maxInflight
// is 0 (admission off). Bulk traffic gets server.BulkLimit of the cap,
// so it sheds strictly before interactive.
func newAdmitState(maxInflight int, m *routerMetrics) *admitState {
	if maxInflight <= 0 {
		return nil
	}
	return &admitState{cap: maxInflight, bulkCap: server.BulkLimit(maxInflight), m: m}
}

// acquire claims an in-flight slot on shard for a request of the given
// class. It reports false — shed — when the class's cap is reached.
func (a *admitState) acquire(shard string, class reqClass) bool {
	if a == nil {
		return true
	}
	limit := a.cap
	if class == classBulk {
		limit = a.bulkCap
	}
	return a.m.admitInflight(shard, limit)
}

// release returns shard's slot.
func (a *admitState) release(shard string) {
	if a == nil {
		return
	}
	a.m.releaseInflight(shard)
}

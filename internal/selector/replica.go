package selector

import (
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// Replica is a replica site-selector (Appendix I): a scalability tier in
// front of the master selector. It holds a possibly stale copy of the
// partition-location metadata; write transactions whose (cached) masters
// are all at one site are routed directly — no master-selector involvement
// — and only transactions that appear to need remastering are forwarded to
// the master. Because remastering is rare, replicas stay fresh and absorb
// nearly all routing load.
//
// Stale metadata is possible: a data site rejects transactions for
// partitions it no longer masters (sitemgr.ErrNotMaster), and the client
// resubmits through the master selector, which performs any remastering
// and refreshes this replica's cache.
//
// Under the HA tier (lease.go) each replica doubles as a hot standby: the
// leader's delta feed keeps the replica's mirror — owner plus the epoch
// that installed it — continuously fresh, and a promotion reconciles that
// mirror against the sites' WAL fold to become the new leader's map.
type Replica struct {
	master *Replicated
	net    *transport.Network
	m      *placementMirror
	// feedSeq is the last delta-feed sequence number ingested; the
	// leader's sequence minus this is the standby's lag.
	feedSeq atomic.Uint64

	// resubmits counts stale-metadata fallbacks routed through
	// RouteToMaster after a data site rejected a transaction.
	resubmits atomic.Uint64
}

// Replicated wraps a master Selector with its replica tier. Under HA the
// leader pointer is swapped on promotion; Master keeps naming the initial
// leader for compatibility.
type Replicated struct {
	Master   *Selector
	replicas []*Replica
	net      *transport.Network
	leader   atomic.Pointer[Selector]
	ha       *HA

	// feedSink is an extra consumer of the leader's mastership delta feed
	// (the sharded selector's gossiped placement cache). It survives leader
	// swaps: under HA the broadcast fan-out forwards each delta here, and
	// without HA the master's feed is deliverDelta itself.
	feedSink atomic.Pointer[func(parts []uint64, site int, epoch uint64)]
}

// setFeedSink installs the extra delta-feed consumer.
func (r *Replicated) setFeedSink(f func(parts []uint64, site int, epoch uint64)) {
	r.feedSink.Store(&f)
}

// deliverDelta hands one committed mastership flip to the feed sink, if any.
func (r *Replicated) deliverDelta(parts []uint64, site int, epoch uint64) {
	if f := r.feedSink.Load(); f != nil {
		(*f)(parts, site, epoch)
	}
}

// newReplicated builds n replica selectors over master.
func newReplicated(master *Selector, n int, net *transport.Network) *Replicated {
	r := &Replicated{Master: master, net: net}
	r.leader.Store(master)
	for i := 0; i < n; i++ {
		r.replicas = append(r.replicas, &Replica{master: r, net: net, m: newPlacementMirror()})
	}
	return r
}

// Replicas returns the replica tier.
func (r *Replicated) Replicas() []*Replica { return r.replicas }

// Leader returns the selector currently holding leadership (the master
// outside HA deployments).
func (r *Replicated) Leader() *Selector { return r.leader.Load() }

// HA returns the high-availability state machine, nil without a lease.
func (r *Replicated) HA() *HA { return r.ha }

// LearnAll installs fresh partition locations in every replica's cache
// (failover uses it so replicas stop routing at a dead site immediately,
// rather than waiting for each cached entry's ErrNotMaster bounce).
func (r *Replicated) LearnAll(parts []uint64, site int) {
	for _, rep := range r.replicas {
		rep.Learn(parts, site)
	}
}

// Router is the routing interface sessions use: the group itself, its
// cache-backed router, and replica selectors implement it. A zero sc routes
// untraced.
type Router interface {
	RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error)
	// RouteWriteTraced is RouteWrite under a sampled distributed trace: the
	// remaster chains it runs record their release/grant spans under sc.
	RouteWriteTraced(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error)
	// RouteToMaster resubmits a write a data site rejected on stale routing
	// metadata (ErrNotMaster/ErrStaleEpoch) through the owning selector.
	RouteToMaster(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error)
	RouteRead(client int, cvv vclock.Vector) Route
	// RouteReadParts routes a read restricted to the sites hosting parts
	// (partial replication).
	RouteReadParts(client int, cvv vclock.Vector, parts []uint64) Route
}

// sel returns the selector this replica currently forwards to: the live
// leader under HA, the static master otherwise.
func (r *Replica) sel() *Selector { return r.master.Leader() }

// lookup returns the replica's cached master for a partition, filling the
// cache from the master's metadata on a miss (modelled as part of the
// replica's asynchronous metadata feed; misses are free of master work).
func (r *Replica) lookup(part uint64) int {
	if m, ok := r.m.lookup(part); ok {
		return m
	}
	m := r.sel().MasterOf(part)
	r.m.learn([]uint64{part}, m)
	return m
}

// Learn installs fresh locations (called after a master-routed decision).
// The mirrored install epochs are untouched: Learn's source is the
// leader's live map, whose epoch the delta feed delivers separately.
func (r *Replica) Learn(parts []uint64, site int) { r.m.learn(parts, site) }

// ingest applies one leader delta to the standby mirror.
func (r *Replica) ingest(seq uint64, parts []uint64, site int, epoch uint64) {
	r.m.ingest(parts, site, epoch)
	r.feedSeq.Store(seq)
}

// Mirror copies the standby's mirrored placement: owner and install epoch
// per partition. Promotion reconciles it against the WAL fold.
func (r *Replica) Mirror() (map[uint64]int, map[uint64]uint64) { return r.m.snapshot() }

// FeedSeq returns the last delta-feed sequence number this standby
// ingested.
func (r *Replica) FeedSeq() uint64 { return r.feedSeq.Load() }

// Resubmits returns how many stale-metadata resubmits this replica routed
// through the master selector.
func (r *Replica) Resubmits() uint64 { return r.resubmits.Load() }

// RouteWrite implements Router. If the cached locations are single-sited,
// the replica routes locally; otherwise it forwards to the master
// selector (one extra routing hop), learning the outcome.
func (r *Replica) RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error) {
	return r.routeWrite(client, writeSet, cvv, obs.SpanContext{})
}

// RouteWriteTraced is RouteWrite carrying a sampled trace context: a
// forwarded decision hands sc to the master selector, whose remaster
// chains record their release/grant spans under it. Locally decided
// (single-sited) routes involve no remastering, so no extra spans arise.
func (r *Replica) RouteWriteTraced(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	return r.routeWrite(client, writeSet, cvv, sc)
}

func (r *Replica) routeWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	sel := r.sel()
	parts := sel.writeParts(writeSet)
	if len(parts) == 0 {
		return Route{Site: 0}, nil
	}
	single := true
	site := r.lookup(parts[0])
	for _, p := range parts[1:] {
		if r.lookup(p) != site {
			single = false
			break
		}
	}
	if single {
		// Local decision; record statistics at the master tier so the
		// strategies keep learning (the paper's replicas feed samples
		// back asynchronously).
		sel.finishWrite(client, parts, site, time.Now())
		return Route{Site: site}, nil
	}
	// Forward to the master selector: one replica->master round trip, each
	// leg exposed to injected wire faults (a lost leg is retryable at the
	// session; the decision itself is stateless until it returns).
	if err := r.forward(transport.MsgOverhead + transport.SizeOfRefs(writeSet)); err != nil {
		return Route{}, err
	}
	route, err := sel.routeParts(client, parts, cvv, sc)
	if err == nil {
		r.Learn(parts, route.Site)
	}
	return route, err
}

// forward charges (and fault-exposes) the replica -> master request leg
// and the response leg of a forwarded routing decision.
func (r *Replica) forward(reqSize int) error {
	if err := r.net.SendTo(transport.CatRoute, transport.SelectorNode, transport.SelectorNode, reqSize); err != nil {
		return err
	}
	return r.net.SendTo(transport.CatRoute, transport.SelectorNode, transport.SelectorNode, transport.MsgOverhead)
}

// RouteToMaster is the stale-metadata fallback: the client's transaction
// was rejected by a data site, so resubmit through the master selector and
// refresh the cache. Under a sampled trace the resubmitted decision's
// remaster chains record their release/grant spans as children of sc.Span,
// so stale-metadata bounces stay visible in the transaction's trace.
func (r *Replica) RouteToMaster(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	r.resubmits.Add(1)
	sel := r.sel()
	if err := r.forward(transport.MsgOverhead + transport.SizeOfRefs(writeSet)); err != nil {
		return Route{}, err
	}
	parts := sel.writeParts(writeSet)
	route, err := sel.routeParts(client, parts, cvv, sc)
	if err == nil {
		r.Learn(parts, route.Site)
	}
	return route, err
}

// RouteRead implements Router: read routing does not change in the
// distributed design (any sufficiently fresh replica site works), and it
// keeps working off the current leader's site vectors even while that
// leader is deposed — reads never touch the mastership map.
func (r *Replica) RouteRead(client int, cvv vclock.Vector) Route {
	return r.sel().RouteRead(client, cvv)
}

// RouteReadParts routes a read restricted to the sites hosting the given
// partitions (partial replication). Replica sets live only at the leader, so
// the decision delegates; like RouteRead it stays available while deposed.
func (r *Replica) RouteReadParts(client int, cvv vclock.Vector, parts []uint64) Route {
	return r.sel().RouteReadParts(client, cvv, parts)
}

// CacheSize returns the number of cached partition locations.
func (r *Replica) CacheSize() int { return r.m.size() }

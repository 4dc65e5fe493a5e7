package selector

import (
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// DefaultGossipInterval is the placement cache's anti-entropy pull period:
// the upper bound on how stale a cache entry the delta feed missed can stay.
const DefaultGossipInterval = 20 * time.Millisecond

// PlacementCache is the gossiped read-only placement view of a sharded
// selector group: a placementMirror of every shard's mastership (and, under
// partial replication, replica sets) versioned by install epoch. Two feeds
// keep it fresh:
//
//   - every shard's existing leader->standby mastership delta feed is
//     piggybacked into the mirror's ingest (same deltas, one more consumer), so
//     remaster decisions reach the cache with no extra machinery;
//   - a periodic anti-entropy pull copies each shard leader's placement
//     snapshot, catching entries the delta feed cannot carry (first-sight
//     placements that never remastered, replica-set changes, promotions'
//     reconciled maps). GossipInterval bounds the staleness window.
//
// Sessions route reads off the cache — and optimistically route writes —
// with zero router RPCs. Staleness is safe by construction: a read routed
// to a site that no longer hosts the partition bounces with ErrNotHosted,
// and a write routed to a former master bounces with ErrNotMaster or loses
// its fence race with ErrStaleEpoch; the session's existing resubmit path
// then routes authoritatively through the owning router shard, which
// refreshes this cache via its delta feed.
type PlacementCache struct {
	g        *Group
	interval time.Duration
	m        *placementMirror

	readRoutes  atomic.Uint64 // reads served with zero router RPCs
	writeRoutes atomic.Uint64 // writes served with zero router RPCs
	staleWrites atomic.Uint64 // cached writes bounced and resubmitted
	misses      atomic.Uint64 // routes that fell back to a router
	gossipTicks atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newPlacementCache(g *Group, interval time.Duration, reg *obs.Registry) *PlacementCache {
	if interval <= 0 {
		interval = DefaultGossipInterval
	}
	c := &PlacementCache{
		g:        g,
		interval: interval,
		m:        newPlacementMirror(),
		stop:     make(chan struct{}),
	}
	c.instrument(reg)
	return c
}

func (c *PlacementCache) start() {
	c.gossip() // seed synchronously so early sessions see initial placement
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.gossip()
			}
		}
	}()
}

func (c *PlacementCache) stopLoop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// gossip pulls every shard leader's placement snapshot — the anti-entropy
// pass bounding staleness for entries no delta carries.
func (c *PlacementCache) gossip() {
	c.gossipTicks.Add(1)
	for i := 0; i < c.g.n; i++ {
		sel := c.g.Shard(i)
		placement, epochs := sel.PlacementSnapshot()
		c.m.merge(placement, epochs, sel.PlacementTable(), func(p uint64) bool { return c.g.ShardOf(p) == i })
	}
}

// routeWriteCached serves a write route purely from the cache: all
// partitions cached as mastered at one live site. The decision mirrors the
// replica tier's local-decision model — counted as a write transaction and
// fed back into the owning shards' statistics — without any router RPC. A
// multi-site or uncached set returns false; the caller falls back to the
// routers (an optimistic wrong answer is recovered by the data site's
// ErrNotMaster/ErrStaleEpoch bounce and the session's resubmit).
func (c *PlacementCache) routeWriteCached(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, bool) {
	s0 := c.g.Shard(0)
	parts := s0.writeParts(writeSet)
	if len(parts) == 0 {
		return Route{Site: 0}, true
	}
	site, ok := c.m.commonOwner(parts)
	if !ok || s0.SiteDown(site) {
		c.misses.Add(1)
		return Route{}, false
	}
	c.writeRoutes.Add(1)
	// Stats feedback: finishWrite dispatches through the group, so
	// the sample lands on every owning shard's stripes.
	c.g.ShardFor(parts[0]).finishWrite(client, parts, site, time.Now())
	return Route{Site: site}, true
}

// routeReadCached serves a partition-hinted read from the cached replica
// sets (or, under full replication, from the full site set): a fresh-enough
// host is picked with the selector's read policy, with zero router RPCs.
func (c *PlacementCache) routeReadCached(client int, cvv vclock.Vector, parts []uint64) (Route, bool) {
	s0 := c.g.Shard(0)
	if len(parts) == 0 {
		c.readRoutes.Add(1)
		return s0.RouteRead(client, cvv), true
	}
	var hosts []int
	if s0.placement != nil {
		var ok bool
		if hosts, ok = c.m.commonHosts(parts); !ok {
			c.misses.Add(1)
			return Route{}, false
		}
	} else {
		// Full replication: every site hosts everything.
		hosts = make([]int, len(s0.sites))
		for i := range hosts {
			hosts[i] = i
		}
	}
	// Feed read statistics to the owning shards (the paper's replicas
	// report samples back asynchronously; the cache does the same).
	c.g.recordRead(client, parts)
	c.readRoutes.Add(1)
	s0.countRead()
	return pickFreshHost(s0, hosts, cvv, c.g.ShardFor(parts[0]), parts[0]), true
}

// ReadRoutes returns how many reads the cache served without a router RPC.
func (c *PlacementCache) ReadRoutes() uint64 { return c.readRoutes.Load() }

// WriteRoutes returns how many writes the cache served without a router RPC.
func (c *PlacementCache) WriteRoutes() uint64 { return c.writeRoutes.Load() }

// StaleWrites returns how many cache-routed writes bounced at a data site
// and were resubmitted through a router shard.
func (c *PlacementCache) StaleWrites() uint64 { return c.staleWrites.Load() }

// Misses returns how many route attempts fell back to the routers.
func (c *PlacementCache) Misses() uint64 { return c.misses.Load() }

// Size returns the number of cached mastership entries.
func (c *PlacementCache) Size() int { return c.m.size() }

func (c *PlacementCache) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("dynamast_selector_cache_routes_total", "Session routes served purely from the gossiped placement cache.")
	reg.Help("dynamast_selector_cache_misses_total", "Session routes that fell back to a router shard on a cache miss.")
	reg.Help("dynamast_selector_cache_stale_writes_total", "Cache-routed writes bounced by a data site and resubmitted authoritatively.")
	reg.Help("dynamast_selector_cache_entries", "Mastership entries in the gossiped placement cache.")
	reg.Help("dynamast_selector_cache_gossip_total", "Anti-entropy gossip pulls refreshing the placement cache.")
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.readRoutes.Load() + c.writeRoutes.Load())
	}, obs.L("type", "all"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.readRoutes.Load())
	}, obs.L("type", "read"))
	reg.Func("dynamast_selector_cache_routes_total", obs.KindCounter, func() float64 {
		return float64(c.writeRoutes.Load())
	}, obs.L("type", "write"))
	reg.Func("dynamast_selector_cache_misses_total", obs.KindCounter, func() float64 {
		return float64(c.misses.Load())
	})
	reg.Func("dynamast_selector_cache_stale_writes_total", obs.KindCounter, func() float64 {
		return float64(c.staleWrites.Load())
	})
	reg.Func("dynamast_selector_cache_entries", obs.KindGauge, func() float64 {
		return float64(c.Size())
	})
	reg.Func("dynamast_selector_cache_gossip_total", obs.KindCounter, func() float64 {
		return float64(c.gossipTicks.Load())
	})
}

// CachedRouter is the session-facing router of a sharded group with the
// placement cache enabled: reads and single-site writes come straight from
// the cache (no router involvement), everything else dispatches into the
// group, and stale-metadata resubmits count against the cache before
// routing authoritatively.
type CachedRouter struct {
	g *Group
	c *PlacementCache
}

// RouteWriteCached serves a write purely from the cache when its write set
// is cached single-sited; ok=false means the caller must route through the
// group (the session then pays the selector round trip).
func (r *CachedRouter) RouteWriteCached(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, bool) {
	return r.c.routeWriteCached(client, writeSet, cvv)
}

// RouteReadCached serves a partition-hinted read purely from the cached
// replica sets; ok=false falls back to the group's routers.
func (r *CachedRouter) RouteReadCached(client int, cvv vclock.Vector, parts []uint64) (Route, bool) {
	return r.c.routeReadCached(client, cvv, parts)
}

// RouteWrite implements Router authoritatively. The session tries
// RouteWriteCached first and only lands here on a miss, so this does not
// re-consult the cache (a second consult would double-count misses).
func (r *CachedRouter) RouteWrite(client int, writeSet []storage.RowRef, cvv vclock.Vector) (Route, error) {
	return r.g.RouteWrite(client, writeSet, cvv)
}

// RouteWriteTraced is RouteWrite under a sampled trace.
func (r *CachedRouter) RouteWriteTraced(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	return r.g.RouteWriteTraced(client, writeSet, cvv, sc)
}

// RouteToMaster is the stale-metadata resubmit: the optimistic cache route
// bounced (ErrNotMaster / ErrStaleEpoch at the data site), so route
// authoritatively through the owning router shards.
func (r *CachedRouter) RouteToMaster(client int, writeSet []storage.RowRef, cvv vclock.Vector, sc obs.SpanContext) (Route, error) {
	r.c.staleWrites.Add(1)
	return r.g.RouteToMaster(client, writeSet, cvv, sc)
}

// RouteRead implements Router: version-vector reads need no placement, so
// they are always cache-grade (zero router RPCs by nature).
func (r *CachedRouter) RouteRead(client int, cvv vclock.Vector) Route {
	r.c.readRoutes.Add(1)
	return r.g.RouteRead(client, cvv)
}

// RouteReadParts routes a partition-hinted read authoritatively through the
// group (the session tries RouteReadCached first).
func (r *CachedRouter) RouteReadParts(client int, cvv vclock.Vector, parts []uint64) Route {
	return r.g.RouteReadParts(client, cvv, parts)
}

package selector

import (
	"testing"

	"dynamast/internal/obs"
	"dynamast/internal/storage"
)

func TestReplicatedRouterAssignment(t *testing.T) {
	// No replicas: everyone routes through the group.
	r0, _ := newTier(t, 2, YCSBWeights(), 0)
	if r0.RouterFor(3) != Router(r0) {
		t.Fatal("no-replica tier did not return the group")
	}
	r2, _ := newTier(t, 2, YCSBWeights(), 2)
	if len(r2.Repl(0).Replicas()) != 2 {
		t.Fatal("replica count")
	}
	if r2.RouterFor(0) == r2.RouterFor(1) {
		t.Fatal("clients not spread over replicas")
	}
	if r2.RouterFor(0) != r2.RouterFor(2) {
		t.Fatal("round-robin broken")
	}
}

func TestReplicaFastPathAvoidsMaster(t *testing.T) {
	g, _ := newTier(t, 2, YCSBWeights(), 1)
	sel, rep := g.Shard(0), g.Repl(0).Replicas()[0]

	// Single-sited write set: the replica decides locally; the master's
	// remaster counter must stay zero.
	ws := []storage.RowRef{ref(1), ref(50)}
	route, err := rep.RouteWrite(1, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if route.Site != 0 || route.Remastered {
		t.Fatalf("route = %+v", route)
	}
	if rep.CacheSize() == 0 {
		t.Fatal("replica cached nothing")
	}
	if sel.Metrics().RemasterTxns != 0 {
		t.Fatal("fast path reached the master's remastering")
	}
	// Statistics still flow to the master tier.
	if sel.Metrics().WriteTxns == 0 {
		t.Fatal("replica-routed write not counted")
	}
}

func TestReplicaForwardsSplitWriteSets(t *testing.T) {
	g, sites := newTier(t, 2, YCSBWeights(), 1)
	sel, rep := g.Shard(0), g.Repl(0).Replicas()[0]
	rel, _ := sites[0].Release([]uint64{1}, 1, 0)
	sites[1].Grant([]uint64{1}, rel, 0, 0)
	sel.RegisterPartition(1, 1)

	ws := []storage.RowRef{ref(1), ref(101)}
	route, err := rep.RouteWrite(1, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !route.Remastered {
		t.Fatal("split write set did not remaster via the master")
	}
	// The replica learned the new locations: the same write set now takes
	// the fast path.
	before := sel.Metrics().RemasterTxns
	route2, err := rep.RouteWrite(1, ws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if route2.Remastered || sel.Metrics().RemasterTxns != before {
		t.Fatal("replica did not learn the co-located placement")
	}
}

func TestReplicaStaleCacheFallback(t *testing.T) {
	g, sites := newTier(t, 2, YCSBWeights(), 1)
	sel, rep := g.Shard(0), g.Repl(0).Replicas()[0]

	ws := []storage.RowRef{ref(1)}
	if _, err := rep.RouteWrite(1, ws, nil); err != nil {
		t.Fatal(err)
	}
	// Mastership moves behind the replica's back.
	rel, _ := sites[0].Release([]uint64{0}, 1, 0)
	sites[1].Grant([]uint64{0}, rel, 0, 0)
	sel.RegisterPartition(0, 1)

	// The replica still routes to site 0 (stale).
	route, _ := rep.RouteWrite(1, ws, nil)
	if route.Site != 0 {
		t.Fatalf("expected stale route to site 0, got %d", route.Site)
	}
	// The data site would reject; the client falls back to the master.
	route2, err := rep.RouteToMaster(1, ws, nil, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if route2.Site != 1 {
		t.Fatalf("master fallback routed to %d", route2.Site)
	}
	// And the replica's cache is fresh again.
	route3, _ := rep.RouteWrite(1, ws, nil)
	if route3.Site != 1 {
		t.Fatalf("replica cache not refreshed: %d", route3.Site)
	}
}

func TestReplicaRouteRead(t *testing.T) {
	g, _ := newTier(t, 3, YCSBWeights(), 1)
	rep := g.Repl(0).Replicas()[0]
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		seen[rep.RouteRead(1, nil).Site] = true
	}
	if len(seen) < 2 {
		t.Fatal("replica read routing not spreading load")
	}
}

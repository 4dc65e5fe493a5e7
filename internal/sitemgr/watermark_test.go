package sitemgr

import (
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// The release point is the released partitions' write watermark, not the
// whole site vector: a grant must not wait for updates unrelated to the
// moved items.
func TestReleaseReturnsPartitionWatermark(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]

	// Commit to partition 0 twice and partition 5 once.
	for i := 0; i < 2; i++ {
		tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
		tx.Write(ref(1), []byte("a"))
		mustCommit(t, tx)
	}
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(501)})
	tx.Write(ref(501), []byte("b"))
	mustCommit(t, tx)

	// Releasing partition 0 returns a vector covering its two commits —
	// seq 1 and 2 — even though the site's own dimension is at 3.
	relVV, err := s0.Release([]uint64{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relVV[0] != 2 {
		t.Fatalf("release watermark %v, want dim0 = 2", relVV)
	}
	if s0.SVV()[0] != 3 {
		t.Fatalf("site vector %v, want dim0 = 3", s0.SVV())
	}
}

func TestGrantWaitsOnlyForRelevantUpdates(t *testing.T) {
	// Site 1 has applied partition 0's updates but lags on partition 5's;
	// a grant of partition 0 must complete without waiting for the rest.
	// Site 1 runs without replication appliers so its lag is controlled.
	b := wal.NewBroker(2)
	defer b.Close()
	s0, err := New(Config{SiteID: 0, Sites: 2, Broker: b, Partitioner: partitionBy100})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Config{SiteID: 1, Sites: 2, Broker: b, Partitioner: partitionBy100})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Site{s0, s1} {
		s.Store().CreateTable("t")
	}
	for p := uint64(0); p < 10; p++ {
		s0.SetMaster(p, true)
	}

	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("a"))
	tvv := mustCommit(t, tx)
	replayLog(s1, 0, b.Log(0).Len()) // site 1 applies partition 0's update synchronously
	if !s1.SVV().DominatesEq(tvv) {
		t.Fatalf("site 1 svv %v behind %v", s1.SVV(), tvv)
	}

	// A later unrelated commit that site 1 never applies.
	tx2, _ := s0.Begin(nil, []storage.RowRef{ref(501)})
	tx2.Write(ref(501), []byte("b"))
	mustCommit(t, tx2)

	relVV, err := s0.Release([]uint64{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := s1.Grant([]uint64{0}, relVV, 0, 0); err != nil {
			panic(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("grant waited for an unrelated update")
	}
}

func TestWatermarkFollowsRemasterChain(t *testing.T) {
	// p moves 0 -> 1 -> 0; the final release point must cover commits made
	// at both sites, so a third grantee sees the freshest value.
	sites, _ := testCluster(t, 3)
	s0, s1, s2 := sites[0], sites[1], sites[2]

	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("v0"))
	mustCommit(t, tx)

	rel, _ := s0.Release([]uint64{0}, 1, 0)
	if _, err := s1.Grant([]uint64{0}, rel, 0, 0); err != nil {
		t.Fatal(err)
	}
	tx, err := s1.Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(1), []byte("v1"))
	mustCommit(t, tx)

	rel2, _ := s1.Release([]uint64{0}, 2, 0)
	if rel2[0] < 1 || rel2[1] < 1 {
		t.Fatalf("chained watermark %v must cover both sites' commits", rel2)
	}
	if _, err := s2.Grant([]uint64{0}, rel2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if data, ok := s2.ReadLocal(ref(1)); !ok || string(data) != "v1" {
		t.Fatalf("third master read %q %v, want v1", data, ok)
	}
}

package sitemgr

import (
	"errors"
	"testing"

	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// newFencePair builds two replicating sites over one broker with partition
// ownership seeded at site 0.
func newFencePair(t *testing.T) ([]*Site, *wal.Broker) {
	t.Helper()
	b := wal.NewBroker(2)
	sites := make([]*Site, 2)
	for i := range sites {
		s, err := New(Config{
			SiteID: i, Sites: 2, Broker: b,
			Partitioner: partitionBy100, Replicate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 10; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i] = s
		s.Start()
	}
	t.Cleanup(func() {
		b.Close()
		for _, s := range sites {
			s.Stop()
		}
	})
	return sites, b
}

// TestFenceEpochsBelow fences shard 0 of 1 — the whole map, as a group of
// one's promotion does.
func TestFenceEpochsBelow(t *testing.T) {
	sites, _ := newFencePair(t)
	s0, s1 := sites[0], sites[1]
	fence := func(s *Site, floor uint64) uint64 { return s.FenceEpochsBelowRange(floor, 0, 1) }

	if floor, fenced := s0.fencedEpoch([]uint64{1}, 1); fenced {
		t.Fatalf("initial floor = %d, want none", floor)
	}
	if got := fence(s0, 5); got != 5 {
		t.Fatalf("fence install returned %d, want 5", got)
	}
	// The floor only rises: a lower fence is a no-op returning the one in
	// effect, re-installing the same floor is idempotent.
	if got := fence(s0, 3); got != 5 {
		t.Fatalf("lower fence returned %d, want 5", got)
	}
	if got := fence(s0, 5); got != 5 {
		t.Fatalf("idempotent fence returned %d, want 5", got)
	}

	// Operations below the floor die with ErrStaleEpoch.
	if _, err := s0.Release([]uint64{1}, 1, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("release below floor: err = %v, want ErrStaleEpoch", err)
	}
	fence(s1, 5)
	if _, err := s1.Grant([]uint64{1}, nil, 0, 4); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("grant below floor: err = %v, want ErrStaleEpoch", err)
	}
	if s1.Masters(1) || !s0.Masters(1) {
		t.Fatal("fenced operations changed ownership")
	}

	// Epoch-0 (unfenced, coordinator-less) transfers are unaffected, and
	// operations at or above the floor proceed.
	rel, err := s0.Release([]uint64{1}, 1, 0)
	if err != nil {
		t.Fatalf("epoch-0 release under fence: %v", err)
	}
	if _, err := s1.Grant([]uint64{1}, rel, 0, 0); err != nil {
		t.Fatalf("epoch-0 grant under fence: %v", err)
	}
	rel, err = s1.Release([]uint64{1}, 0, 5)
	if err != nil {
		t.Fatalf("release at floor: %v", err)
	}
	if _, err := s0.Grant([]uint64{1}, rel, 1, 6); err != nil {
		t.Fatalf("grant above floor: %v", err)
	}
	if !s0.Masters(1) || s1.Masters(1) {
		t.Fatal("at/above-floor transfer did not complete")
	}

	// A dead site still serves the fence (promotion treats fenced and
	// crashed sites uniformly).
	s1.Kill()
	if got := fence(s1, 9); got != 9 {
		t.Fatalf("fence on dead site returned %d, want 9", got)
	}
}

func TestFoldMastership(t *testing.T) {
	sites, b := newFencePair(t)
	s0, s1 := sites[0], sites[1]

	// A completed chain at epoch 2: partition 3 moves 0 -> 1.
	rel, err := s0.Release([]uint64{3}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Grant([]uint64{3}, rel, 0, 2); err != nil {
		t.Fatal(err)
	}
	// A dangling release at epoch 3: partition 4 released by site 0, the
	// grant never ran (coordinator died between the legs).
	if _, err := s0.Release([]uint64{4}, 1, 3); err != nil {
		t.Fatal(err)
	}

	f := FoldMastership(b, map[uint64]int{3: 0, 4: 0, 5: 0})
	if got := f.Owner[3]; got != 1 {
		t.Fatalf("fold owner of partition 3 = %d, want 1", got)
	}
	if got := f.Epoch[3]; got != 2 {
		t.Fatalf("fold epoch of partition 3 = %d, want 2", got)
	}
	if got := f.Owner[5]; got != 0 {
		t.Fatalf("fold owner of untouched partition 5 = %d, want initial 0", got)
	}
	if got, ok := f.Dangling[4]; !ok || got != 0 {
		t.Fatalf("dangling = %v, want partition 4 -> releaser 0", f.Dangling)
	}
	if _, dangling := f.Dangling[3]; dangling {
		t.Fatal("completed chain reported dangling")
	}
	// With an initial placement the dangling partition keeps its seed owner
	// (legacy RecoverMastership callers expect a complete map); without one
	// no log grant exists, so the partition has no fold owner at all.
	if got := f.Owner[4]; got != 0 {
		t.Fatalf("dangling partition seeded owner = %d, want initial 0", got)
	}
	if _, owned := FoldMastership(b, nil).Owner[4]; owned {
		t.Fatal("dangling partition acquired a fold owner without an initial placement")
	}
	if f.MaxEpoch != 3 {
		t.Fatalf("fold max epoch = %d, want 3", f.MaxEpoch)
	}

	// The legacy entry point stays consistent with the fold's owners.
	owners := RecoverMastership(b, map[uint64]int{3: 0, 4: 0, 5: 0})
	if owners[3] != 1 || owners[5] != 0 {
		t.Fatalf("RecoverMastership = %v", owners)
	}
}

// TestSameEpochChainsOfTwoShards runs two release/grant chains that carry the
// same epoch over disjoint partitions, as two router shards' independent
// allocators issue them: both must take effect (neither may be answered
// from the other's memo), and retrying either is still a lookup.
func TestSameEpochChainsOfTwoShards(t *testing.T) {
	sites, _ := newFencePair(t)
	s0, s1 := sites[0], sites[1]
	for _, p := range []uint64{1, 2} {
		rel, err := s0.Release([]uint64{p}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Grant([]uint64{p}, rel, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []uint64{1, 2} {
		if s0.Masters(p) || !s1.Masters(p) {
			t.Fatalf("partition %d did not move: its epoch-1 chain was answered from the other chain's memo", p)
		}
	}
	if _, err := s0.Release([]uint64{2}, 1, 1); err != nil {
		t.Fatalf("retried release: %v", err)
	}
	if _, err := s1.Grant([]uint64{2}, nil, 0, 1); err != nil {
		t.Fatalf("retried grant: %v", err)
	}
	if s0.Masters(2) || !s1.Masters(2) {
		t.Fatal("a retried chain changed ownership again")
	}
}

// TestEpochMemoEvictsOldestInserted checks the memo keeps the most recent
// memoLimit results whatever their epochs: shards' allocators advance at
// different rates, so a slow shard's fresh chain carries a low epoch.
func TestEpochMemoEvictsOldestInserted(t *testing.T) {
	var e epochMemo
	for i := uint64(0); i < memoLimit; i++ {
		e.put(memoKey{epoch: 1000 + i, part: 1}, vclock.Vector{i})
	}
	e.put(memoKey{epoch: 3, part: 2}, vclock.Vector{7}) // a slow shard's chain
	if vv, ok := e.get(memoKey{epoch: 3, part: 2}); !ok || vv[0] != 7 {
		t.Fatalf("newest entry = %v/%v, want [7]", vv, ok)
	}
	if _, ok := e.get(memoKey{epoch: 1000, part: 1}); ok {
		t.Fatal("oldest entry kept past the limit")
	}
	if _, ok := e.get(memoKey{epoch: 1001, part: 1}); !ok {
		t.Fatal("second-oldest entry evicted early")
	}
}

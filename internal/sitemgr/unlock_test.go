package sitemgr

import (
	"errors"
	"testing"
	"time"

	"dynamast/internal/storage"
)

// requireUnlocked fails unless every listed record of table "t" at s is free:
// the path under test released its write lock. Releasing one twice would
// already have crashed the test binary (record locks are sync.Mutex).
func requireUnlocked(t *testing.T, s *Site, keys ...uint64) {
	t.Helper()
	for _, k := range keys {
		r := s.Store().Table("t").Record(k, false)
		if r == nil {
			t.Fatalf("record %d was never created by the lock set", k)
		}
		if !r.TryLock() {
			t.Fatalf("record %d still locked", k)
		}
		r.Unlock()
	}
}

func beginWrite(t *testing.T, s *Site, keys ...uint64) *Txn {
	t.Helper()
	refs := make([]storage.RowRef, len(keys))
	for i, k := range keys {
		refs[i] = ref(k)
	}
	tx, err := s.Begin(nil, refs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := tx.Write(r, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// TestUnlockAllCallSitesReleaseOnce drives every path that releases a
// transaction's record locks — per-transaction and epoch commits, abort, a
// poisoned read, a site killed before commit, a failed seal, and the 2PC
// participant's duplicate prepare, commit and abort — and checks each leaves
// its records unlocked, exactly once.
func TestUnlockAllCallSitesReleaseOnce(t *testing.T) {
	t.Run("commit", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		mustCommit(t, beginWrite(t, sites[0], 1, 2))
		requireUnlocked(t, sites[0], 1, 2)
	})
	t.Run("abort", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		tx := beginWrite(t, sites[0], 1, 2)
		tx.Abort()
		tx.Abort() // a second abort must not release again
		requireUnlocked(t, sites[0], 1, 2)
	})
	t.Run("poisoned-read", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		s0 := sites[0]
		tx := beginWrite(t, s0, 1)
		// Key 3 is created after tx's snapshot: the read cannot tell a
		// newer row from an evicted one, so it poisons tx.
		mustCommit(t, beginWrite(t, s0, 3))
		tx.Read(ref(3))
		if _, err := tx.Commit(); !errors.Is(err, ErrSnapshotTooOld) {
			t.Fatalf("commit after a poisoned read: %v, want ErrSnapshotTooOld", err)
		}
		requireUnlocked(t, s0, 1, 3)
	})
	t.Run("site-down", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		tx := beginWrite(t, sites[0], 1)
		sites[0].Kill()
		if _, err := tx.Commit(); !errors.Is(err, ErrSiteDown) {
			t.Fatalf("commit on a killed site: %v, want ErrSiteDown", err)
		}
		requireUnlocked(t, sites[0], 1)
	})
	t.Run("epoch-commit", func(t *testing.T) {
		sites, _ := testClusterEpoch(t, 2, time.Millisecond)
		mustCommit(t, beginWrite(t, sites[0], 1, 2))
		requireUnlocked(t, sites[0], 1, 2)
	})
	t.Run("epoch-site-down", func(t *testing.T) {
		// Commit checks down before choosing the epoch path; enter the
		// epoch path directly to reach its own check, which catches a kill
		// landing between the two.
		sites, _ := testClusterEpoch(t, 2, time.Millisecond)
		tx := beginWrite(t, sites[0], 1)
		sites[0].Kill()
		tx.finished = true
		if _, err := tx.commitEpoch(nil, time.Now()); !errors.Is(err, ErrSiteDown) {
			t.Fatalf("epoch commit on a killed site: %v, want ErrSiteDown", err)
		}
		requireUnlocked(t, sites[0], 1)
	})
	t.Run("epoch-seal-failed", func(t *testing.T) {
		sites, b := testClusterEpoch(t, 2, time.Millisecond)
		b.Log(0).Close() // every seal append now fails
		if _, err := beginWrite(t, sites[0], 1).Commit(); err == nil {
			t.Fatal("commit acked although its seal could not be logged")
		}
		requireUnlocked(t, sites[0], 1)
		// The failed seal is sticky: the next commit abandons before
		// installing anything.
		if _, err := beginWrite(t, sites[0], 2).Commit(); err == nil {
			t.Fatal("commit acked after a failed seal")
		}
		requireUnlocked(t, sites[0], 1, 2)
	})
	t.Run("2pc-duplicate-prepare", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		s0 := sites[0]
		id := s0.NextTxnID()
		if _, err := s0.Prepare(id, []storage.RowRef{ref(1)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s0.Prepare(id, []storage.RowRef{ref(2)}); err == nil {
			t.Fatal("duplicate prepare accepted")
		}
		requireUnlocked(t, s0, 2)
		s0.AbortPrepared(id)
		requireUnlocked(t, s0, 1)
	})
	t.Run("2pc-commit", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		s0 := sites[0]
		id := s0.NextTxnID()
		if _, err := s0.Prepare(id, []storage.RowRef{ref(1), ref(2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s0.CommitPrepared(id, []storage.Write{{Ref: ref(1), Data: []byte("d")}}); err != nil {
			t.Fatal(err)
		}
		requireUnlocked(t, s0, 1, 2)
	})
	t.Run("2pc-abort", func(t *testing.T) {
		sites, _ := testCluster(t, 2)
		s0 := sites[0]
		id := s0.NextTxnID()
		if _, err := s0.Prepare(id, []storage.RowRef{ref(1), ref(2)}); err != nil {
			t.Fatal(err)
		}
		s0.AbortPrepared(id)
		s0.AbortPrepared(id) // a second abort must not release again
		requireUnlocked(t, s0, 1, 2)
	})
}

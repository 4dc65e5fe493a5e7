package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dynamast/internal/vclock"
)

// Tests pinning a row's memory footprint with deterministic counters only:
// allocation counts and slice capacities, never timings or heap sizes.

// footprintSink keeps records created under testing.AllocsPerRun reachable,
// so escape analysis cannot move them to the stack and hide an allocation.
var footprintSink *Record

// TestFootprintFirstInstallAllocs pins the cost of a new row: the Record
// itself and its one-slot version chain. A channel-based write lock would
// add a third allocation.
func TestFootprintFirstInstallAllocs(t *testing.T) {
	data := []byte("row")
	for _, maxVersions := range []int{-1, 1, 2, 4, 8} {
		allocs := testing.AllocsPerRun(100, func() {
			r := newRecord()
			r.Install(Stamp{0, 1}, data, false, maxVersions)
			footprintSink = r
		})
		if allocs != 2 {
			t.Errorf("maxVersions=%d: new record + first install = %v allocs, want 2", maxVersions, allocs)
		}
	}
}

// TestFootprintFullChainInstallAllocs checks that once a bounded chain is
// full, installs shift it in place and allocate nothing.
func TestFootprintFullChainInstallAllocs(t *testing.T) {
	data := []byte("row")
	for _, maxVersions := range []int{1, 2, 4, 8} {
		r := newRecord()
		seq := uint64(0)
		for ; seq < uint64(maxVersions); seq++ {
			r.Install(Stamp{0, seq + 1}, data, false, maxVersions)
		}
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			r.Install(Stamp{0, seq}, data, false, maxVersions)
		})
		if allocs != 0 {
			t.Errorf("maxVersions=%d: install into a full chain = %v allocs, want 0", maxVersions, allocs)
		}
	}
}

// TestFootprintChainCapacityBounded checks that a bounded chain's backing
// array never exceeds the cap, and that the shift keeps the newest
// maxVersions versions in newest-first order.
func TestFootprintChainCapacityBounded(t *testing.T) {
	for _, maxVersions := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("versions=%d", maxVersions), func(t *testing.T) {
			r := newRecord()
			last := uint64(3 * maxVersions)
			for seq := uint64(1); seq <= last; seq++ {
				r.Install(Stamp{0, seq}, []byte{byte(seq)}, false, maxVersions)
				if c := cap(r.versions); c > maxVersions {
					t.Fatalf("after %d installs cap(versions) = %d, want <= %d", seq, c, maxVersions)
				}
			}
			if n := r.VersionCount(); n != maxVersions {
				t.Fatalf("VersionCount = %d, want %d", n, maxVersions)
			}
			for i, v := range r.versions {
				if want := last - uint64(i); v.stamp.Seq != want || v.data[0] != byte(want) {
					t.Fatalf("versions[%d] = seq %d data %v, want seq %d", i, v.stamp.Seq, v.data, want)
				}
			}
			oldest := last - uint64(maxVersions) + 1
			if _, ok, evicted := r.ReadChecked(vclock.Vector{oldest - 1}); ok || !evicted {
				t.Fatalf("snapshot below the oldest retained version: ok=%v evicted=%v, want an eviction miss", ok, evicted)
			}
		})
	}
}

// TestRecordLockHandoffAcrossGoroutines locks a record on one goroutine and
// unlocks it on another while a third waits in Lock — the shape of a
// commit that releases its write locks off the goroutine that took them.
func TestRecordLockHandoffAcrossGoroutines(t *testing.T) {
	r := newRecord()
	for i := 0; i < 100; i++ {
		locked := make(chan struct{})
		go func() {
			r.Lock()
			close(locked)
		}()
		<-locked
		acquired := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Lock() // acquires once the release below lands
			close(acquired)
			r.Unlock()
		}()
		released := make(chan struct{})
		go func() {
			r.Unlock()
			close(released)
		}()
		<-released
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: waiter never acquired the released lock", i)
		}
		wg.Wait()
	}
	if !r.TryLock() {
		t.Fatal("lock still held after every handoff")
	}
	r.Unlock()
}

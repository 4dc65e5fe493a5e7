package sitemgr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// partitionBy100 groups keys into partitions of 100 contiguous keys, the
// paper's YCSB partitioning.
func partitionBy100(ref storage.RowRef) uint64 { return ref.Key / 100 }

// testCluster builds m replicating sites over one broker, with every
// partition initially mastered at site 0 and table "t" pre-created.
func testCluster(t *testing.T, m int) ([]*Site, *wal.Broker) {
	t.Helper()
	b := wal.NewBroker(m)
	sites := make([]*Site, m)
	for i := 0; i < m; i++ {
		s, err := New(Config{
			SiteID:      i,
			Sites:       m,
			Broker:      b,
			Partitioner: partitionBy100,
			Replicate:   true,
			// Propagation delay left at zero for fast tests.
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		for p := uint64(0); p < 10; p++ {
			s.SetMaster(p, i == 0)
		}
		sites[i] = s
	}
	for _, s := range sites {
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

func ref(key uint64) storage.RowRef { return storage.RowRef{Table: "t", Key: key} }

func mustCommit(t *testing.T, tx *Txn) vclock.Vector {
	t.Helper()
	vv, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return vv
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	b := wal.NewBroker(2)
	defer b.Close()
	if _, err := New(Config{SiteID: 0, Sites: 2, Partitioner: partitionBy100}); err == nil {
		t.Error("missing broker accepted")
	}
	if _, err := New(Config{SiteID: 0, Sites: 2, Broker: b}); err == nil {
		t.Error("missing partitioner accepted")
	}
	if _, err := New(Config{SiteID: 5, Sites: 2, Broker: b, Partitioner: partitionBy100}); err == nil {
		t.Error("out-of-range site id accepted")
	}
}

func TestLocalCommitVisibility(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]

	tx, err := s0.Begin(nil, []storage.RowRef{ref(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(ref(5), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	tvv := mustCommit(t, tx)
	if !tvv.Equal(vclock.Vector{1, 0}) {
		t.Fatalf("tvv = %v", tvv)
	}

	rd, err := s0.Begin(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := rd.Read(ref(5)); !ok || string(data) != "hello" {
		t.Fatalf("read = %q %v", data, ok)
	}
	if _, err := rd.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshPropagation(t *testing.T) {
	sites, _ := testCluster(t, 3)
	tx, _ := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("x"))
	tvv := mustCommit(t, tx)

	for _, s := range sites[1:] {
		s := s
		waitFor(t, func() bool { return s.SVV().DominatesEq(tvv) })
		if data, ok := s.ReadLocal(ref(1)); !ok || string(data) != "x" {
			t.Fatalf("site %d read = %q %v", s.ID(), data, ok)
		}
		if s.Refreshes() == 0 {
			t.Fatalf("site %d applied no refreshes", s.ID())
		}
	}
}

func TestRefreshDependencyOrdering(t *testing.T) {
	// Reproduces the paper's Figure 2: T1 commits at S0; S2 applies R(T1)
	// then commits T2 (which depends on T1); S1 must apply R(T1) before
	// R(T2) even though R(T2) may arrive first in wall-clock terms.
	sites, _ := testCluster(t, 3)
	s0, s1, s2 := sites[0], sites[1], sites[2]

	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("t1"))
	tvv1 := mustCommit(t, tx)

	// Let S2 apply R(T1), then remaster partition 0 to S2 and commit T2.
	waitFor(t, func() bool { return s2.SVV().DominatesEq(tvv1) })
	relVV, err := s0.Release([]uint64{0}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Grant([]uint64{0}, relVV, 0, 0); err != nil {
		t.Fatal(err)
	}
	tx2, err := s2.Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	tx2.Write(ref(1), []byte("t2"))
	tvv2 := mustCommit(t, tx2)
	if !tvv2.DominatesEq(tvv1) {
		t.Fatalf("T2's commit %v does not reflect T1 %v", tvv2, tvv1)
	}

	waitFor(t, func() bool { return s1.SVV().DominatesEq(tvv2) })
	if data, ok := s1.ReadLocal(ref(1)); !ok || string(data) != "t2" {
		t.Fatalf("S1 read = %q %v (must be T2's value)", data, ok)
	}
}

func TestBeginNotMaster(t *testing.T) {
	sites, _ := testCluster(t, 2)
	_, err := sites[1].Begin(nil, []storage.RowRef{ref(1)})
	if !errors.Is(err, ErrNotMaster) {
		t.Fatalf("err = %v, want ErrNotMaster", err)
	}
}

func TestWriteOutsideDeclaredSet(t *testing.T) {
	sites, _ := testCluster(t, 2)
	tx, _ := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	defer tx.Abort()
	if err := tx.Write(ref(2), []byte("x")); err == nil {
		t.Fatal("write outside declared write set accepted")
	}
}

func TestReadOnlyTxnRejectsWrites(t *testing.T) {
	sites, _ := testCluster(t, 2)
	tx, _ := sites[0].Begin(nil, nil)
	if !tx.ReadOnly() {
		t.Fatal("empty write set not read-only")
	}
	if err := tx.Write(ref(1), []byte("x")); err == nil {
		t.Fatal("read-only txn accepted a write")
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("mine"))
	if data, ok := tx.Read(ref(1)); !ok || string(data) != "mine" {
		t.Fatalf("own write invisible: %q %v", data, ok)
	}
	tx.Delete(ref(1))
	if _, ok := tx.Read(ref(1)); ok {
		t.Fatal("own delete invisible")
	}
	mustCommit(t, tx)
	if _, ok := s0.ReadLocal(ref(1)); ok {
		t.Fatal("committed delete not effective")
	}
}

func TestSnapshotIsolationReaderUnblocked(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("v1"))
	mustCommit(t, tx)

	// Writer holds the lock on key 1; a concurrent reader must not block
	// and must see the pre-update value.
	w, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	w.Write(ref(1), []byte("v2"))
	r, _ := s0.Begin(nil, nil)
	if data, ok := r.Read(ref(1)); !ok || string(data) != "v1" {
		t.Fatalf("reader saw %q %v", data, ok)
	}
	mustCommit(t, w)
	// The reader's snapshot still sees v1 after the writer commits.
	if data, ok := r.Read(ref(1)); !ok || string(data) != "v1" {
		t.Fatalf("snapshot not stable: %q %v", data, ok)
	}
}

func TestWriteWriteBlocking(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx1, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	started := make(chan struct{})
	done := make(chan vclock.Vector, 1)
	go func() {
		close(started)
		tx2, err := s0.Begin(nil, []storage.RowRef{ref(1)})
		if err != nil {
			panic(err)
		}
		tx2.Write(ref(1), []byte("second"))
		vv, err := tx2.Commit()
		if err != nil {
			panic(err)
		}
		done <- vv
	}()
	<-started
	select {
	case <-done:
		t.Fatal("conflicting txn proceeded while lock held")
	case <-time.After(20 * time.Millisecond):
	}
	tx1.Write(ref(1), []byte("first"))
	tvv1 := mustCommit(t, tx1)
	select {
	case tvv2 := <-done:
		// The second writer's snapshot (and commit) must reflect the first.
		if !tvv2.DominatesEq(tvv1) {
			t.Fatalf("second commit %v does not dominate first %v", tvv2, tvv1)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked writer never proceeded")
	}
	if data, _ := s0.ReadLocal(ref(1)); string(data) != "second" {
		t.Fatalf("final value %q", data)
	}
}

func TestBeginWaitsForMinVV(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s1 := sites[1]
	// Session requires site 0's first commit; start the Begin first, then
	// commit at site 0 and verify the Begin completes with a snapshot that
	// includes it.
	got := make(chan vclock.Vector, 1)
	go func() {
		tx, err := s1.Begin(vclock.Vector{1, 0}, nil)
		if err != nil {
			panic(err)
		}
		got <- tx.Snapshot()
	}()
	select {
	case <-got:
		t.Fatal("Begin returned before freshness satisfied")
	case <-time.After(20 * time.Millisecond):
	}
	tx, _ := sites[0].Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("x"))
	mustCommit(t, tx)
	select {
	case snap := <-got:
		if snap[0] < 1 {
			t.Fatalf("snapshot %v misses required freshness", snap)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Begin never unblocked")
	}
}

func TestReleaseWaitsForWriters(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("x"))

	released := make(chan vclock.Vector, 1)
	go func() {
		vv, err := s0.Release([]uint64{0}, 1, 0)
		if err != nil {
			panic(err)
		}
		released <- vv
	}()
	select {
	case <-released:
		t.Fatal("release completed while a writer was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	tvv := mustCommit(t, tx)
	select {
	case relVV := <-released:
		// The release vector must include the committed write.
		if !relVV.DominatesEq(tvv) {
			t.Fatalf("release vector %v misses commit %v", relVV, tvv)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("release never completed")
	}
	if s0.Masters(0) {
		t.Fatal("site still masters released partition")
	}
}

func TestReleaseBlocksNewWriters(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	go func() {
		time.Sleep(30 * time.Millisecond)
		tx.Abort()
	}()
	relDone := make(chan struct{})
	go func() {
		if _, err := s0.Release([]uint64{0}, 1, 0); err != nil {
			panic(err)
		}
		close(relDone)
	}()
	time.Sleep(10 * time.Millisecond)
	// While the release is pending, a new writer must be turned away.
	if _, err := s0.Begin(nil, []storage.RowRef{ref(2)}); !errors.Is(err, ErrReleasing) {
		t.Fatalf("err = %v, want ErrReleasing", err)
	}
	<-relDone
}

func TestGrantWaitsForReleasePoint(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0, s1 := sites[0], sites[1]

	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("pre-release"))
	mustCommit(t, tx)
	relVV, err := s0.Release([]uint64{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	grantVV, err := s1.Grant([]uint64{0}, relVV, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !grantVV.DominatesEq(relVV) {
		t.Fatalf("grant vector %v below release point %v", grantVV, relVV)
	}
	if !s1.Masters(0) {
		t.Fatal("grant did not take ownership")
	}
	// The freshest value must already be readable at the new master.
	if data, ok := s1.ReadLocal(ref(1)); !ok || string(data) != "pre-release" {
		t.Fatalf("new master read = %q %v", data, ok)
	}
	if s1.RemastersReceived() != 1 {
		t.Fatalf("RemastersReceived = %d", s1.RemastersReceived())
	}
}

func TestScanAtSnapshot(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	for k := uint64(0); k < 5; k++ {
		tx, _ := s0.Begin(nil, []storage.RowRef{ref(k)})
		tx.Write(ref(k), []byte{byte(k)})
		mustCommit(t, tx)
	}
	rd, _ := s0.Begin(nil, nil)
	rows := rd.Scan("t", 1, 4)
	if len(rows) != 3 || rows[0].Key != 1 || rows[2].Key != 3 {
		t.Fatalf("scan = %+v", rows)
	}
	n := 0
	rd.ScanEach("t", 0, 5, func(uint64, []byte) bool { n++; return true })
	if n != 5 {
		t.Fatalf("ScanEach visited %d", n)
	}
	if rd.Scan("missing", 0, 1) != nil {
		t.Fatal("scan of missing table returned rows")
	}
}

func TestMasteredPartitions(t *testing.T) {
	sites, _ := testCluster(t, 2)
	if got := len(sites[0].MasteredPartitions()); got != 10 {
		t.Fatalf("site 0 masters %d partitions", got)
	}
	if got := len(sites[1].MasteredPartitions()); got != 0 {
		t.Fatalf("site 1 masters %d partitions", got)
	}
}

func TestConcurrentCommitsStayDense(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	const n = 30
	done := make(chan vclock.Vector, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			tx, err := s0.Begin(nil, []storage.RowRef{ref(uint64(i))})
			if err != nil {
				panic(err)
			}
			tx.Write(ref(uint64(i)), []byte{byte(i)})
			vv, err := tx.Commit()
			if err != nil {
				panic(err)
			}
			done <- vv
		}(i)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		vv := <-done
		if seen[vv[0]] {
			t.Fatalf("duplicate commit seq %d", vv[0])
		}
		seen[vv[0]] = true
	}
	if s0.SVV()[0] != n {
		t.Fatalf("svv[0] = %d, want %d", s0.SVV()[0], n)
	}
	// The site's log must carry the n commits in sequence order.
	cur := s0.log.Subscribe(0)
	want := uint64(1)
	for {
		e, ok := cur.TryNext()
		if !ok {
			break
		}
		if e.Kind != wal.KindUpdate {
			continue
		}
		if e.TVV[0] != want {
			t.Fatalf("log out of order: got seq %d, want %d", e.TVV[0], want)
		}
		want++
	}
	if want != n+1 {
		t.Fatalf("log carried %d commits", want-1)
	}
}

func TestAbortReleasesLocksAndWriters(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("x"))
	tx.Abort()
	tx.Abort() // idempotent

	// Lock free again.
	tx2, err := s0.Begin(nil, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2) // empty write set is a no-op commit of an update txn
	// Release must not block on the aborted writer.
	doneCh := make(chan struct{})
	go func() {
		s0.Release([]uint64{0}, 1, 0)
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Second):
		t.Fatal("release blocked after abort")
	}
	// Aborted write is invisible.
	if _, ok := s0.ReadLocal(ref(1)); ok {
		t.Fatal("aborted write visible")
	}
}

func TestTwoPCPrepareCommit(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	id := s0.NextTxnID()
	snap, err := s0.Prepare(id, []storage.RowRef{ref(1)})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("nil prepare snapshot")
	}
	if _, err := s0.Prepare(id, []storage.RowRef{ref(2)}); err == nil {
		t.Fatal("duplicate prepare accepted")
	}
	tvv, err := s0.CommitPrepared(id, []storage.Write{{Ref: ref(1), Data: []byte("d")}})
	if err != nil {
		t.Fatal(err)
	}
	if tvv[0] != 1 {
		t.Fatalf("tvv = %v", tvv)
	}
	if data, _ := s0.ReadLocal(ref(1)); string(data) != "d" {
		t.Fatalf("read %q", data)
	}
	if _, err := s0.CommitPrepared(id, nil); err == nil {
		t.Fatal("commit of unprepared txn accepted")
	}
}

func TestTwoPCUncertainPhaseBlocks(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	id := s0.NextTxnID()
	if _, err := s0.Prepare(id, []storage.RowRef{ref(1)}); err != nil {
		t.Fatal(err)
	}
	// A local transaction on the same record blocks until the global
	// decision — the uncertain-phase blocking the paper highlights.
	done := make(chan struct{})
	go func() {
		tx, err := s0.Begin(nil, []storage.RowRef{ref(1)})
		if err != nil {
			panic(err)
		}
		tx.Write(ref(1), []byte("local"))
		if _, err := tx.Commit(); err != nil {
			panic(err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("local txn proceeded during uncertain phase")
	case <-time.After(20 * time.Millisecond):
	}
	s0.AbortPrepared(id)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("local txn never unblocked after abort")
	}
	s0.AbortPrepared(id) // idempotent
}

func TestShipOutShipIn(t *testing.T) {
	// LEAP-style localization between two non-replicating sites.
	b := wal.NewBroker(2)
	defer b.Close()
	mk := func(id int) *Site {
		s, err := New(Config{SiteID: id, Sites: 2, Broker: b, Partitioner: partitionBy100})
		if err != nil {
			t.Fatal(err)
		}
		s.Store().CreateTable("t")
		return s
	}
	src, dst := mk(0), mk(1)
	for p := uint64(0); p < 10; p++ {
		src.SetMaster(p, true)
	}
	for k := uint64(0); k < 3; k++ {
		tx, _ := src.Begin(nil, []storage.RowRef{ref(k)})
		tx.Write(ref(k), []byte{byte(k + 10)})
		mustCommit(t, tx)
	}
	rows, err := src.ShipOut(ShipRequest{
		Refs:   []storage.RowRef{ref(0)},
		Scans:  []ScanRange{{Table: "t", Lo: 1, Hi: 3}},
		Parts:  []uint64{0},
		ToSite: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("shipped %d rows", len(rows))
	}
	if src.Masters(0) {
		t.Fatal("source still masters shipped partition")
	}
	if _, err := dst.ShipIn([]uint64{0}, rows); err != nil {
		t.Fatal(err)
	}
	if !dst.Masters(0) {
		t.Fatal("destination does not master shipped partition")
	}
	for k := uint64(0); k < 3; k++ {
		if data, ok := dst.ReadLocal(ref(k)); !ok || data[0] != byte(k+10) {
			t.Fatalf("key %d at destination: %v %v", k, data, ok)
		}
	}
	// The destination can now execute update transactions on the data.
	tx, err := dst.Begin(nil, []storage.RowRef{ref(0)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(0), []byte("updated"))
	mustCommit(t, tx)
}

func TestRecoveryBootstrapAndReplay(t *testing.T) {
	sites, broker := testCluster(t, 2)
	s0 := sites[0]
	for k := uint64(0); k < 5; k++ {
		tx, _ := s0.Begin(nil, []storage.RowRef{ref(k)})
		tx.Write(ref(k), []byte{byte(k)})
		mustCommit(t, tx)
	}
	waitFor(t, func() bool { return sites[1].SVV().DominatesEq(s0.SVV()) })

	// "Crash" site 0 and recover a fresh instance from its redo log.
	recovered, err := New(Config{
		SiteID: 0, Sites: 2, Broker: broker, Partitioner: partitionBy100,
	})
	if err != nil {
		t.Fatal(err)
	}
	recovered.Store().CreateTable("t")
	if err := recovered.Recover(0, broker.LastUpdateSeqs(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if recovered.SVV()[0] != 5 {
		t.Fatalf("recovered svv = %v", recovered.SVV())
	}
	for k := uint64(0); k < 5; k++ {
		if data, ok := recovered.ReadLocal(ref(k)); !ok || data[0] != byte(k) {
			t.Fatalf("recovered key %d: %v %v", k, data, ok)
		}
	}
	// Recovery must resume the commit sequence without reuse.
	recovered.AdoptMastership(RecoverMastership(broker, map[uint64]int{0: 0}))
	tx, err := recovered.Begin(nil, []storage.RowRef{ref(9)})
	if err != nil {
		t.Fatal(err)
	}
	tx.Write(ref(9), []byte("post"))
	tvv := mustCommit(t, tx)
	if tvv[0] != 6 {
		t.Fatalf("post-recovery commit seq = %d, want 6", tvv[0])
	}
}

func TestRecoveryBootstrapFromPeer(t *testing.T) {
	sites, broker := testCluster(t, 2)
	s0, s1 := sites[0], sites[1]
	tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
	tx.Write(ref(1), []byte("x"))
	tvv := mustCommit(t, tx)
	waitFor(t, func() bool { return s1.SVV().DominatesEq(tvv) })

	fresh, err := New(Config{SiteID: 0, Sites: 2, Broker: broker, Partitioner: partitionBy100})
	if err != nil {
		t.Fatal(err)
	}
	fresh.BootstrapFrom(s1)
	if !fresh.SVV().DominatesEq(tvv) {
		t.Fatalf("bootstrap svv = %v", fresh.SVV())
	}
	if data, ok := fresh.ReadLocal(ref(1)); !ok || string(data) != "x" {
		t.Fatalf("bootstrap read = %q %v", data, ok)
	}
}

func TestRecoverMastershipFromLogs(t *testing.T) {
	sites, broker := testCluster(t, 3)
	s0, s1, s2 := sites[0], sites[1], sites[2]
	// Move partition 3: s0 -> s1 -> s2; partition 4: s0 -> s1.
	rel, _ := s0.Release([]uint64{3, 4}, 1, 0)
	s1.Grant([]uint64{3, 4}, rel, 0, 0)
	rel2, _ := s1.Release([]uint64{3}, 2, 0)
	s2.Grant([]uint64{3}, rel2, 1, 0)

	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = 0
	}
	owner := RecoverMastership(broker, initial)
	if owner[3] != 2 {
		t.Errorf("partition 3 owner = %d, want 2", owner[3])
	}
	if owner[4] != 1 {
		t.Errorf("partition 4 owner = %d, want 1", owner[4])
	}
	if owner[5] != 0 {
		t.Errorf("partition 5 owner = %d, want 0", owner[5])
	}
}

// replayLog runs s's applier over origin's log up to offset end, in the
// caller's goroutine.
func replayLog(s *Site, origin int, end uint64) {
	s.wg.Add(1)
	s.applyLoop(origin, 0, end)
}

func TestCatchUp(t *testing.T) {
	// A non-replicating site catches up synchronously from the logs through
	// the refresh applier bounded at the log end.
	b := wal.NewBroker(2)
	defer b.Close()
	s0, err := New(Config{SiteID: 0, Sites: 2, Broker: b, Partitioner: partitionBy100, Replicate: false})
	if err != nil {
		t.Fatal(err)
	}
	s0.Store().CreateTable("t")
	for p := uint64(0); p < 10; p++ {
		s0.SetMaster(p, true)
	}
	lagger, err := New(Config{SiteID: 1, Sites: 2, Broker: b, Partitioner: partitionBy100, Replicate: false})
	if err != nil {
		t.Fatal(err)
	}
	lagger.Store().CreateTable("t")

	var last vclock.Vector
	for k := uint64(0); k < 4; k++ {
		tx, _ := s0.Begin(nil, []storage.RowRef{ref(k)})
		tx.Write(ref(k), []byte{byte(k)})
		last = mustCommit(t, tx)
	}
	replayLog(lagger, 0, b.Log(0).Len())
	if !lagger.SVV().DominatesEq(last) {
		t.Fatalf("catch-up left svv at %v", lagger.SVV())
	}
	if data, ok := lagger.ReadLocal(ref(3)); !ok || data[0] != 3 {
		t.Fatalf("catch-up data: %v %v", data, ok)
	}
}

func TestVersionChainBoundedUnderLoad(t *testing.T) {
	sites, _ := testCluster(t, 2)
	s0 := sites[0]
	for i := 0; i < 20; i++ {
		tx, _ := s0.Begin(nil, []storage.RowRef{ref(1)})
		tx.Write(ref(1), []byte(fmt.Sprintf("v%d", i)))
		mustCommit(t, tx)
	}
	rec := s0.Store().Table("t").Record(1, false)
	if rec.VersionCount() > storage.DefaultMaxVersions {
		t.Fatalf("version chain %d exceeds cap", rec.VersionCount())
	}
}

package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
)

// Full-cluster crash/recovery: run traffic (including remastering) against
// a durable cluster, tear everything down, restart from the write-ahead
// logs alone, and verify data and mastership state.
func TestClusterCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Sites:       3,
		Partitioner: partitionBy100,
		WALDir:      dir,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	var rows []systems.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
	}
	c.Load(rows)

	// Capture the load-time mastership (the WAL only records changes).
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Selector().MasterOf(p)
	}

	// Drive cross-partition updates so mastership moves and commits land
	// at multiple sites.
	sess := c.Session(1)
	want := map[uint64]byte{}
	for i := 0; i < 40; i++ {
		a := uint64((i * 7) % 10)
		b := uint64((i*13 + 3) % 10)
		if a == b {
			continue
		}
		ws := []storage.RowRef{ref(a*100 + 5), ref(b*100 + 5)}
		v := byte(i + 1)
		if err := sess.Update(ws, func(tx systems.Tx) error {
			for _, r := range ws {
				if err := tx.Write(r, []byte{v}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want[a*100+5], want[b*100+5] = v, v
	}
	if c.Stats().Remasters == 0 {
		t.Fatal("workload did not exercise remastering")
	}
	finalMasters := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		finalMasters[p] = c.Selector().MasterOf(p)
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close() // "crash": all in-memory state gone; only the WALs remain

	// Restart: replay each site's own log, adopt recovered mastership,
	// and seed the fresh selector with it.
	owner := map[uint64]int{}
	c2, err := NewCluster(Config{
		Sites:       3,
		Partitioner: partitionBy100,
		WALDir:      dir,
		InitialMaster: func(p uint64) int {
			if s, ok := owner[p]; ok {
				return s
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	target := c2.Broker().LastUpdateSeqs()
	for _, s := range c2.Sites() {
		if err := s.Recover(0, target, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recovered := sitemgr.RecoverMastership(c2.Broker(), initial)
	for p, s := range recovered {
		owner[p] = s
	}
	for _, s := range c2.Sites() {
		s.AdoptMastership(recovered)
	}

	// Mastership matches the pre-crash state.
	for p := uint64(0); p < 10; p++ {
		if recovered[p] != finalMasters[p] {
			t.Errorf("partition %d recovered owner %d, want %d", p, recovered[p], finalMasters[p])
		}
	}

	// Every committed value is readable (catch up replicas first).
	for k, v := range want {
		data, ok := c2.Sites()[recovered[k/100]].ReadLocal(ref(k))
		if !ok || data[0] != v {
			t.Fatalf("key %d after recovery: %v %v, want %d", k, data, ok, v)
		}
	}

	// And the recovered cluster accepts new transactions on the recovered
	// mastership, including further remastering.
	sess2 := c2.Session(5)
	ws := []storage.RowRef{ref(105), ref(905)}
	if err := sess2.Update(ws, func(tx systems.Tx) error {
		for _, r := range ws {
			if err := tx.Write(r, []byte{0xEE}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Read(func(tx systems.Tx) error {
		data, ok := tx.Read(ref(105))
		if !ok || data[0] != 0xEE {
			return fmt.Errorf("post-recovery write unreadable: %v %v", data, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// A single crashed site rejoins by bootstrapping from a live replica and
// resuming replication.
func TestSingleSiteBootstrapRejoin(t *testing.T) {
	c := newTestCluster(t, 3)
	sess := c.Session(1)
	for i := 0; i < 20; i++ {
		k := uint64(i * 37 % 1000)
		if err := sess.Update([]storage.RowRef{ref(k)}, func(tx systems.Tx) error {
			return tx.Write(ref(k), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Build a replacement for site 2 from site 0's state.
	fresh, err := sitemgr.New(sitemgr.Config{
		SiteID:      2,
		Sites:       3,
		Broker:      c.Broker(),
		Partitioner: partitionBy100,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh.BootstrapFrom(c.Sites()[0])
	if !fresh.SVV().DominatesEq(c.Sites()[0].SVV()) {
		t.Fatalf("bootstrap vector %v behind donor %v", fresh.SVV(), c.Sites()[0].SVV())
	}
	// Spot-check data equality at the latest snapshot.
	for _, k := range []uint64{0, 37, 74} {
		want, okW := c.Sites()[0].ReadLocal(ref(k))
		got, okG := fresh.ReadLocal(ref(k))
		if okW != okG || (okW && string(want) != string(got)) {
			t.Fatalf("key %d differs after bootstrap: %v/%v vs %v/%v", k, want, okW, got, okG)
		}
	}
}

// Cluster.Recover performs the full recovery dance in one call.
func TestClusterRecoverConvenience(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(1), Data: []byte("init")}, {Ref: ref(101), Data: []byte("init")}})
	initial := map[uint64]int{0: c.Selector().MasterOf(0), 1: c.Selector().MasterOf(1)}
	sess := c.Session(1)
	if err := sess.Update([]storage.RowRef{ref(1), ref(101)}, func(tx systems.Tx) error {
		tx.Write(ref(1), []byte("a"))
		return tx.Write(ref(101), []byte("b"))
	}); err != nil {
		t.Fatal(err)
	}
	master := c.Selector().MasterOf(0)
	if err := c.WaitQuiesced(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	if got := c2.Selector().MasterOf(0); got != master {
		t.Fatalf("recovered master %d, want %d", got, master)
	}
	sess2 := c2.Session(2)
	if err := sess2.Read(func(tx systems.Tx) error {
		if d, ok := tx.Read(ref(1)); !ok || string(d) != "a" {
			return fmt.Errorf("recovered read %q %v", d, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The recovered cluster accepts writes on the recovered mastership.
	if err := sess2.Update([]storage.RowRef{ref(1)}, func(tx systems.Tx) error {
		return tx.Write(ref(1), []byte("post"))
	}); err != nil {
		t.Fatal(err)
	}
}

// Crash-restart after a site failover: the failed site's log still ends in
// a grant (it never released — it crashed), so mastership reconstruction
// must use the failover grants' higher epochs to decide that the heirs, not
// the dead site, own its partitions.
func TestCrashRestartAfterFailoverReconstructsMastership(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Sites: 3, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	var rows []systems.LoadRow
	for k := uint64(0); k < 1000; k++ {
		rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
	}
	c.Load(rows)
	initial := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		initial[p] = c.Selector().MasterOf(p)
	}

	// Some traffic, including cross-partition remastering.
	sess := c.Session(1)
	for i := 0; i < 10; i++ {
		ws := []storage.RowRef{ref(uint64(i*100 + 5)), ref(uint64((i+3)%10*100 + 5))}
		if err := sess.Update(ws, func(tx systems.Tx) error {
			for _, r := range ws {
				if err := tx.Write(r, []byte{byte(i + 1)}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Fail over a site that masters something.
	victim := -1
	for i := 0; i < 3; i++ {
		if len(c.Selector().MasteredBy(i)) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no site masters anything")
	}
	orphans := c.Selector().MasteredBy(victim)
	c.KillSite(victim)
	if err := c.Failover(victim); err != nil {
		t.Fatal(err)
	}

	// Post-failover writes to the moved partitions land on the heirs.
	for _, p := range orphans {
		key := ref(p * 100)
		if err := sess.Update([]storage.RowRef{key}, func(tx systems.Tx) error {
			return tx.Write(key, []byte{0xAB})
		}); err != nil {
			t.Fatalf("post-failover write to partition %d: %v", p, err)
		}
	}
	finalMasters := map[uint64]int{}
	for p := uint64(0); p < 10; p++ {
		finalMasters[p] = c.Selector().MasterOf(p)
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Restart everything (including the machine that died) from the logs.
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	if err := c2.Recover(initial); err != nil {
		t.Fatal(err)
	}
	// Recover returns once every site reached the captured log ends; wait
	// for full convergence anyway before auditing with fresh sessions (whose
	// empty version vectors would legally read older snapshots).
	if err := c2.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < 10; p++ {
		if got := c2.Selector().MasterOf(p); got != finalMasters[p] {
			t.Errorf("partition %d recovered master %d, want %d", p, got, finalMasters[p])
		}
	}
	for _, p := range orphans {
		if got := c2.Selector().MasterOf(p); got == victim {
			t.Errorf("partition %d reconstructed onto the failed site %d", p, victim)
		}
	}
	// Data written after the failover survives the restart.
	sess2 := c2.Session(9)
	for _, p := range orphans {
		key := ref(p * 100)
		if err := sess2.Read(func(tx systems.Tx) error {
			data, ok := tx.Read(key)
			if !ok || data[0] != 0xAB {
				return fmt.Errorf("partition %d: post-failover write lost: %v %v", p, data, ok)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// Regression for replay order across a remaster: a key written at one
// site, remastered, and written again at another must recover with the
// newest version on every site. The first site's last write depends on a
// commit of the second site (the session carries it), so its log entry can
// only be applied once the second site's own log is replayed; an own-log
// replay that skipped the Equation 1 gate installed the newer version
// first and let the older one land on top.
func TestRecoverRemasteredKeyReadsNewest(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		name := "full-redo"
		if checkpointed {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.CreateTable("kv")
			var rows []systems.LoadRow
			for k := uint64(0); k < 1000; k++ {
				rows = append(rows, systems.LoadRow{Ref: ref(k), Data: []byte{0}})
			}
			c.Load(rows)
			initial := captureInitial(c)
			sess := c.Session(1)
			write := func(v byte, keys ...uint64) {
				t.Helper()
				ws := make([]storage.RowRef, len(keys))
				for i, k := range keys {
					ws[i] = ref(k)
				}
				if err := sess.Update(ws, func(tx systems.Tx) error {
					for _, r := range ws {
						if err := tx.Write(r, []byte{v}); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// k and l live on site a, j on site b.
			k, a := uint64(5), c.Selector().MasterOf(0)
			var j, l uint64
			for p := uint64(1); p < 10; p++ {
				if c.Selector().MasterOf(p) != a {
					j = p*100 + 5
				} else {
					l = p*100 + 5
				}
			}
			if j == 0 || l == 0 {
				t.Fatal("need two partitions on site a and one on site b")
			}
			if checkpointed {
				write(1, k)
				write(1, j)
				if err := c.WaitQuiesced(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			// Load site a through l, so the balance feature moves k's
			// partition to b rather than j's to a.
			for v := byte(0); v < 20; v++ {
				write(v, l)
			}
			write(2, j) // at b
			write(3, k) // at a, depending on b's write
			v := byte(4)
			for ; c.Selector().MasterOf(0) == a; v++ {
				if v > 40 {
					t.Fatal("cross-partition writes never remastered k's partition")
				}
				write(v, k, j)
			}
			write(v, k) // at the new master
			if err := c.WaitQuiesced(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			liveRepl := replicationBytes(c)
			c.Close()

			c2, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			c2.CreateTable("kv")
			if err := c2.Recover(initial); err != nil {
				t.Fatal(err)
			}
			if st := c2.LastRecovery(); st.UsedCheckpoint != checkpointed {
				t.Fatalf("recovery used checkpoint = %v, want %v", st.UsedCheckpoint, checkpointed)
			}
			for _, s := range c2.Sites() {
				if data, ok := s.ReadLocal(ref(k)); !ok || data[0] != v {
					t.Fatalf("site %d reads key %d = %v %v after recovery, want %d", s.ID(), k, data, ok, v)
				}
			}
			if checkpointed {
				return
			}
			// A full redo replays every peer entry once per site, as the
			// live run shipped them, and each site's own log from disk: the
			// own-log replay is neither replication traffic nor refreshes.
			if got := replicationBytes(c2); got != liveRepl {
				t.Fatalf("recovery accounted %d replication bytes, the live run %d", got, liveRepl)
			}
			var refreshes uint64
			for _, s := range c2.Sites() {
				refreshes += s.Refreshes()
			}
			if st := c2.LastRecovery(); refreshes != st.ReplayedRefresh {
				t.Fatalf("sites counted %d refreshes, want the %d peer entries replayed (own entries %d)",
					refreshes, st.ReplayedRefresh, st.ReplayedOwn)
			}
		})
	}
}

func replicationBytes(c *Cluster) uint64 {
	return c.Network().Stats()[transport.CatReplication].Bytes
}

// A replay slower than the recovery deadline overall still succeeds while
// it keeps advancing: the deadline bounds a stall, not the replay.
func TestRecoverSlowReplayWithinStallDeadline(t *testing.T) {
	defer func(d time.Duration) { recoverTimeout = d }(recoverTimeout)
	recoverTimeout = 100 * time.Millisecond

	dir := t.TempDir()
	cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(5), Data: []byte{0}}})
	initial := captureInitial(c)
	sess := c.Session(1)
	const commits = 40
	for i := 1; i <= commits; i++ { // one epoch per commit
		if err := sess.Update([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
			return tx.Write(ref(5), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Every replayed epoch costs 10 ms, so the own-log replay alone takes
	// about 400 ms, four times the deadline.
	cfg.Costs = sitemgr.CostModel{RefreshBase: 10 * time.Millisecond}
	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	start := time.Now()
	if err := c2.Recover(initial); err != nil {
		t.Fatalf("Recover failed after %v: %v", time.Since(start), err)
	}
	if took := time.Since(start); took < 2*recoverTimeout {
		t.Fatalf("replay took %v, want longer than the %v deadline to exercise it", took, recoverTimeout)
	}
	for _, s := range c2.Sites() {
		if data, ok := s.ReadLocal(ref(5)); !ok || data[0] != commits {
			t.Fatalf("site %d reads %v %v after recovery, want %d", s.ID(), data, ok, commits)
		}
	}
}

// A cut peer log leaves an own-log entry whose dependency no log holds:
// Recover must fail within its deadline naming the stuck origin and
// sequence, and the stuck sites must stay down rather than resume their
// own commit sequence past the gap.
func TestRecoverFailsOnCutPeerLog(t *testing.T) {
	defer func(d time.Duration) { recoverTimeout = d }(recoverTimeout)
	recoverTimeout = 500 * time.Millisecond

	dir := t.TempDir()
	cfg := Config{Sites: 2, Partitioner: partitionBy100, WALDir: dir}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateTable("kv")
	c.Load([]systems.LoadRow{{Ref: ref(5), Data: []byte{0}}})
	initial := captureInitial(c)
	a := c.Selector().MasterOf(0)
	var j uint64
	for p := uint64(1); p < 10; p++ {
		if c.Selector().MasterOf(p) != a {
			j = p*100 + 5
			break
		}
	}
	if j == 0 {
		t.Fatal("every partition starts on one site")
	}
	b := c.Selector().MasterOf(j / 100)
	sess := c.Session(1)
	for i := 0; i < 8; i++ { // b's commits, each in its own epoch
		if err := sess.Update([]storage.RowRef{ref(j)}, func(tx systems.Tx) error {
			return tx.Write(ref(j), []byte{byte(i)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// a's commit depends on b's last one.
	if err := sess.Update([]storage.RowRef{ref(5)}, func(tx systems.Tx) error {
		return tx.Write(ref(5), []byte{9})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitQuiesced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	peer := filepath.Join(dir, fmt.Sprintf("site-%d.wal", b))
	st, err := os.Stat(peer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(peer, st.Size()/2); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.CreateTable("kv")
	start := time.Now()
	err = c2.Recover(initial)
	if took := time.Since(start); took > recoverTimeout+5*time.Second {
		t.Fatalf("Recover took %v with a %v deadline", took, recoverTimeout)
	}
	if err == nil {
		t.Fatal("Recover succeeded with a cut peer log")
	}
	if want := fmt.Sprintf("origin %d seq ", a); !strings.Contains(err.Error(), want) {
		t.Fatalf("Recover error %q does not name %q", err, want)
	}
	s := c2.Sites()[a]
	if end := c2.Broker().Log(a).LastUpdateSeq(); s.SVV()[a] >= end {
		t.Fatalf("site %d own sequence at %d, want below its unreplayable log end %d", a, s.SVV()[a], end)
	}
	if s.Alive() {
		t.Fatalf("site %d serves after a stalled replay", a)
	}
	if _, err := s.Begin(nil, []storage.RowRef{ref(5)}); !errors.Is(err, sitemgr.ErrSiteDown) {
		t.Fatalf("Begin on the stalled site = %v, want ErrSiteDown", err)
	}
}

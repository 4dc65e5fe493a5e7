package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynamast/internal/checkpoint"
	"dynamast/internal/obs"
	"dynamast/internal/sitemgr"
	"dynamast/internal/vclock"
)

// Checkpointing turns restart cost from O(log length) into O(suffix): a
// checkpoint captures every site's store at a consistent version vector,
// records where each site's redo replay must resume in every origin's log,
// and truncates the WAL prefix all sites' snapshots already cover. The
// capture order matters and is fixed here:
//
//  1. Every site exports its store at its own current svv (parallel;
//     writers are never blocked — see storage.Store.ExportAt).
//  2. Replay offsets are derived: Offsets[s][o] is the first update in
//     origin o's log past SVVs[s][o].
//  3. Fold offsets — each origin's log end — are captured BEFORE the
//     placement snapshot, so every mastership change that races the
//     capture lands in the folded suffix; re-folding a change the
//     placement already reflects is idempotent.
//  4. The selector's placement is snapshotted with per-partition install
//     epochs (serialized against in-flight remaster chains by the
//     partition locks).
//  5. The manifest is committed by an atomic rename; only then is the WAL
//     low-water advanced and the dead prefix truncated.
//
// One known benign race: a failover grant appends its log entry before the
// selector map updates, so a capture in that window can snapshot the
// pre-failover owner. The grant is then in the folded suffix under its
// fresh epoch and wins the fold — recovery still converges on a single
// consistent owner (see DESIGN.md).

// checkpointsToKeep bounds disk usage: the newest checkpoint plus one
// fallback survive garbage collection.
const checkpointsToKeep = 2

// RecoveryStats describes what the last Cluster.Recover run did.
type RecoveryStats struct {
	// UsedCheckpoint is false when recovery degraded to full redo replay.
	UsedCheckpoint bool
	// Seq is the recovered checkpoint's sequence (0 for full replay).
	Seq uint64
	// RowsRestored counts snapshot rows installed across sites.
	RowsRestored uint64
	// ReplayedOwn counts the update transactions sites replayed from their
	// own logs: per site, its own log end minus the sequence its snapshot
	// covered (exactly the post-checkpoint commit suffix).
	ReplayedOwn uint64
	// ReplayedRefresh counts, the same way, the other origins' update
	// transactions sites replayed past their snapshots.
	ReplayedRefresh uint64
	// Duration is Recover's wall time.
	Duration time.Duration
}

// LastRecovery returns stats for the most recent Recover call.
func (c *Cluster) LastRecovery() RecoveryStats {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	return c.lastRecovery
}

// Checkpoint takes one checkpoint now and returns its manifest. Safe to
// call concurrently with transaction traffic (runs serialize; writers are
// never blocked) and concurrently with Close (a checkpoint racing shutdown
// either commits its manifest atomically or is discarded whole).
func (c *Cluster) Checkpoint() (*checkpoint.Manifest, error) {
	if c.cfg.WALDir == "" {
		return nil, fmt.Errorf("core: checkpointing requires Config.WALDir")
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	if c.closing.Load() {
		return nil, fmt.Errorf("core: cluster is closing")
	}
	start := time.Now()
	m, err := c.checkpointLocked()
	if err != nil {
		c.obCkptFails.Inc()
		return nil, err
	}
	c.obCkpts.Inc()
	for _, info := range m.Snapshots {
		c.obCkptBytes.Add(info.Bytes)
	}
	c.ckptDur.ObserveDuration(time.Since(start))
	return m, nil
}

func (c *Cluster) checkpointLocked() (*checkpoint.Manifest, error) {
	root := c.cfg.WALDir
	seq := checkpoint.NextSeq(root)
	dir := checkpoint.Dir(root, seq)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := len(c.sites)
	m := &checkpoint.Manifest{
		Seq:       seq,
		TakenAt:   time.Now(),
		Sites:     n,
		SVVs:      make([]vclock.Vector, n),
		Offsets:   make([][]uint64, n),
		LowWater:  make([]uint64, n),
		Snapshots: make([]checkpoint.SnapshotInfo, n),
	}

	// 1. Parallel per-site export, each at the site's own current svv.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func(i int, s *sitemgr.Site) {
			defer wg.Done()
			w, err := checkpoint.CreateSnapshot(filepath.Join(dir, checkpoint.SnapshotName(i)))
			if err != nil {
				errs[i] = err
				return
			}
			svv, err := s.WriteSnapshot(w)
			if err != nil {
				w.Abort()
				errs[i] = err
				return
			}
			info, err := w.Close()
			if err != nil {
				errs[i] = err
				return
			}
			m.SVVs[i], m.Snapshots[i] = svv, info
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("core: checkpoint export: %w", err)
		}
	}

	// 2. Replay offsets; LowWater[o] is the prefix every snapshot covers.
	for s := 0; s < n; s++ {
		m.Offsets[s] = make([]uint64, n)
		for o := 0; o < n; o++ {
			m.Offsets[s][o] = c.broker.Log(o).FirstUpdateOffsetAfter(m.SVVs[s][o])
		}
	}
	for o := 0; o < n; o++ {
		lw := m.Offsets[0][o]
		for s := 1; s < n; s++ {
			if m.Offsets[s][o] < lw {
				lw = m.Offsets[s][o]
			}
		}
		m.LowWater[o] = lw
	}

	// 3+4. Fold offsets strictly before the placement snapshot.
	m.FoldOffsets = make([]uint64, n)
	for o := 0; o < n; o++ {
		m.FoldOffsets[o] = c.broker.Log(o).Len()
	}
	m.Placement, m.PlacementEpochs = c.group.PlacementSnapshot()
	m.ReplicaSets = c.group.PlacementTable()
	m.MaxEpoch = c.group.CurrentEpoch()
	for _, e := range m.PlacementEpochs {
		if e > m.MaxEpoch {
			m.MaxEpoch = e
		}
	}

	// 5. Commit point. A shutdown racing this rename gets either a fully
	// committed checkpoint or none; after the closing flag is up, discard
	// rather than commit so Close never waits on truncation I/O.
	if c.closing.Load() {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("core: checkpoint abandoned: cluster is closing")
	}
	if err := checkpoint.WriteManifest(dir, m); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("core: checkpoint commit: %w", err)
	}

	// GC superseded checkpoints, then truncate the WAL prefixes. The
	// truncation floor is the minimum low-water across the checkpoints that
	// SURVIVE GC, not just this one's: a retained fallback checkpoint must
	// keep its whole replay suffix in the log, or falling back to it after
	// the newest checkpoint corrupts would leave an unfillable gap.
	if seq > checkpointsToKeep {
		for _, old := range checkpoint.List(root) {
			if old.Seq <= seq-checkpointsToKeep {
				_ = checkpoint.Remove(root, old.Seq)
			}
		}
	}
	floor := append([]uint64(nil), m.LowWater...)
	for _, kept := range checkpoint.List(root) {
		if kept.Sites != n {
			continue
		}
		for o := 0; o < n; o++ {
			if kept.LowWater[o] < floor[o] {
				floor[o] = kept.LowWater[o]
			}
		}
	}
	for o := 0; o < n; o++ {
		if _, err := c.broker.Log(o).SetLowWater(floor[o]); err != nil {
			// The checkpoint is committed; failed truncation only costs disk.
			fmt.Fprintf(os.Stderr, "core: wal truncation (site %d): %v\n", o, err)
		}
	}
	return m, nil
}

// checkpointLoop is the background checkpointer: a checkpoint fires every
// `every`, or sooner once `everyRecords` new WAL records have accumulated.
func (c *Cluster) checkpointLoop(every time.Duration, everyRecords uint64) {
	defer c.ckptWG.Done()
	poll := every
	if everyRecords > 0 {
		if poll == 0 || poll > 50*time.Millisecond {
			poll = 50 * time.Millisecond
		}
	}
	totalLen := func() uint64 {
		var t uint64
		for o := 0; o < len(c.sites); o++ {
			t += c.broker.Log(o).Len()
		}
		return t
	}
	lastLen := totalLen()
	lastAt := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-c.ckptStop:
			return
		case <-ticker.C:
		}
		due := every > 0 && time.Since(lastAt) >= every
		if !due && everyRecords > 0 {
			due = totalLen()-lastLen >= everyRecords
		}
		if !due {
			continue
		}
		if _, err := c.Checkpoint(); err != nil {
			if c.closing.Load() {
				return
			}
			fmt.Fprintf(os.Stderr, "core: background checkpoint: %v\n", err)
		}
		lastLen, lastAt = totalLen(), time.Now()
	}
}

// verifyCheckpoint CRC-walks every snapshot file against the manifest
// before anything is installed, so recovery never half-installs a corrupt
// checkpoint and then has to fall back over poisoned state.
func (c *Cluster) verifyCheckpoint(m *checkpoint.Manifest) error {
	if m.Sites != len(c.sites) {
		return fmt.Errorf("checkpoint has %d sites, cluster has %d", m.Sites, len(c.sites))
	}
	dir := checkpoint.Dir(c.cfg.WALDir, m.Seq)
	for i := range c.sites {
		if err := checkpoint.VerifySnapshot(filepath.Join(dir, checkpoint.SnapshotName(i)), m.Snapshots[i]); err != nil {
			return err
		}
	}
	return nil
}

// recoverTimeout is how long Recover waits for a site's replay to make
// progress toward the log ends captured when it starts before it gives up;
// a replay that keeps advancing may take longer overall.
var recoverTimeout = time.Minute

// recover implements Cluster.Recover as one sequence: restore the newest
// verified checkpoint's snapshots if there is one, then replay every log
// from the manifest's offsets (or from 0 without a checkpoint) through the
// sites' appliers, then fold mastership.
func (c *Cluster) recover(initialPlacement map[uint64]int) error {
	start := time.Now()
	var st RecoveryStats

	var m *checkpoint.Manifest
	if c.cfg.WALDir != "" {
		for _, cand := range checkpoint.List(c.cfg.WALDir) {
			if err := c.verifyCheckpoint(cand); err != nil {
				fmt.Fprintf(os.Stderr, "core: recovery skipping checkpoint %d: %v\n", cand.Seq, err)
				continue
			}
			m = cand
			break
		}
	}

	// The replay target: every origin's log end as recovery starts.
	target := c.broker.LastUpdateSeqs()
	seedP := make(map[uint64]int, len(initialPlacement))
	seedE := make(map[uint64]uint64)
	for p, site := range initialPlacement {
		seedP[p] = site
	}
	var foldOffsets []uint64
	var maxEpoch uint64
	if m != nil {
		st.UsedCheckpoint, st.Seq = true, m.Seq
		// Partial replication: fold replica-set membership to the capture
		// before replay, so the appliers filter with the membership the
		// snapshots were taken under. Adds and drops after the capture are
		// not journaled; the master-hosting reconciliation below redoes lost
		// adds that matter, and lost drops merely resurrect a replica the
		// controller can re-drop.
		if c.group.PartialPlacement() && len(m.ReplicaSets) > 0 {
			c.group.AdoptReplicaSets(m.ReplicaSets)
			for i, s := range c.sites {
				hosted := make(map[uint64]bool, len(m.ReplicaSets))
				for p, set := range m.ReplicaSets {
					hosted[p] = hostedIn(set, i)
				}
				s.AdoptHosting(hosted)
			}
		}
		for p, site := range m.Placement {
			seedP[p] = site
			seedE[p] = m.PlacementEpochs[p]
		}
		foldOffsets, maxEpoch = m.FoldOffsets, m.MaxEpoch
	}

	// Per site: restore the snapshot if there is one, then replay.
	var rows atomic.Uint64
	errs := make([]error, len(c.sites))
	var wg sync.WaitGroup
	for i, s := range c.sites {
		wg.Add(1)
		go func(i int, s *sitemgr.Site) {
			defer wg.Done()
			var ownFrom uint64
			if m != nil {
				snap := filepath.Join(checkpoint.Dir(c.cfg.WALDir, m.Seq), checkpoint.SnapshotName(i))
				nr, err := s.RestoreSnapshot(snap, m.SVVs[i])
				if err != nil {
					errs[i] = fmt.Errorf("core: restore site %d: %w", i, err)
					return
				}
				rows.Add(nr)
				ownFrom = m.Offsets[i][i]
			}
			errs[i] = s.Recover(ownFrom, target, recoverTimeout)
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("core: recovery: %w", err)
	}
	st.RowsRestored = rows.Load()
	// Replay counts follow from the dense log sequences: each site replayed
	// every origin's entries between its snapshot's vector and the target.
	for i := range c.sites {
		for o, want := range target {
			var from uint64
			if m != nil {
				from = m.SVVs[i][o]
			}
			if want <= from {
				continue
			}
			if o == i {
				st.ReplayedOwn += want - from
			} else {
				st.ReplayedRefresh += want - from
			}
		}
	}

	owner, foldEpoch := sitemgr.RecoverMastershipFrom(c.broker, seedP, seedE, foldOffsets)
	if foldEpoch > maxEpoch {
		maxEpoch = foldEpoch
	}

	// Epochs allocated after recovery must out-fence everything logged
	// before the crash, or stale pre-crash grants could win arbitration
	// against fresh remaster chains.
	c.group.BumpEpoch(maxEpoch)
	for _, s := range c.sites {
		s.AdoptMastership(owner)
	}
	for p, site := range owner {
		c.group.RegisterPartitionEpoch(p, site, maxEpoch)
	}
	// Partial replication: a master must host what it masters. Mastership
	// folds from the WAL (grants are journaled) but membership folds to the
	// checkpoint capture (adds are not), so a partition granted after the
	// capture can recover with its master outside the hosting set. Re-add
	// the copy before traffic routes there.
	if c.group.PartialPlacement() {
		for p, site := range owner {
			if site >= 0 && site < len(c.sites) && !c.sites[site].Hosts(p) {
				if err := c.AddReplica(p, site); err != nil {
					return fmt.Errorf("core: recovery replica add (partition %d at site %d): %w", p, site, err)
				}
			}
		}
	}

	st.Duration = time.Since(start)
	c.obReplayed.Add(st.ReplayedOwn + st.ReplayedRefresh)
	c.recoverDur.ObserveDuration(st.Duration)
	c.ckptMu.Lock()
	c.lastRecovery = st
	c.ckptMu.Unlock()
	obs.RecordEvent(obs.FlightRecovery, obs.SelectorSite,
		"recovered in %v: checkpoint=%v rows=%d replayed own=%d refresh=%d",
		st.Duration.Round(time.Millisecond), st.UsedCheckpoint, st.RowsRestored, st.ReplayedOwn, st.ReplayedRefresh)
	if _, err := obs.SnapshotFlight("recovery"); err != nil {
		fmt.Fprintf(os.Stderr, "core: flight snapshot after recovery: %v\n", err)
	}
	return nil
}

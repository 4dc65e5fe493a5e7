package sitemgr

import (
	"fmt"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Recovery (§V-C). DynaMast uses redo logging: on commit the write set is
// appended to the site's durable log, which doubles as the replication
// feed. A data site recovers by initializing state from an existing replica
// and replaying redo logs from the positions indicated by the site version
// vector; mastership state is reconstructed from the sequence of release
// and grant operations in the logs.

// BootstrapFrom copies a peer replica's newest committed versions and
// version vector into this (empty) site. The refresh appliers started
// afterwards skip entries already reflected in the adopted vector.
func (s *Site) BootstrapFrom(peer *Site) {
	// As in RestoreSnapshot, fence the background appliers for the whole
	// copy + clock adoption: a refresh entry older than a copied row must
	// not be installed over it after the copy lands.
	s.lockAppliers()
	defer s.unlockAppliers()
	peerVV := peer.clock.Now()
	for _, name := range peer.store.TableNames() {
		src := peer.store.Table(name)
		s.store.CreateTable(name)
		src.ForEachLatest(func(key uint64, data []byte, stamp storage.Stamp) {
			if s.hosting != nil && !s.Hosts(s.cfg.Partitioner(storage.RowRef{Table: name, Key: key})) {
				return
			}
			s.store.ImportRowSuperseding(name, key, data, stamp, peerVV)
		})
	}
	for k, v := range peerVV {
		s.clock.Advance(k, v)
	}
	s.nextSeq.Store(peerVV[s.id])
}

// Recover brings a restarted site up to target, each origin's last logged
// update sequence captured when recovery started. It replays the site's
// own log from offset ownFrom (a checkpoint manifest's replay position; 0 =
// the whole retained log) to the log's current end with the same applier —
// Equation 1 gate, then install — that the refresh appliers started by
// Start run over every other origin's log, so an own entry installs only
// after the remote versions it depends on. It waits until the site clock
// reaches target. If the clock makes no progress for stall, it kills the
// site and returns an error naming the first origin and sequence replay
// could not reach: a site whose replay stopped short must not serve, since
// its own commit sequence may resume only after a complete replay. A long
// replay that keeps advancing is never cut off.
func (s *Site) Recover(ownFrom uint64, target vclock.Vector, stall time.Duration) error {
	s.wg.Add(1)
	go s.applyLoop(s.id, ownFrom, s.log.Len())
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	progress, deadline := s.clock.Now().Sum(), time.Now().Add(stall)
	for now := s.clock.Now(); !now.DominatesEq(target); now = s.clock.Now() {
		if sum := now.Sum(); sum != progress {
			progress, deadline = sum, time.Now().Add(stall)
		} else if time.Now().After(deadline) {
			for o, want := range target {
				if now[o] < want {
					s.Kill()
					return fmt.Errorf("sitemgr: site %d recovery stalled: origin %d seq %d not applied (log ends at seq %d)",
						s.id, o, now[o]+1, want)
				}
			}
		}
		select {
		case <-s.stopped:
			return ErrSiteDown
		case <-tick.C:
		}
	}
	if own := s.clock.Get(s.id); s.nextSeq.Load() < own {
		s.nextSeq.Store(own)
	}
	return nil
}

// RecoverMastership reconstructs partition ownership by folding the
// release/grant entries of every site's log over an initial placement.
// Entries are merged in a deterministic interleaving: mastership of a
// partition alternates release -> grant, and each grant names the releasing
// peer, so replaying each log in order and matching grant entries to their
// releases yields the final owner of every partition.
func RecoverMastership(b *wal.Broker, initial map[uint64]int) map[uint64]int {
	return FoldMastership(b, initial).Owner
}

// MastershipFold is the outcome of folding every site's release/grant log
// records: the reconstructed owner and the epoch of the winning grant per
// partition, plus the transfers that were cut in half by a coordinator
// crash (release logged, grant never executed).
type MastershipFold struct {
	// Owner is the reconstructed master per partition (last grant wins,
	// epoch-arbitrated; see RecoverMastership).
	Owner map[uint64]int
	// Epoch is the epoch of the grant that installed Owner (0 when the
	// owner comes from the initial placement or an unfenced grant).
	Epoch map[uint64]uint64
	// Dangling maps partitions whose highest-epoch operation is a RELEASE
	// to the releasing site: the grant leg of that transfer never executed
	// anywhere, so the releasing site — which still holds the data and the
	// freshest applied state — has surrendered ownership into the void. A
	// promoted selector repairs these by re-granting to the releaser under
	// a fresh epoch.
	Dangling map[uint64]int
	// MaxEpoch is the highest epoch observed in any folded record; a
	// recovered or promoted coordinator's allocator must start above it.
	MaxEpoch uint64
}

// FoldMastership is RecoverMastership exposing the full fold: per-partition
// winning epochs and dangling releases. The fold only sees the retained log
// suffixes — checkpoint truncation can have dropped old grant records — so
// callers holding fresher metadata (a standby's mirrored map) must overlay
// it, keeping whichever source carries the higher epoch per partition.
func FoldMastership(b *wal.Broker, initial map[uint64]int) MastershipFold {
	f := MastershipFold{
		Owner:    make(map[uint64]int, len(initial)),
		Epoch:    make(map[uint64]uint64),
		Dangling: make(map[uint64]int),
	}
	for p, site := range initial {
		f.Owner[p] = site
	}
	// Count grants per (partition, site): the last grant in any log for a
	// partition determines its owner. Logs are per-site FIFO; a partition
	// is granted to site g only after g's predecessor released it, so for
	// each partition the grant entries across logs form a chain and the
	// chain's tail is normally the unique grant not followed by a release
	// of the same partition in the same site's log. A site failover breaks
	// that uniqueness — the dead site's log still ends in a grant because
	// it never released — so when several sites end in granted state the
	// remaster epoch arbitrates: the failover (or any later transfer) ran
	// under a strictly higher epoch than every earlier grant.
	type lastOp struct {
		granted bool
		epoch   uint64
	}
	state := make(map[uint64]map[int]lastOp) // partition -> site -> last op
	for i := 0; i < b.Sites(); i++ {
		cur := b.Log(i).Subscribe(0)
		for {
			e, ok := cur.TryNext()
			if !ok {
				cur.Close()
				break
			}
			switch e.Kind {
			case wal.KindGrant, wal.KindRelease:
				if e.Epoch > f.MaxEpoch {
					f.MaxEpoch = e.Epoch
				}
				for _, p := range e.Partitions {
					m := state[p]
					if m == nil {
						m = make(map[int]lastOp)
						state[p] = m
					}
					m[i] = lastOp{granted: e.Kind == wal.KindGrant, epoch: e.Epoch}
				}
			}
		}
	}
	for p, sites := range state {
		best, bestEpoch := -1, uint64(0)
		relSite, relEpoch, released := -1, uint64(0), false
		for site := 0; site < b.Sites(); site++ {
			op, ok := sites[site]
			if !ok {
				continue
			}
			if op.granted {
				if best < 0 || op.epoch > bestEpoch {
					best, bestEpoch = site, op.epoch
				}
			} else if !released || op.epoch > relEpoch {
				relSite, relEpoch, released = site, op.epoch, true
			}
		}
		if best >= 0 {
			f.Owner[p] = best
			f.Epoch[p] = bestEpoch
		}
		// A release strictly out-epoching every grant (or with no grant at
		// all) is a transfer whose grant leg is missing from every log.
		if released && (best < 0 || relEpoch > bestEpoch) {
			f.Dangling[p] = relSite
		}
	}
	return f
}

// RecoverMastershipFrom reconstructs partition ownership from a checkpoint:
// the manifest's placement snapshot seeds the map, and only the log
// suffixes at or past foldOffsets (each origin's log end when the placement
// was captured) are folded on top. A suffix grant overrides the placement
// only under a strictly higher epoch than the one that installed the
// placement entry — sites fence stale-epoch remaster ops, so every
// post-capture grant satisfies this, while the strict comparison keeps a
// replayed copy of the placement-installing grant from flapping ownership.
// Ties among suffix grants break deterministically by site order, matching
// RecoverMastership. The second result is the highest epoch observed
// anywhere (placement or suffix): the recovered selector's epoch counter
// must start above it.
func RecoverMastershipFrom(b *wal.Broker, placement map[uint64]int, placementEpochs map[uint64]uint64, foldOffsets []uint64) (map[uint64]int, uint64) {
	owner := make(map[uint64]int, len(placement))
	for p, site := range placement {
		owner[p] = site
	}
	var maxEpoch uint64
	for _, e := range placementEpochs {
		if e > maxEpoch {
			maxEpoch = e
		}
	}
	type lastOp struct {
		granted bool
		epoch   uint64
	}
	state := make(map[uint64]map[int]lastOp)
	for i := 0; i < b.Sites(); i++ {
		var from uint64
		if i < len(foldOffsets) {
			from = foldOffsets[i]
		}
		cur := b.Log(i).Subscribe(from)
		for {
			e, ok := cur.TryNext()
			if !ok {
				cur.Close()
				break
			}
			if e.Kind != wal.KindGrant && e.Kind != wal.KindRelease {
				continue
			}
			if e.Epoch > maxEpoch {
				maxEpoch = e.Epoch
			}
			for _, p := range e.Partitions {
				m := state[p]
				if m == nil {
					m = make(map[int]lastOp)
					state[p] = m
				}
				m[i] = lastOp{granted: e.Kind == wal.KindGrant, epoch: e.Epoch}
			}
		}
	}
	for p, sites := range state {
		best, bestEpoch := -1, uint64(0)
		if site, ok := placement[p]; ok {
			best, bestEpoch = site, placementEpochs[p]
		}
		for site := 0; site < b.Sites(); site++ {
			op, ok := sites[site]
			if !ok || !op.granted {
				continue
			}
			if best < 0 || op.epoch > bestEpoch {
				best, bestEpoch = site, op.epoch
			}
		}
		if best >= 0 {
			owner[p] = best
		}
	}
	return owner, maxEpoch
}

// AdoptMastership installs an ownership map (produced by
// RecoverMastership) into this site.
func (s *Site) AdoptMastership(owner map[uint64]int) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for p, site := range owner {
		st := s.partition(p)
		st.owned = site == s.id
		st.releasing = false
	}
	s.pcond.Broadcast()
}

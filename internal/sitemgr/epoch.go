package sitemgr

import (
	"sync"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
	"dynamast/internal/wal"
)

// Epoch-based group commit. With Config.EpochInterval > 0, a site stops
// paying per-transaction synchronization on its commit path: transactions
// install their writes and enter the epoch buffer, and a sealer seals the
// buffer every interval with ONE log append (the WAL's group-commit leader
// then flushes the whole epoch in one write), ONE site-vector advance
// covering every member, and ONE coalesced replication record per
// destination (KindEpoch). Until the seal, members are visible only to
// local snapshots — Begin extends a snapshot's self dimension to the
// installed watermark — so remote sites, checkpoints, and the svv only ever
// observe epoch boundaries.
//
// Correctness hinges on two orderings:
//
//   - Seals are serialized (sealMu) and each advances the svv to its last
//     member, so the site's log remains per-origin FIFO and seq-dense, which
//     is what lets a replica gate a whole epoch with one CanApplyEpoch check.
//   - An epoch never spans a mastership fence: Release and Grant force a
//     seal before appending their own log record, and Kill force-seals after
//     a commit barrier, so acked commits are never stranded in a dead
//     site's buffer (the paper's failure model keeps the logs).
//
// SSSI session guarantees bound the epoch length, not correctness: a
// session's read-your-writes at the origin site is served from the extended
// snapshot without waiting for the seal (Begin clamps the self dimension of
// its freshness wait), and cross-site freshness waits resolve within one
// interval plus propagation.

// DefaultEpochInterval is the seal interval core clusters use when epochs
// are enabled without an explicit interval.
const DefaultEpochInterval = time.Millisecond

// epochState is a site's current (unsealed) commit epoch.
type epochState struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes file-backed commits waiting on their seal

	txns     []wal.EpochTxn // members in commit order
	spare    []wal.EpochTxn // drained buffer from the previous seal
	closing  vclock.Vector  // running element-wise max of member tvvs
	firstSeq uint64         // first member's local commit sequence

	sealedSeq uint64 // highest commit sequence a completed seal covers
	sealErr   error  // sticky: a failed seal append poisons the commit path
}

// epochOn reports whether the site batches commits into epochs.
func (s *Site) epochOn() bool { return s.cfg.EpochInterval > 0 }

// extendSnap folds the installed watermark into a snapshot's self dimension:
// locally committed members of the current epoch are visible to local
// snapshots before the seal publishes them. Only a site's own snapshots can
// carry its mid-epoch sequences — every cross-site surface (refresh
// application, grants, checkpoints) reads the sealed svv — which is why
// per-epoch dependency checks at replicas stay sound.
func (s *Site) extendSnap(v vclock.Vector) {
	if !s.epochOn() || s.id >= len(v) {
		return
	}
	if inst := s.installed.Load(); inst > v[s.id] {
		v[s.id] = inst
	}
}

// clampFreshnessWait rewrites a Begin freshness wait so a session's
// read-your-writes never waits for the seal at the origin site: when the
// requested self dimension is already installed locally (it came from this
// site's own extended snapshots), the wait drops it — the extended begin
// snapshot will serve the data. Cross-origin dimensions are untouched.
func (s *Site) clampFreshnessWait(minVV vclock.Vector) vclock.Vector {
	if !s.epochOn() || s.id >= len(minVV) {
		return minVV
	}
	want := minVV[s.id]
	if want <= s.clock.Get(s.id) || want > s.installed.Load() {
		return minVV
	}
	w := minVV.Clone()
	w[s.id] = s.clock.Get(s.id)
	return w
}

// InstalledSeq returns the highest locally installed commit sequence,
// including epoch-buffered commits the sealer has not yet published into
// the svv. Quiescence checks target this: an acked commit counts as work
// the cluster still owes its replicas even before its epoch seals.
func (s *Site) InstalledSeq() uint64 {
	if seq := s.installed.Load(); seq > s.clock.Get(s.id) {
		return seq
	}
	return s.clock.Get(s.id)
}

// sealerLoop seals the epoch buffer every interval. A final drain on stop
// keeps durability waiters from hanging: if the log already closed, the
// failed append surfaces as the sticky seal error and wakes them.
func (s *Site) sealerLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopped:
			_ = s.SealEpoch()
			return
		case <-t.C:
			_ = s.SealEpoch()
		}
	}
}

// SealEpoch seals the current epoch buffer, if non-empty: one KindEpoch log
// append carrying every buffered commit, then one svv advance to the last
// member's sequence. Seals serialize on sealMu; commits keep buffering into
// the next epoch while the append (and its group-commit flush) runs.
// A no-op returning the sticky seal error when the buffer is empty.
func (s *Site) SealEpoch() error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()

	ep := &s.ep
	ep.mu.Lock()
	if len(ep.txns) == 0 {
		err := ep.sealErr
		ep.mu.Unlock()
		return err
	}
	txns := ep.txns
	closing := ep.closing
	first := ep.firstSeq
	ep.txns = ep.spare[:0]
	ep.spare = nil
	ep.closing = nil
	ep.mu.Unlock()

	last := first + uint64(len(txns)) - 1
	closing[s.id] = last
	e := wal.Entry{
		Kind:   wal.KindEpoch,
		Origin: s.id,
		TVV:    closing,
		Txns:   txns,
	}

	sealStart := time.Now()
	_, err := s.log.Append(e)
	if err == nil {
		s.clock.Advance(s.id, last)
	}
	s.ob.epochSealDur.ObserveDuration(time.Since(sealStart))

	ep.mu.Lock()
	if err != nil {
		if ep.sealErr == nil {
			ep.sealErr = err
		}
	} else {
		ep.sealedSeq = last
	}
	ep.cond.Broadcast()
	ep.mu.Unlock()
	if err != nil {
		return err
	}

	s.ob.epochSeals.Inc()
	s.ob.epochTxns.Add(uint64(len(txns)))
	// Byte savings vs the per-transaction frames these members would have
	// shipped as (the pre-epoch replication accounting formula), against the
	// coalesced record's actual encoded size.
	perTxn := 0
	for i := range txns {
		perTxn += transport.MsgOverhead +
			transport.SizeOfVector(txns[i].TVV) + transport.SizeOfWrites(txns[i].Writes)
	}
	if actual := transport.MsgOverhead + wal.EntryWireSize(&e); perTxn > actual {
		s.ob.epochBytesSaved.Add(uint64(perTxn - actual))
	}

	// The drained members now live in the log entry; recycle only the slice
	// header capacity for the next epoch.
	ep.mu.Lock()
	if ep.spare == nil {
		ep.spare = make([]wal.EpochTxn, 0, cap(txns))
	}
	ep.mu.Unlock()
	return nil
}

// waitSealed blocks until a seal covering seq completes (file-backed
// durability for an epoch-mode commit) and returns the sticky seal error.
func (s *Site) waitSealed(seq uint64) error {
	ep := &s.ep
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for ep.sealedSeq < seq && ep.sealErr == nil {
		ep.cond.Wait()
	}
	return ep.sealErr
}

// bufferEpochTxn installs a commit into the current epoch. Caller holds
// commitMu (which orders members by sequence) and has already installed the
// writes; the member becomes locally visible through the installed
// watermark and globally visible at the next seal.
func (s *Site) bufferEpochTxn(seq uint64, tvv vclock.Vector, at time.Time, writes []storage.Write) {
	s.installed.Store(seq)
	ep := &s.ep
	ep.mu.Lock()
	if len(ep.txns) == 0 {
		ep.firstSeq = seq
	}
	ep.txns = append(ep.txns, wal.EpochTxn{TVV: tvv, At: at, Writes: writes})
	ep.closing = ep.closing.MaxInto(tvv)
	ep.mu.Unlock()
}

// applyEpoch applies one sealed epoch from origin as a single refresh unit:
// one propagation gate, one CanApplyEpoch dependency wait (the closing
// vector dominates every member's dependencies; see vclock.CanApplyEpoch),
// one apply-pool slot, one replication-byte account of the coalesced frame,
// and one svv advance after the members install. The site's own epochs
// (recovery replay) are installed without the replication and refresh
// accounting. Returns false when the site stopped.
func (s *Site) applyEpoch(origin int, e *wal.Entry) bool {
	remote := origin != s.id
	if len(e.Txns) == 0 {
		return true
	}
	last := e.TVV[origin]
	if last <= s.clock.Get(origin) {
		return true // already applied (restore/bootstrap overlap)
	}
	if d := s.cfg.PropagationDelay; d > 0 {
		if age := time.Since(e.At); age < d {
			if !s.sleep(d - age) {
				return false
			}
		}
	}
	first := e.FirstSeq()
	s.clock.WaitDimAtLeast(origin, first-1)
	for k, want := range e.TVV {
		if k != origin && want > 0 {
			s.clock.WaitDimAtLeast(k, want)
		}
	}
	// The waits return unconditionally once the site stops; never install an
	// epoch whose dependencies were not actually satisfied.
	select {
	case <-s.stopped:
		return false
	default:
	}
	if s.hosting == nil && remote {
		s.net.Account(transport.CatReplication, transport.MsgOverhead+wal.EntryWireSize(e))
	}
	applyStart := time.Now()
	var applied uint64
	var fTxns []wal.EpochTxn
	s.applyPool.do(func() time.Duration {
		s.applyMu[origin].Lock()
		base := s.clock.Get(origin)
		var nWrites int
		for j := range e.Txns {
			seq := first + uint64(j)
			if seq <= base {
				continue // a snapshot restore or bootstrap already covered this member
			}
			t := &e.Txns[j]
			writes := t.Writes
			if s.hosting != nil {
				// Per-destination epoch filtering: install (and charge) only
				// the member writes this site hosts; the clock still covers
				// every member (dense svv, see hosting.go).
				writes = s.filterHosted(writes)
				if len(writes) > 0 {
					fTxns = append(fTxns, wal.EpochTxn{TVV: t.TVV, At: t.At, Writes: writes})
				}
			}
			s.store.Apply(storage.Stamp{Origin: origin, Seq: seq}, writes)
			s.bumpWatermarks(writes, t.TVV)
			applied++
			nWrites += len(writes)
		}
		if last > base {
			s.clock.Advance(origin, last)
		}
		s.applyMu[origin].Unlock()
		if s.hosting != nil && remote && applied > 0 {
			// One filtered coalesced frame: the site receives the same
			// delta-encoded epoch format carrying only the members whose
			// writes it hosts. Fully filtered members need no vector on the
			// wire — the dense svv advances by the member count, and the
			// closing vector (in the envelope) covers the dependency gate.
			// Pricing it through EntryWireSize keeps the partial- and
			// full-replication accounting byte-comparable.
			f := *e
			f.Txns = fTxns
			s.net.Account(transport.CatReplication,
				transport.MsgOverhead+wal.EntryWireSize(&f))
		}
		if s.cfg.Costs.Zero() || applied == 0 {
			return 0
		}
		// One refresh-transaction base for the whole epoch: the coalesced
		// record is applied as one refresh unit.
		return s.cfg.Costs.RefreshBase + time.Duration(nWrites)*s.cfg.Costs.PerRefreshWrite
	})
	if !remote {
		return true
	}
	s.refreshes.Add(applied)
	s.ob.refreshBatches.Inc()
	s.ob.refreshApply.ObserveDuration(time.Since(applyStart))
	now := time.Now()
	for j := range e.Txns {
		t := &e.Txns[j]
		lag := now.Sub(t.At)
		s.ob.refreshes.Inc()
		s.ob.refreshLag.ObserveDuration(lag)
		s.ob.lastLag.Set(lag.Seconds())
		s.ob.refreshStage.ObserveDuration(lag)
		s.tracer.RefreshApplied(origin, first+uint64(j), lag)
		s.spans.RefreshApplied(origin, first+uint64(j), s.id, lag, now)
	}
	return true
}

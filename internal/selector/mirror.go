package selector

import "sync"

// placementMirror is a possibly stale copy of the partition→master map: the
// owner of each partition, the remaster epoch that installed it and, under
// partial replication, its replica set. Every copy of routing metadata kept
// away from the owning selector is one of these — a replica selector's
// routing cache (Appendix I), which doubles as the HA standby mirror, and
// the sharded group's gossiped placement cache. All of them are fed by the
// leaders' mastership delta feed, and all of them are safe to be wrong: a
// data site bounces a misrouted write with ErrNotMaster or ErrStaleEpoch and
// the session resubmits authoritatively.
type placementMirror struct {
	mu    sync.RWMutex
	owner map[uint64]int
	// epoch is the install epoch of each owner. Owners learned from the
	// leader's live map carry no entry (epoch 0), which never out-arbitrates
	// a WAL-fold entry during promotion reconciliation.
	epoch map[uint64]uint64
	sets  map[uint64][]int // replica sets; nil under full replication
}

func newPlacementMirror() *placementMirror {
	return &placementMirror{owner: make(map[uint64]int), epoch: make(map[uint64]uint64)}
}

// putLocked is the epoch-monotonic install: an entry below the partition's
// installed epoch — a straggler racing a failover registration or a newer
// delta — never rolls the mirror back.
func (m *placementMirror) putLocked(p uint64, site int, epoch uint64) {
	if epoch >= m.epoch[p] {
		m.owner[p] = site
		m.epoch[p] = epoch
	}
}

// ingest applies one mastership delta from a leader's feed.
func (m *placementMirror) ingest(parts []uint64, site int, epoch uint64) {
	m.mu.Lock()
	for _, p := range parts {
		m.putLocked(p, site, epoch)
	}
	m.mu.Unlock()
}

// merge applies a leader's placement snapshot (owners, install epochs and,
// when non-nil, replica sets), keeping only the partitions keep accepts.
func (m *placementMirror) merge(owner map[uint64]int, epochs map[uint64]uint64, sets map[uint64][]int, keep func(uint64) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p, site := range owner {
		if keep(p) {
			m.putLocked(p, site, epochs[p])
		}
	}
	if sets != nil && m.sets == nil {
		m.sets = make(map[uint64][]int, len(sets))
	}
	for p, set := range sets {
		if keep(p) {
			m.sets[p] = set
		}
	}
}

// learn overwrites owners read from the leader's live map, leaving install
// epochs to the delta feed.
func (m *placementMirror) learn(parts []uint64, site int) {
	m.mu.Lock()
	for _, p := range parts {
		m.owner[p] = site
	}
	m.mu.Unlock()
}

// seed replaces the owners and epochs with a full placement snapshot.
func (m *placementMirror) seed(owner map[uint64]int, epochs map[uint64]uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.owner = make(map[uint64]int, len(owner))
	m.epoch = make(map[uint64]uint64, len(owner))
	for p, site := range owner {
		m.owner[p] = site
		m.epoch[p] = epochs[p]
	}
}

// snapshot copies the owners and their install epochs.
func (m *placementMirror) snapshot() (map[uint64]int, map[uint64]uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	owner := make(map[uint64]int, len(m.owner))
	epochs := make(map[uint64]uint64, len(m.owner))
	for p, site := range m.owner {
		owner[p] = site
		epochs[p] = m.epoch[p]
	}
	return owner, epochs
}

// lookup returns a partition's mirrored owner.
func (m *placementMirror) lookup(p uint64) (int, bool) {
	m.mu.RLock()
	site, ok := m.owner[p]
	m.mu.RUnlock()
	return site, ok
}

// commonOwner returns the mirrored owner of every partition in parts if all
// are mirrored at the same site.
func (m *placementMirror) commonOwner(parts []uint64) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	site, ok := m.owner[parts[0]]
	if !ok {
		return 0, false
	}
	for _, p := range parts[1:] {
		if o, ok := m.owner[p]; !ok || o != site {
			return 0, false
		}
	}
	return site, true
}

// commonHosts returns the sites whose mirrored replica sets hold every
// partition in parts; false when a set is missing or none is common.
func (m *placementMirror) commonHosts(parts []uint64) ([]int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var hosts []int
	for i, p := range parts {
		set, ok := m.sets[p]
		if !ok {
			return nil, false
		}
		if i == 0 {
			hosts = append(hosts, set...)
			continue
		}
		kept := hosts[:0]
		for _, h := range hosts {
			if containsSite(set, h) {
				kept = append(kept, h)
			}
		}
		hosts = kept
	}
	return hosts, len(hosts) > 0
}

// size returns the number of mirrored owners.
func (m *placementMirror) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.owner)
}

// Package storage implements DynaMast's in-memory multi-version row store
// (the paper's Hekaton-like database component, §V-A1).
//
// Records live in row-oriented in-memory tables indexed by a uint64 primary
// key. Every update creates a new versioned record stamped with the origin
// site and that site's commit sequence number; a transaction reading at
// snapshot vector snap sees the newest version whose stamp (origin, seq)
// satisfies seq <= snap[origin]. Concurrent writers to the same record are
// mutually excluded with a per-record mutex (writes block, they do not
// abort); readers never block on it.
//
// The store keeps a bounded number of versions per record (four by default,
// matching the paper's empirically chosen setting) and discards older ones.
// A bounded chain never holds more than its cap of slots: once full, an
// install shifts the chain in place and overwrites the oldest version, so a
// row's footprint is fixed by the cap rather than by its update history.
package storage

import (
	"sync"

	"dynamast/internal/vclock"
)

// Stamp identifies the committed transaction that produced a version: the
// site it originated at and its position in that site's commit order. It is
// the projection of the transaction version vector tvv onto the origin
// dimension, which is all MVCC visibility requires.
type Stamp struct {
	Origin int
	Seq    uint64
}

// VisibleAt reports whether a version with this stamp is contained in the
// snapshot snap.
func (s Stamp) VisibleAt(snap vclock.Vector) bool {
	if s.Origin < 0 || s.Origin >= len(snap) {
		return false
	}
	return s.Seq <= snap[s.Origin]
}

// version is one entry of a record's version chain.
type version struct {
	stamp   Stamp
	data    []byte
	deleted bool
}

// Record is a multi-versioned row. The write lock (Lock/Unlock) mutually
// excludes transactions updating the record and is held for the duration of
// the owning transaction; Install prepends versions while locked. Refresh
// transactions installing propagated updates use the same lock briefly.
//
// The write lock is a plain sync.Mutex: a Go mutex is not tied to the
// goroutine that locked it, so the commit path of a networked database may
// release it from another goroutine. Releasing an unlocked record is a fatal
// runtime error. Under a cap, the version chain's backing array never grows
// past the cap.
type Record struct {
	lock sync.Mutex // write lock

	mu       sync.RWMutex // guards versions
	versions []version    // newest first; cap(versions) <= maxVersions when bounded
}

func newRecord() *Record { return &Record{} }

// Lock acquires the record's write lock, blocking until available.
func (r *Record) Lock() { r.lock.Lock() }

// TryLock acquires the write lock if it is free and reports success.
func (r *Record) TryLock() bool { return r.lock.TryLock() }

// Unlock releases the write lock. It may be called from a different
// goroutine than the one that acquired it.
func (r *Record) Unlock() { r.lock.Unlock() }

// Install prepends a new version. A positive maxVersions bounds the chain:
// once it holds that many versions, the oldest is discarded. Zero or a
// negative maxVersions means unbounded. Callers hold the write lock (local
// updates) or are the single refresh applier for the record's partition.
func (r *Record) Install(stamp Stamp, data []byte, deleted bool, maxVersions int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installLocked(stamp, data, deleted, maxVersions)
}

// installLocked prepends a version. A bounded chain grows its backing array
// by doubling up to maxVersions slots and, once full, shifts in place so the
// new version overwrites the oldest: no install allocates past the cap, and
// no evicted version stays reachable from a spare slot.
func (r *Record) installLocked(stamp Stamp, data []byte, deleted bool, maxVersions int) {
	n := len(r.versions)
	switch {
	case maxVersions > 0 && n >= maxVersions:
		r.versions = r.versions[:maxVersions]
	case maxVersions > 0 && n == cap(r.versions):
		grown := make([]version, n+1, min(max(2*n, 1), maxVersions))
		copy(grown, r.versions)
		r.versions = grown
	default:
		r.versions = append(r.versions, version{})
	}
	copy(r.versions[1:], r.versions)
	r.versions[0] = version{stamp: stamp, data: data, deleted: deleted}
}

// Read returns the newest version visible at snap. ok is false if no
// visible version exists or the visible version is a tombstone.
func (r *Record) Read(snap vclock.Vector) (data []byte, ok bool) {
	data, ok, _ = r.ReadChecked(snap)
	return data, ok
}

// ReadChecked is Read distinguishing a clean miss from an evicted one:
// evicted is true when the record holds versions but none is visible at
// snap, meaning either the key was created after the snapshot or — the case
// callers must not ignore — the version the snapshot could see was trimmed
// off the bounded chain by newer installs. A transaction receiving
// evicted=true cannot trust the miss and should retry on a fresher
// snapshot. A visible tombstone is a clean miss, not an eviction.
func (r *Record) ReadChecked(snap vclock.Vector) (data []byte, ok, evicted bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.versions {
		if v.stamp.VisibleAt(snap) {
			if v.deleted {
				return nil, false, false
			}
			return v.data, true, false
		}
	}
	return nil, false, len(r.versions) > 0
}

// ReadLatest returns the newest version regardless of snapshot; used for
// data shipping (LEAP) and replica bootstrap.
func (r *Record) ReadLatest() (data []byte, stamp Stamp, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.versions) == 0 || r.versions[0].deleted {
		return nil, Stamp{}, false
	}
	return r.versions[0].data, r.versions[0].stamp, true
}

// installSuperseding installs an imported version unless the head version
// (tombstone or not) is exactly it or is not visible at guard. The check and
// the install share one critical section, so an applier install racing the
// import can never end up buried under it.
func (r *Record) installSuperseding(stamp Stamp, data []byte, guard vclock.Vector, maxVersions int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.versions) > 0 {
		if head := r.versions[0].stamp; head == stamp || !head.VisibleAt(guard) {
			return false
		}
	}
	r.installLocked(stamp, data, false, maxVersions)
	return true
}

// VersionCount returns the current length of the version chain.
func (r *Record) VersionCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.versions)
}

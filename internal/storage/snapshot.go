package storage

import (
	"dynamast/internal/vclock"
)

// Snapshot export/import: the walk a checkpoint makes over the store.
//
// ExportAt visits every record once and emits the version a reader at
// snapshot svv would observe, without taking any write locks — concurrent
// update transactions keep committing while a checkpoint streams out. The
// subtlety is the bounded version chain: a record updated more than
// maxVersions times during the walk may have evicted the version that was
// visible at svv. In that case ExportAt falls back to the oldest retained
// version, which is necessarily NEWER than svv. That is safe for
// checkpointing because recovery replays the WAL suffix past svv anyway:
// the too-new version's own log entry is in that suffix and re-installs
// itself on top, so after replay the chain's newest-first prefix is exactly
// what a crash-free site would hold.

// ExportAt streams the store's contents as observed at snapshot svv to fn,
// table by table. Rows whose visible version is a tombstone (or that have
// no version at or before svv and no retained newer version) are skipped:
// an absent row and a deleted row are indistinguishable to readers, and
// suffix replay re-installs any post-svv tombstone. fn returning false
// stops the walk early; ExportAt reports whether the walk completed.
func (s *Store) ExportAt(svv vclock.Vector, fn func(table string, key uint64, data []byte, stamp Stamp) bool) bool {
	for _, name := range s.TableNames() {
		t := s.Table(name)
		if t == nil {
			continue
		}
		if !t.exportAt(name, svv, fn) {
			return false
		}
	}
	return true
}

// exportAt walks one table shard by shard. Keys and record pointers are
// copied under the shard read lock; version reads happen outside it so the
// walk never holds a shard lock across fn.
func (t *Table) exportAt(name string, svv vclock.Vector, fn func(table string, key uint64, data []byte, stamp Stamp) bool) bool {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		keys := append([]uint64(nil), s.keys...)
		recs := make([]*Record, len(keys))
		for j, k := range keys {
			recs[j] = s.recs[k]
		}
		s.mu.RUnlock()
		for j, r := range recs {
			data, stamp, ok := r.ExportAt(svv)
			if !ok {
				continue
			}
			if !fn(name, keys[j], data, stamp) {
				return false
			}
		}
	}
	return true
}

// ExportAt returns the version of the record a checkpoint at snapshot snap
// should carry: the newest version visible at snap, or — when concurrent
// writers evicted every snap-visible version from the bounded chain — the
// oldest retained version (newer than snap; its redo entry is in the replay
// suffix). ok is false for tombstones and empty records.
func (r *Record) ExportAt(snap vclock.Vector) (data []byte, stamp Stamp, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.versions {
		if v.stamp.VisibleAt(snap) {
			if v.deleted {
				return nil, Stamp{}, false
			}
			return v.data, v.stamp, true
		}
	}
	// No retained version is visible at snap. Either the record was created
	// after snap (every version newer — exporting the oldest is safe, see
	// package comment), or the chain cap evicted the visible version.
	if n := len(r.versions); n > 0 {
		v := r.versions[n-1]
		if v.deleted {
			return nil, Stamp{}, false
		}
		return v.data, v.stamp, true
	}
	return nil, Stamp{}, false
}

// ImportRowSuperseding installs a row exported from another store, guarded
// against shadowing newer local state: the import proceeds only when the
// record is empty, or when the local head version was already contained in
// the exporter's snapshot (srcVV) — meaning the exported version is at least
// as new as anything held here. A local head NOT visible at srcVV is ahead
// of the exporter (it arrived through a path the exporter had not observed)
// and must not be buried; version chains are newest-first, so a late stale
// install would poison every subsequent snapshot read. Every row import
// uses this — checkpoint restore, peer bootstrap, replica-add bootstrap and
// log rebuild — because it judges the local head by the exporter's
// snapshot, not by the importer's clock: that clock can cover sequences
// whose writes were filtered out (partial replication advances the svv
// past skipped entries), so a guard on it would wrongly skip rows.
func (s *Store) ImportRowSuperseding(table string, key uint64, data []byte, stamp Stamp, srcVV vclock.Vector) bool {
	t := s.CreateTable(table)
	r := t.Record(key, true)
	if head, ok := r.HeadStamp(); ok {
		if head == stamp {
			return false // exactly this version is already installed
		}
		if !head.VisibleAt(srcVV) {
			return false // local state is ahead of the exporter
		}
	}
	r.Install(stamp, data, false, s.maxVersions)
	return true
}

// Package checkpoint defines the on-disk format of DynaMast checkpoints:
// per-site snapshot files plus a manifest that makes the set atomic.
//
// A checkpoint lives in its own directory under the durable root:
//
//	<root>/checkpoint-<seq>/site-<i>.snap   one per site
//	<root>/checkpoint-<seq>/manifest.json   written last, via temp+rename
//
// Snapshot files reuse the WAL's framing — every row is
// [u32 length][u32 CRC-32C][payload], little-endian — so bit rot and torn
// writes are detectable. Row payloads are written in the binary codec
// format (internal/codec). Unlike the WAL, a snapshot tolerates no torn
// tail: the manifest records each file's exact row and byte counts, and a
// file that fails CRC or count verification invalidates the whole
// checkpoint (recovery falls back to the previous one, then to full
// replay).
//
// The manifest is the commit point. Until manifest.json exists, the
// directory is garbage a future checkpoint run deletes; the rename that
// publishes it is atomic, so a crash at any moment leaves either a complete
// checkpoint or none.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// ManifestName is the file whose presence commits a checkpoint directory.
const ManifestName = "manifest.json"

const frameHeaderSize = 8

// maxFrame bounds a frame's claimed length; larger is corruption.
const maxFrame = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Row is one record version carried by a site snapshot.
type Row struct {
	Table string
	Key   uint64
	Data  []byte
	Stamp storage.Stamp
}

// SnapshotInfo is the manifest's integrity record for one snapshot file.
type SnapshotInfo struct {
	Rows  uint64 `json:"rows"`
	Bytes uint64 `json:"bytes"`
}

// Manifest describes one complete checkpoint: where every site's replay
// resumes, what the cluster's partition placement was, and how to verify
// the snapshot files.
type Manifest struct {
	// Seq orders checkpoints; higher is newer.
	Seq     uint64    `json:"seq"`
	TakenAt time.Time `json:"taken_at"`
	Sites   int       `json:"sites"`

	// SVVs[s] is the version vector site s's snapshot was exported at.
	SVVs []vclock.Vector `json:"svvs"`

	// Offsets[s][o] is the absolute offset in origin o's log where site
	// s's redo replay resumes: the first update past SVVs[s][o].
	Offsets [][]uint64 `json:"offsets"`

	// FoldOffsets[o] is origin o's log end when Placement was captured;
	// the mastership fold replays only entries at or past it.
	FoldOffsets []uint64 `json:"fold_offsets"`

	// LowWater[o] = min over sites of Offsets[s][o]: the prefix of origin
	// o's log every site's snapshot already covers, safe to truncate.
	LowWater []uint64 `json:"low_water"`

	// Placement maps partition -> master site at capture time;
	// PlacementEpochs records the remaster epoch that installed each
	// entry, so a stale grant in a log suffix cannot override it.
	Placement       map[uint64]int    `json:"placement"`
	PlacementEpochs map[uint64]uint64 `json:"placement_epochs"`

	// MaxEpoch is the highest remaster epoch observed at capture; the
	// recovered selector's epoch counter must start above it.
	MaxEpoch uint64 `json:"max_epoch"`

	// ReplicaSets maps partition -> replica-set membership at capture time
	// (partial replication; empty under full replication). Only partitions
	// with explicit placement decisions appear — the rest re-derive from the
	// deterministic seed membership. Recovery folds state to the capture:
	// adds and drops after the checkpoint are not journaled, so a
	// post-capture add is redone by the master-hosting reconciliation and a
	// post-capture drop is undone (the replica resurrects with its snapshot
	// rows plus suffix catch-up — correct, merely unpruned until the
	// placement controller re-decides).
	ReplicaSets map[uint64][]int `json:"replica_sets,omitempty"`

	// Snapshots[s] verifies site s's snapshot file.
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// Dir returns the directory of checkpoint seq under root.
func Dir(root string, seq uint64) string {
	return filepath.Join(root, fmt.Sprintf("checkpoint-%08d", seq))
}

// SnapshotName returns the snapshot file name for one site.
func SnapshotName(site int) string { return fmt.Sprintf("site-%d.snap", site) }

// SnapshotWriter streams CRC-framed rows to a snapshot file.
type SnapshotWriter struct {
	f    *os.File
	w    *bufio.Writer
	enc  []byte // per-row encode scratch, reused across Write calls
	info SnapshotInfo
	err  error
}

// CreateSnapshot creates (truncating) the snapshot file at path.
func CreateSnapshot(path string) (*SnapshotWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: create %s: %w", path, err)
	}
	return &SnapshotWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Write appends one framed row.
func (s *SnapshotWriter) Write(r Row) error {
	if s.err != nil {
		return s.err
	}
	s.enc = encodeRowTimed(s.enc[:0], &r)
	payload := s.enc
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := s.w.Write(hdr[:]); err != nil {
		s.err = err
		return err
	}
	if _, err := s.w.Write(payload); err != nil {
		s.err = err
		return err
	}
	s.info.Rows++
	s.info.Bytes += uint64(frameHeaderSize + len(payload))
	return nil
}

// Close flushes and closes the file, returning the integrity record the
// manifest must carry. A Write error surfaces here too.
func (s *SnapshotWriter) Close() (SnapshotInfo, error) {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = err
	}
	return s.info, s.err
}

// Abort closes and removes the partial file; used when a checkpoint run is
// abandoned (export error, shutdown mid-write).
func (s *SnapshotWriter) Abort() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// ReadSnapshot streams the rows of a snapshot file to fn, verifying every
// frame's CRC. Any framing violation — short header, oversized length, bad
// checksum, undecodable payload, trailing garbage — is an error: snapshots
// are all-or-nothing.
func ReadSnapshot(path string, fn func(Row) error) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	var rows uint64
	var goodBytes int
	intern := make(map[string]string)
	decStart := time.Now()
	off := 0
	for off < len(data) {
		if off+frameHeaderSize > len(data) {
			return rows, fmt.Errorf("checkpoint: %s: torn frame header at byte %d", path, off)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame || off+frameHeaderSize+int(n) > len(data) {
			return rows, fmt.Errorf("checkpoint: %s: invalid frame length %d at byte %d", path, n, off)
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+int(n)]
		if crc32.Checksum(payload, crcTable) != sum {
			return rows, fmt.Errorf("checkpoint: %s: CRC mismatch at byte %d", path, off)
		}
		var r Row
		if err := decodeRowPayload(payload, &r, intern); err != nil {
			return rows, fmt.Errorf("checkpoint: %s: decode at byte %d: %w", path, off, err)
		}
		goodBytes += int(n)
		if err := fn(r); err != nil {
			return rows, err
		}
		rows++
		off += frameHeaderSize + int(n)
	}
	codec.RecordDecode(codec.SurfaceCheckpoint, goodBytes, time.Since(decStart))
	return rows, nil
}

// VerifySnapshot CRC-walks a snapshot file without decoding rows and checks
// it against the manifest's integrity record. Recovery runs this over every
// site file before installing any row, so a partially-corrupt checkpoint is
// rejected whole rather than half-installed.
func VerifySnapshot(path string, want SnapshotInfo) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: verify %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var rows, bytes uint64
	var hdr [frameHeaderSize]byte
	payload := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("checkpoint: verify %s: torn frame header: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrame {
			return fmt.Errorf("checkpoint: verify %s: invalid frame length %d", path, n)
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("checkpoint: verify %s: torn frame: %w", path, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return fmt.Errorf("checkpoint: verify %s: CRC mismatch in row %d", path, rows)
		}
		rows++
		bytes += uint64(frameHeaderSize) + uint64(n)
	}
	if rows != want.Rows || bytes != want.Bytes {
		return fmt.Errorf("checkpoint: verify %s: have %d rows/%d bytes, manifest says %d/%d",
			path, rows, bytes, want.Rows, want.Bytes)
	}
	return nil
}

// WriteManifest commits the checkpoint: the manifest is marshalled to a
// temp file and renamed into place, so it appears atomically or not at all.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestName))
}

// ReadManifest loads and structurally validates a checkpoint's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", dir, err)
	}
	if m.Sites <= 0 || len(m.SVVs) != m.Sites || len(m.Offsets) != m.Sites ||
		len(m.Snapshots) != m.Sites || len(m.LowWater) != m.Sites ||
		len(m.FoldOffsets) != m.Sites {
		return nil, fmt.Errorf("checkpoint: %s: manifest inconsistent with %d sites", dir, m.Sites)
	}
	return &m, nil
}

// List returns the committed checkpoints under root, newest first. Unreadable
// or structurally invalid manifests are skipped (their directories are
// uncommitted or damaged, which the recovery fallback chain handles).
func List(root string) []*Manifest {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	var out []*Manifest
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "checkpoint-") {
			continue
		}
		m, err := ReadManifest(filepath.Join(root, ent.Name()))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// NextSeq returns one past the highest checkpoint sequence present under
// root, committed or not (uncommitted directories still reserve their
// number so a new run never reuses — and clobbers — a directory a reader
// may be inspecting).
func NextSeq(root string) uint64 {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 1
	}
	var max uint64
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		n, ok := strings.CutPrefix(ent.Name(), "checkpoint-")
		if !ok {
			continue
		}
		if seq, err := strconv.ParseUint(n, 10, 64); err == nil && seq > max {
			max = seq
		}
	}
	return max + 1
}

// Remove deletes checkpoint seq's directory.
func Remove(root string, seq uint64) error {
	return os.RemoveAll(Dir(root, seq))
}

package wal

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
)

// Wire schema (format v1) for one log entry. The payload rides inside the
// CRC-32C frame ([u32 length][u32 CRC][payload]) and begins with the codec
// magic+version header; the fields follow in declaration order.

// appendEntryPayload appends e's binary payload (header included) to buf.
func appendEntryPayload(buf []byte, e *Entry) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendUvarint(buf, e.Offset)
	buf = codec.AppendUvarint(buf, uint64(e.Kind))
	buf = codec.AppendInt(buf, int64(e.Origin))
	buf = codec.AppendTime(buf, e.At)
	buf = codec.AppendVector(buf, e.TVV)
	buf = codec.AppendWrites(buf, e.Writes)
	buf = codec.AppendUint64s(buf, e.Partitions)
	buf = codec.AppendInt(buf, int64(e.Peer))
	buf = codec.AppendUvarint(buf, e.Epoch)
	if e.Kind == KindEpoch {
		// The member list exists only on epoch frames, so every other kind's
		// payload stays byte-for-byte what pre-epoch builds wrote (pinned by
		// TestEntryPayloadByteIdentity); old logs decode unchanged.
		buf = appendEpochTxns(buf, e)
	}
	return buf
}

// appendEpochTxns appends a sealed epoch's member transactions: a table-name
// dictionary shared by every member's writes, then per member a commit
// vector delta-encoded against the previous member's (the entry's closing
// vector seeds the chain), a commit-time delta against the entry timestamp,
// and the write set with dictionary-indexed table names. Deltas and the
// dictionary are where the epoch frame beats len(Txns) standalone update
// frames: per-member vectors collapse to a couple of bytes and each table
// name travels once per epoch instead of once per write.
func appendEpochTxns(buf []byte, e *Entry) []byte {
	buf = codec.AppendUvarint(buf, uint64(len(e.Txns)))
	if len(e.Txns) == 0 {
		// Mirror the decoder's early return on a zero count: no dictionary
		// follows (real epochs always carry at least one member).
		return buf
	}
	var tables []string
	idx := make(map[string]uint64, 4)
	for i := range e.Txns {
		for _, w := range e.Txns[i].Writes {
			if _, ok := idx[w.Ref.Table]; !ok {
				idx[w.Ref.Table] = uint64(len(tables))
				tables = append(tables, w.Ref.Table)
			}
		}
	}
	buf = codec.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		buf = codec.AppendString(buf, t)
	}
	base := e.At.UnixNano()
	prev := e.TVV
	for i := range e.Txns {
		t := &e.Txns[i]
		buf = codec.AppendVectorMaybeDelta(buf, prev, t.TVV)
		prev = t.TVV
		buf = codec.AppendInt(buf, t.At.UnixNano()-base)
		buf = codec.AppendUvarint(buf, uint64(len(t.Writes)))
		for _, w := range t.Writes {
			buf = codec.AppendUvarint(buf, idx[w.Ref.Table])
			buf = codec.AppendUvarint(buf, w.Ref.Key)
			buf = codec.AppendBytes(buf, w.Data)
			buf = codec.AppendBool(buf, w.Deleted)
		}
	}
	return buf
}

// decodeEpochTxns decodes the member list appended by appendEpochTxns.
func decodeEpochTxns(r *codec.Reader, e *Entry) {
	n := r.Uvarint()
	if r.Err() != nil || n == 0 {
		return
	}
	if n > maxFrame/8 {
		r.Fail(codec.ErrCorrupt)
		return
	}
	nt := r.Uvarint()
	if nt > maxFrame/8 {
		r.Fail(codec.ErrCorrupt)
		return
	}
	tables := make([]string, nt)
	for i := range tables {
		tables[i] = r.String()
	}
	if r.Err() != nil {
		return
	}
	base := e.At.UnixNano()
	prev := e.TVV
	e.Txns = make([]EpochTxn, n)
	for i := range e.Txns {
		t := &e.Txns[i]
		t.TVV = r.VectorMaybeDelta(prev, nil)
		prev = t.TVV
		t.At = time.Unix(0, base+r.Int())
		nw := r.Uvarint()
		if r.Err() != nil {
			return
		}
		if nw > maxFrame/8 {
			r.Fail(codec.ErrCorrupt)
			return
		}
		if nw == 0 {
			continue
		}
		t.Writes = make([]storage.Write, nw)
		for j := range t.Writes {
			ti := r.Uvarint()
			if ti >= uint64(len(tables)) {
				r.Fail(codec.ErrCorrupt)
				return
			}
			t.Writes[j] = storage.Write{
				Ref:     storage.RowRef{Table: tables[ti], Key: r.Uvarint()},
				Data:    r.Bytes(),
				Deleted: r.Bool(),
			}
			if r.Err() != nil {
				return
			}
		}
	}
}

// decodeEntryPayload decodes one binary frame payload into e. intern, when
// non-nil, deduplicates table-name strings across a replay. Decoded slices
// are freshly allocated — entries live for the life of the log and their
// write payloads escape into MVCC version chains, so nothing here may alias
// pooled or mapped memory.
func decodeEntryPayload(payload []byte, e *Entry, intern map[string]string) error {
	r := codec.NewReader(payload)
	if intern != nil {
		r.SetIntern(intern)
	}
	e.Offset = r.Uvarint()
	e.Kind = Kind(r.Uvarint())
	e.Origin = int(r.Int())
	e.At = r.Time()
	e.TVV = r.Vector(nil)
	e.Writes = r.Writes()
	e.Partitions = r.Uint64s()
	e.Peer = int(r.Int())
	e.Epoch = r.Uvarint()
	e.Txns = nil
	if e.Kind == KindEpoch {
		decodeEpochTxns(r, e)
	}
	return r.Done()
}

// appendFrame appends the on-disk frame for payload: length and CRC-32C
// header, then the payload bytes.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// EntryWireSize returns e's replicated size in bytes — its CRC frame header
// plus the encoded payload — by encoding into pooled scratch. Replication
// byte accounting and the epoch bytes-saved metric use it; at one call per
// sealed epoch (not per transaction) the encode cost is noise.
func EntryWireSize(e *Entry) int {
	bp := codec.GetBuf()
	b := appendEntryPayload((*bp)[:0], e)
	n := len(b)
	*bp = b[:0]
	codec.PutBuf(bp)
	return frameHeaderSize + n
}

// encodeTimed encodes e into buf, charging the codec's WAL-surface
// encode counters.
func encodeTimed(buf []byte, e *Entry) []byte {
	start := time.Now()
	buf = appendEntryPayload(buf, e)
	codec.RecordEncode(codec.SurfaceWAL, len(buf), time.Since(start))
	return buf
}

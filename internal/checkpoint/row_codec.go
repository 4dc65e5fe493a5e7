package checkpoint

import (
	"time"

	"dynamast/internal/codec"
)

// Wire schema (format v1) for one snapshot row, carried inside the
// snapshot's CRC-32C frames. A frame without the codec magic fails
// ReadSnapshot with a decode error.

// appendRowPayload appends r's binary payload (header included) to buf.
func appendRowPayload(buf []byte, r *Row) []byte {
	buf = codec.AppendHeader(buf, codec.Version1)
	buf = codec.AppendString(buf, r.Table)
	buf = codec.AppendUvarint(buf, r.Key)
	buf = codec.AppendBytes(buf, r.Data)
	buf = codec.AppendStamp(buf, r.Stamp)
	return buf
}

// decodeRowPayload decodes one binary frame payload into r. intern, when
// non-nil, deduplicates table names across a snapshot's rows. Decoded Data
// is freshly allocated — rows are installed directly into MVCC version
// chains, so nothing here may alias the snapshot file's read buffer.
func decodeRowPayload(payload []byte, r *Row, intern map[string]string) error {
	rd := codec.NewReader(payload)
	if intern != nil {
		rd.SetIntern(intern)
	}
	r.Table = rd.String()
	r.Key = rd.Uvarint()
	r.Data = rd.Bytes()
	r.Stamp = rd.Stamp()
	return rd.Done()
}

// encodeRowTimed encodes r into buf, charging the codec's checkpoint-surface
// encode counters.
func encodeRowTimed(buf []byte, r *Row) []byte {
	start := time.Now()
	buf = appendRowPayload(buf, r)
	codec.RecordEncode(codec.SurfaceCheckpoint, len(buf), time.Since(start))
	return buf
}

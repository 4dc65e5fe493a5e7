package wal

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// epochEntry builds a sealed-epoch entry with n member transactions whose
// vectors step the way real commits do: the origin dimension is seq-dense
// and remote dimensions move occasionally (small deltas, the case the
// delta encoding is built for).
func epochEntry(origin, n int) Entry {
	at := time.Unix(0, 1700000000_000000000)
	e := Entry{
		Kind:   KindEpoch,
		Origin: origin,
		At:     at,
		Txns:   make([]EpochTxn, n),
	}
	closing := vclock.Vector{3, 5, 9}
	for i := range e.Txns {
		seq := uint64(10 + i)
		tvv := closing.Clone()
		tvv[origin] = seq
		if i%3 == 2 {
			tvv[(origin+1)%3] += uint64(i)
		}
		e.Txns[i] = EpochTxn{
			TVV: tvv,
			At:  at.Add(time.Duration(i) * 100 * time.Microsecond),
			Writes: []storage.Write{
				{Ref: storage.RowRef{Table: "accounts", Key: uint64(i)}, Data: []byte{byte(i), 0xaa}},
				{Ref: storage.RowRef{Table: "orders", Key: uint64(i * 7)}, Deleted: true},
			},
		}
	}
	closing = vclock.Vector{}
	for i := range e.Txns {
		closing = closing.MaxInto(e.Txns[i].TVV)
	}
	e.TVV = closing
	return e
}

// TestEpochEntryRoundTrip checks the epoch frame schema — table dictionary,
// chained maybe-delta member vectors, time deltas — reproduces every member
// exactly.
func TestEpochEntryRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33} {
		e := epochEntry(1, n)
		payload := appendEntryPayload(nil, &e)
		var got Entry
		if err := decodeEntryPayload(payload, &got, nil); err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("n=%d round trip mismatch:\n got %+v\nwant %+v", n, got, e)
		}
	}
}

// TestEpochFrameBeatsStandaloneUpdates asserts the coalescing actually wins
// bytes: one epoch frame must be smaller than the len(Txns) standalone
// update frames it replaces.
func TestEpochFrameBeatsStandaloneUpdates(t *testing.T) {
	e := epochEntry(0, 16)
	coalesced := EntryWireSize(&e)
	var split int
	for i := range e.Txns {
		u := Entry{
			Kind:   KindUpdate,
			Origin: e.Origin,
			At:     e.Txns[i].At,
			TVV:    e.Txns[i].TVV,
			Writes: e.Txns[i].Writes,
		}
		split += EntryWireSize(&u)
	}
	if coalesced >= split {
		t.Fatalf("epoch frame %dB not smaller than %dB of standalone updates", coalesced, split)
	}
	// The acceptance bar for the replication path is a ≥40% per-txn byte
	// reduction; the pure encoding should clear it with room to spare.
	if float64(coalesced) > 0.6*float64(split) {
		t.Errorf("epoch frame %dB saves <40%% vs %dB standalone", coalesced, split)
	}
}

// TestEntryPayloadByteIdentity pins the payload bytes of every non-epoch
// entry kind to the pre-epoch schema: field by field, in declaration order,
// with no epoch member list. A log written with epochs disabled must be
// byte-identical to one written by a pre-epoch build, so old binaries can
// read new logs that contain no epoch frames.
func TestEntryPayloadByteIdentity(t *testing.T) {
	for _, e := range compatEntries(8) {
		if e.Kind == KindEpoch {
			t.Fatal("compatEntries must not produce epoch entries")
		}
		got := appendEntryPayload(nil, &e)

		// Reference encoding: the PR 5 wire schema, reproduced inline.
		want := codec.AppendHeader(nil, codec.Version1)
		want = codec.AppendUvarint(want, e.Offset)
		want = codec.AppendUvarint(want, uint64(e.Kind))
		want = codec.AppendInt(want, int64(e.Origin))
		want = codec.AppendTime(want, e.At)
		want = codec.AppendVector(want, e.TVV)
		want = codec.AppendWrites(want, e.Writes)
		want = codec.AppendUint64s(want, e.Partitions)
		want = codec.AppendInt(want, int64(e.Peer))
		want = codec.AppendUvarint(want, e.Epoch)

		if !bytes.Equal(got, want) {
			t.Fatalf("kind %v payload diverged from the pre-epoch schema:\n got %x\nwant %x",
				e.Kind, got, want)
		}
	}
}

// TestMixedLegacyAndEpochLogReplays proves the epoch upgrade scenario: a
// prefix of per-transaction frames, the layout written before epoch frames
// existed (and still written with epochs off), followed by epoch frames
// appended after a reopen, replays as one sequence and survives a reopen.
func TestMixedLegacyAndEpochLogReplays(t *testing.T) {
	checkTwoSessionReplay(t, compatEntries(9), []Entry{epochEntry(1, 5), epochEntry(2, 1)})
}

// TestEpochEntrySeqHelpers checks the sequence bookkeeping replicas rely on:
// FirstSeq/lastSeq over dense member ranges, and IsUpdate classification.
func TestEpochEntrySeqHelpers(t *testing.T) {
	e := epochEntry(1, 5)
	if !e.IsUpdate() {
		t.Error("epoch entry must classify as an update")
	}
	if got, want := e.FirstSeq(), e.TVV[1]-4; got != want {
		t.Errorf("FirstSeq = %d, want %d", got, want)
	}
	rel := Entry{Kind: KindRelease, Origin: 1, TVV: vclock.Vector{1, 2, 3}}
	if rel.IsUpdate() {
		t.Error("release entry must not classify as an update")
	}
	if got := rel.FirstSeq(); got != 0 {
		t.Errorf("release FirstSeq = %d, want 0", got)
	}
}

// FuzzEpochFrameDecode drives the epoch member decoder with arbitrary
// bytes: it must never panic, and any accepted payload must re-encode and
// re-decode to the same entry.
func FuzzEpochFrameDecode(f *testing.F) {
	for _, n := range []int{1, 3, 12} {
		e := epochEntry(n%3, n)
		f.Add(appendEntryPayload(nil, &e))
	}
	// A truncated epoch payload and a member count larger than the buffer.
	e := epochEntry(0, 4)
	full := appendEntryPayload(nil, &e)
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte{}, full[:12]...), 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var e Entry
		if err := decodeEntryPayload(payload, &e, map[string]string{}); err != nil {
			return
		}
		re := appendEntryPayload(nil, &e)
		var e2 Entry
		if err := decodeEntryPayload(re, &e2, nil); err != nil {
			t.Fatalf("re-decode of accepted entry failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("decode/encode not idempotent:\n got %+v\nwant %+v", e2, e)
		}
	})
}

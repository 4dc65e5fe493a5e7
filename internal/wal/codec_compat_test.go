package wal

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynamast/internal/codec"
	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

func compatEntries(n int) []Entry {
	at := time.Unix(0, 1700000000_000000000)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Offset: uint64(i),
			Kind:   KindUpdate,
			Origin: i % 3,
			At:     at.Add(time.Duration(i) * time.Millisecond),
			TVV:    vclock.Vector{uint64(i), uint64(i * 2), 7},
			Writes: []storage.Write{
				{Ref: storage.RowRef{Table: "accounts", Key: uint64(i)}, Data: []byte{byte(i), 0xff}},
				{Ref: storage.RowRef{Table: "orders", Key: uint64(i * 10)}, Deleted: true},
			},
		}
		if i%4 == 3 {
			out[i].Kind = KindGrant
			out[i].Writes = nil
			out[i].Partitions = []uint64{uint64(i), uint64(i + 1)}
			out[i].Peer = (i + 1) % 3
			out[i].Epoch = uint64(i)
		}
	}
	return out
}

func allEntries(t *testing.T, l *Log) []Entry {
	t.Helper()
	c := l.Subscribe(l.Base())
	defer c.Close()
	var out []Entry
	for {
		e, ok := c.TryNext()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestEntryRoundTrip checks the binary entry schema reproduces every field
// exactly, including the nil/empty conventions gob established.
func TestEntryRoundTrip(t *testing.T) {
	for _, e := range compatEntries(8) {
		payload := appendEntryPayload(nil, &e)
		var got Entry
		if err := decodeEntryPayload(payload, &got, nil); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
	}
}

// TestMixedFormatLogReplays proves a log whose prefix was written by one
// Open and whose suffix was appended after a reopen replays to the exact
// combined entry sequence, and survives a further reopen.
func TestMixedFormatLogReplays(t *testing.T) {
	entries := compatEntries(12)
	checkTwoSessionReplay(t, entries[:6], entries[6:])
}

// checkTwoSessionReplay writes prefix through one Open, closes the log,
// reopens it and appends suffix, then checks the log replays prefix+suffix
// in order before and after another reopen. Offsets are assigned densely.
func checkTwoSessionReplay(t *testing.T, prefix, suffix []Entry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "site-0.wal")
	want := append(append([]Entry(nil), prefix...), suffix...)
	for i := range want {
		want[i].Offset = uint64(i)
	}
	appendAll := func(upTo int, es []Entry) {
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if _, err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if got := allEntries(t, l); !reflect.DeepEqual(got, want[:upTo]) {
			t.Fatalf("log mismatch after append:\n got %+v\nwant %+v", got, want[:upTo])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(len(prefix), want[:len(prefix)])
	appendAll(len(want), want[len(prefix):])

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := allEntries(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("log mismatch after reopen:\n got %+v\nwant %+v", got, want)
	}
}

// TestGobFrameFailsOpen checks that a checksummed record without the codec
// magic — a gob payload, as builds before the binary codec wrote — fails
// Open with an error instead of being dropped as a torn tail.
func TestGobFrameFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.wal")
	entries := compatEntries(2)
	var gobPayload bytes.Buffer
	if err := gob.NewEncoder(&gobPayload).Encode(&entries[1]); err != nil {
		t.Fatal(err)
	}
	data := appendFrame(nil, appendEntryPayload(nil, &entries[0]))
	data = appendFrame(data, gobPayload.Bytes())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path)
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a gob-framed record")
	}
	if !strings.Contains(err.Error(), "not in the binary format") {
		t.Fatalf("Open error %q does not name the format", err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(data)) {
		t.Fatalf("Open rewrote the rejected log: %v %v", st, err)
	}
}

// FuzzWALFrameDecode feeds arbitrary bytes to the entry payload decoder:
// it must never panic, and whatever it accepts must re-encode and decode
// to the same entry (decode∘encode is the identity on accepted inputs).
func FuzzWALFrameDecode(f *testing.F) {
	for _, e := range compatEntries(4) {
		f.Add(appendEntryPayload(nil, &e))
	}
	f.Add([]byte{})
	f.Add([]byte{codec.Magic})
	f.Add([]byte{codec.Magic, codec.Version1})
	f.Add([]byte{codec.Magic, 0x7f, 0x01})
	f.Add([]byte{0x42, 0xff, 0x00, 0x01})
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

package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynamast/internal/storage"
)

func testRows() []Row {
	return []Row{
		{Table: "accounts", Key: 1, Data: []byte("alice"), Stamp: storage.Stamp{Origin: 0, Seq: 3}},
		{Table: "accounts", Key: 2, Data: []byte("bob"), Stamp: storage.Stamp{Origin: 1, Seq: 7}},
		{Table: "orders", Key: 900, Data: nil, Stamp: storage.Stamp{Origin: 2, Seq: 1}},
		{Table: "accounts", Key: 3, Data: []byte{0x00, 0xff, 0x01}, Stamp: storage.Stamp{Origin: 0, Seq: 12}},
	}
}

func readAll(t *testing.T, path string) []Row {
	t.Helper()
	var got []Row
	n, err := ReadSnapshot(path, func(r Row) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if int(n) != len(got) {
		t.Fatalf("row count %d != callback count %d", n, len(got))
	}
	return got
}

// TestRowRoundTrip writes rows through the binary SnapshotWriter and reads
// them back identical, and checks the manifest integrity record matches
// what VerifySnapshot recomputes.
func TestRowRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.snap")
	w, err := CreateSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows()
	for _, r := range rows {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	info, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(path, info); err != nil {
		t.Fatalf("VerifySnapshot: %v", err)
	}
	if got := readAll(t, path); !reflect.DeepEqual(got, rows) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rows)
	}
}

// TestGobSnapshotFrameRejected checks that a checksummed snapshot row
// without the codec magic — a gob payload, as builds before the binary
// codec wrote — fails ReadSnapshot with a decode error.
func TestGobSnapshotFrameRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.snap")
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(testRows()[0]); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload.Bytes(), crcTable))
	if err := os.WriteFile(path, append(hdr[:], payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ReadSnapshot(path, func(Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "decode at byte 0") {
		t.Fatalf("ReadSnapshot of a gob row = %d rows, err %v; want a decode error", n, err)
	}
}

// TestRowTableInterning checks that a snapshot's repeated table names decode
// to one shared string (ReadSnapshot threads one intern map through the
// whole file).
func TestRowTableInterning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site-0.snap")
	w, err := CreateSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := w.Write(Row{Table: "shared_table", Key: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, path)
	for i := 1; i < len(got); i++ {
		if got[i].Table != got[0].Table {
			t.Fatalf("table mismatch at row %d", i)
		}
	}
}

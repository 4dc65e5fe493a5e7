package wal

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"
)

// benchEntry is a representative update: a 2-write commit with a 3-site
// vector, the shape the WAL encodes on every transaction.
func benchEntry() Entry {
	e := compatEntries(2)[1]
	return e
}

// BenchmarkWALEncodeEntry isolates entry serialization — the work Append
// does under the log mutex — in both formats. The binary/gob ratio is the
// codec's headline number.
func BenchmarkWALEncodeEntry(b *testing.B) {
	e := benchEntry()
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendEntryPayload(buf[:0], &e)
		}
	})
	b.Run("gob", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALDecodeEntry isolates entry deserialization — the per-frame
// work of replay — in both formats.
func BenchmarkWALDecodeEntry(b *testing.B) {
	e := benchEntry()
	b.Run("binary", func(b *testing.B) {
		payload := appendEntryPayload(nil, &e)
		intern := make(map[string]string)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Entry
			if err := decodeEntryPayload(payload, &out, intern); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
			b.Fatal(err)
		}
		payload := buf.Bytes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Entry
			if err := decodeEntryPayload(payload, &out, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures the full durable append path — encode, frame,
// group commit to the file — from a single appender. The allocs/op figure
// is the acceptance criterion: the encode path itself must not allocate
// (steady-state allocations come only from retaining the entry).
func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e := benchEntry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures Open over a 10k-entry log — the
// restart-latency contribution of entry decoding.
func BenchmarkWALReplay(b *testing.B) {
	const n = 10_000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = benchEntry()
		entries[i].Offset = uint64(i)
	}
	b.Run("binary", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.wal")
		l, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		for i := range entries {
			if _, err := l.Append(entries[i]); err != nil {
				b.Fatal(err)
			}
		}
		l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			if l.Len() != n {
				b.Fatalf("replayed %d entries", l.Len())
			}
			l.Close()
		}
	})
}

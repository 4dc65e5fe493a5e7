package selector

import (
	"sync/atomic"
	"testing"
	"time"

	"dynamast/internal/storage"
	"dynamast/internal/vclock"
)

// benchSite is a no-op DataSite for routing micro-benchmarks.
type benchSite struct {
	id  int
	svv vclock.Vector
}

func (s *benchSite) ID() int            { return s.id }
func (s *benchSite) SVV() vclock.Vector { return s.svv.Clone() }
func (s *benchSite) Release(parts []uint64, to int, epoch uint64) (vclock.Vector, error) {
	return s.svv.Clone(), nil
}
func (s *benchSite) Grant(parts []uint64, relVV vclock.Vector, from int, epoch uint64) (vclock.Vector, error) {
	return s.svv.Clone(), nil
}

func benchSelector(b *testing.B, m int, w Weights) *Selector {
	b.Helper()
	sites := make([]DataSite, m)
	for i := range sites {
		sites[i] = &benchSite{id: i, svv: vclock.New(m)}
	}
	return newTestGroup(b, GroupConfig{Shards: 1, Selector: Config{
		Sites:       sites,
		Partitioner: func(ref storage.RowRef) uint64 { return ref.Key / 100 },
		Weights:     w,
	}}).Shard(0)
}

// BenchmarkRouteWriteFastPath measures the single-master fast path: the
// common case the paper reports at <1% of transaction time.
func BenchmarkRouteWriteFastPath(b *testing.B) {
	sel := benchSelector(b, 4, YCSBWeights())
	ws := []storage.RowRef{{Table: "t", Key: 1}, {Table: "t", Key: 150}, {Table: "t", Key: 250}}
	// Co-locate once.
	if _, err := sel.RouteWrite(0, ws, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.RouteWrite(0, ws, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteWriteRemaster measures the slow path: scoring all sites and
// transferring mastership (no simulated network).
func BenchmarkRouteWriteRemaster(b *testing.B) {
	sel := benchSelector(b, 4, YCSBWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) * 200
		// Two partitions that have never been co-located.
		ws := []storage.RowRef{{Table: "t", Key: k}, {Table: "t", Key: k + 100}}
		if _, err := sel.RouteWrite(0, ws, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteWriteParallel drives the single-master fast path from many
// goroutines at once: the selector's routing hot path under concurrent
// client load, where partition-map, statistics and load-tracking
// synchronization costs dominate.
func BenchmarkRouteWriteParallel(b *testing.B) {
	sel := benchSelector(b, 4, YCSBWeights())
	// Materialize 64 partitions at site 0 so every route takes the fast path.
	for p := uint64(0); p < 64; p++ {
		if _, err := sel.RouteWrite(0, []storage.RowRef{{Table: "t", Key: p * 100}}, nil); err != nil {
			b.Fatal(err)
		}
	}
	var nextClient atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := int(nextClient.Add(1))
		i := uint64(client)
		ws := make([]storage.RowRef, 3)
		for pb.Next() {
			i++
			base := (i * 7) % 64
			ws[0] = storage.RowRef{Table: "t", Key: base * 100}
			ws[1] = storage.RowRef{Table: "t", Key: ((base + 1) % 64) * 100}
			ws[2] = storage.RowRef{Table: "t", Key: ((base + 2) % 64) * 100}
			if _, err := sel.RouteWrite(client, ws, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouteReadParallel measures concurrent read routing (RNG and SVV
// snapshot costs).
func BenchmarkRouteReadParallel(b *testing.B) {
	sel := benchSelector(b, 8, YCSBWeights())
	cvv := vclock.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sel.RouteRead(1, cvv)
		}
	})
}

func BenchmarkRouteRead(b *testing.B) {
	sel := benchSelector(b, 8, YCSBWeights())
	cvv := vclock.New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.RouteRead(1, cvv)
	}
}

func BenchmarkStatsRecordWrite(b *testing.B) {
	st := NewStats(StatsConfig{})
	now := time.Now()
	parts := []uint64{1, 2, 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.RecordWrite(i%16, parts, now)
	}
}

func BenchmarkBalanceFactor(b *testing.B) {
	before := []float64{100, 120, 90, 110}
	after := []float64{105, 115, 95, 105}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BalanceFactor(before, after)
	}
}

package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dynamast"
	"dynamast/internal/transport"
	"dynamast/internal/workload"
)

// sliceLen is the measurement slice. The untraced run reports medians over
// slices; the traced run alternates traced and untraced slices so both
// modes see the same placement and machine load.
const sliceLen = 500 * time.Millisecond

// sample is one finished transaction.
type sample struct {
	end    time.Duration // since origin
	lat    time.Duration
	update bool
	traced bool
	failed bool
}

// counters is a snapshot of the cluster's and the process's counters.
type counters struct {
	at      time.Duration // since origin
	msgs    [8]uint64     // per transport.Category
	bytes   [8]uint64
	walEnd  []uint64 // per site: published log end offset
	commits uint64   // update commits, all sites
	aborts  uint64
	cpu     time.Duration // process user+system time
	mallocs uint64
	gcs     uint32
	ticks   []int64 // machine-wide CPU time counters (cpuTicks)
}

func snapshot(c *dynamast.Cluster, origin time.Time) counters {
	var k counters
	for _, st := range c.Network().Stats() {
		if int(st.Category) < len(k.msgs) {
			k.msgs[st.Category] = st.Messages
			k.bytes[st.Category] = st.Bytes
		}
	}
	for i, s := range c.Sites() {
		k.walEnd = append(k.walEnd, c.Broker().Log(i).Len())
		k.commits += s.Commits()
		k.aborts += s.Aborts()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	k.mallocs, k.gcs = ms.Mallocs, ms.NumGC
	k.ticks = cpuTicks()
	k.at = time.Since(origin)
	return k
}

// window is one measured run: the samples, the counter snapshots at every
// slice boundary, and which slices were traced.
type window struct {
	samples []sample
	snaps   []counters // len(traced)+1
	traced  []bool
	recs    []*recorder
	lags    []time.Duration
	// heapLive is the live heap in MiB after a collection at the end of
	// the window.
	heapLive float64
}

// drive runs clients closed-loop against r: warmup, then slices of
// sliceLen for the given total, alternating traced and untraced slices
// when trace is set (starting untraced). trial numbers the spans.
func drive(sp spec, r *rig, trial int, seed int64, warmup, total time.Duration, trace bool) window {
	c := r.c
	origin := time.Now()
	lag := newLagTracker(c.Sites(), origin)
	ctx, cancel := context.WithCancel(context.Background())
	var lagDone sync.WaitGroup
	if trace {
		lagDone.Add(1)
		go func() { defer lagDone.Done(); lag.run(ctx) }()
	}

	var stop, tracing atomic.Bool
	per := make([][]sample, clients)
	var w window
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		id := i + 1
		gen := sp.wl.NewGenerator(id, seed)
		sess := c.Session(id)
		tc := newTracedClient(c, id, trial, origin, lag)
		w.recs = append(w.recs, tc.rec)
		wg.Add(1)
		go func(i int, gen workload.Generator) {
			defer wg.Done()
			out := make([]sample, 0, 1<<16)
			for !stop.Load() {
				t := gen.Next()
				traced := tracing.Load()
				start := time.Now()
				var err error
				switch {
				case traced && t.Update:
					err = tc.update(t.WriteSet, t.Run)
				case traced:
					err = tc.read(t.Run)
				case t.Update:
					err = sess.UpdateCtx(context.Background(), t.WriteSet, t.Run)
				default:
					err = sess.ReadHinted(t.ReadHint, t.Run)
				}
				end := time.Now()
				out = append(out, sample{end: end.Sub(origin), lat: end.Sub(start),
					update: t.Update, traced: traced, failed: err != nil})
			}
			per[i] = out
		}(i, gen)
	}

	time.Sleep(warmup)
	n := int(total / sliceLen)
	if n < 2 {
		n = 2
	}
	for k := 0; k < n; k++ {
		on := trace && k%2 == 1
		tracing.Store(on)
		w.traced = append(w.traced, on)
		w.snaps = append(w.snaps, snapshot(c, origin))
		time.Sleep(sliceLen)
	}
	tracing.Store(false)
	w.snaps = append(w.snaps, snapshot(c, origin))
	stop.Store(true)
	wg.Wait()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapLive = float64(ms.HeapAlloc) / (1 << 20)
	cancel()
	lagDone.Wait()

	from, to := w.snaps[0].at, w.snaps[n].at
	for _, out := range per {
		for _, s := range out {
			if s.end >= from && s.end < to {
				w.samples = append(w.samples, s)
			}
		}
	}
	lag.mu.Lock()
	w.lags = lag.lags
	lag.mu.Unlock()
	return w
}

// steal is the share of the machine's CPU time stolen during the window.
func (w *window) steal() float64 {
	return stealShare(w.snaps[0].ticks, w.snaps[len(w.snaps)-1].ticks)
}

// slice returns the index of the slice sample s ended in.
func (w *window) slice(s sample) int {
	lo, hi := 0, len(w.traced)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w.snaps[mid].at <= s.end {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// delta sums the counter differences over the slices whose traced flag is
// traced.
func (w *window) delta(traced bool) (d counters, secs float64) {
	d.walEnd = make([]uint64, len(w.snaps[0].walEnd))
	for k, on := range w.traced {
		if on != traced {
			continue
		}
		a, b := w.snaps[k], w.snaps[k+1]
		secs += (b.at - a.at).Seconds()
		for i := range d.msgs {
			d.msgs[i] += b.msgs[i] - a.msgs[i]
			d.bytes[i] += b.bytes[i] - a.bytes[i]
		}
		for i := range d.walEnd {
			d.walEnd[i] += b.walEnd[i] - a.walEnd[i]
		}
		d.commits += b.commits - a.commits
		d.aborts += b.aborts - a.aborts
		d.cpu += b.cpu - a.cpu
		d.mallocs += b.mallocs - a.mallocs
		d.gcs += b.gcs - a.gcs
	}
	return d, secs
}

// category helpers.
func catMsgs(d counters, c transport.Category) float64  { return float64(d.msgs[c]) }
func catBytes(d counters, c transport.Category) float64 { return float64(d.bytes[c]) }

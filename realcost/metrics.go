package main

import (
	"math"
	"syscall"
	"time"

	"dynamast"
	"dynamast/internal/transport"
	"dynamast/internal/wal"
)

// metric is one reported figure. n is the sample count behind a percentile
// or mean (0 for a ratio of counters).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// tally splits a window's samples by kind and mode.
type tally struct {
	attempted, failed int
	upd, rd           []time.Duration // committed latencies
	perSlice          []int           // committed txns per slice
}

func (w *window) tally(traced bool) tally {
	t := tally{perSlice: make([]int, len(w.traced))}
	for _, s := range w.samples {
		if s.traced != traced {
			continue
		}
		t.attempted++
		if s.failed {
			t.failed++
			continue
		}
		t.perSlice[w.slice(s)]++
		if s.update {
			t.upd = append(t.upd, s.lat)
		} else {
			t.rd = append(t.rd, s.lat)
		}
	}
	return t
}

// rate returns committed transactions per second: the median over the
// slices of the mode, which a single stalled slice cannot move.
func (w *window) rate(t tally, traced bool) float64 {
	var rates []float64
	for k, on := range w.traced {
		if on == traced {
			secs := (w.snaps[k+1].at - w.snaps[k].at).Seconds()
			rates = append(rates, float64(t.perSlice[k])/secs)
		}
	}
	return median(rates)
}

// latency returns the q-quantile of ds in milliseconds.
func latency(name string, ds []time.Duration, q float64) metric {
	return metric{name: name, unit: "ms", value: quantile(durations(ds, time.Millisecond), q), n: len(ds)}
}

// e2eNames are the per-trial end-to-end metrics of the result line.
var e2eNames = []string{"txn_per_s", "txn_p50_ms", "update_mean_ms", "repl_bytes_per_update"}

// endToEnd computes the untraced run's metrics. json holds the figures the
// result line carries: every one is defined on every workload and steady
// enough across runs to be held to a bound. extra holds the rest of the
// report: the update and read percentiles, whose run-to-run spread on a
// small shared machine is wider than any bound a regression gate can use
// (a tail set by scheduling noise; on scan-heavy a bimodal update latency
// whose median flips between the modes), read latency, which update-durable
// does not have, and failed_ratio, which a healthy run holds at zero.
//
// A run adds peak_rss_mb and setup_s, which are per process and per
// set-up rather than per trial.
func endToEnd(w window) (json, extra []metric) {
	t := w.tally(false)
	d, _ := w.delta(false)
	all := append(append([]time.Duration(nil), t.upd...), t.rd...)
	json = []metric{
		{name: e2eNames[0], unit: "1/s", value: w.rate(t, false), n: len(all)},
		latency(e2eNames[1], all, 0.50),
		{name: e2eNames[2], unit: "ms", value: meanMs(t.upd), n: len(t.upd)},
		{name: e2eNames[3], unit: "B", value: ratio(catBytes(d, transport.CatReplication), float64(d.commits)), n: int(d.commits)},
	}
	extra = []metric{
		latency("update_p50_ms", t.upd, 0.50),
		latency("update_p99_ms", t.upd, 0.99),
		latency("txn_p99_ms", all, 0.99),
	}
	if len(t.rd) > 0 {
		extra = append(extra, latency("read_p50_ms", t.rd, 0.50), latency("read_p99_ms", t.rd, 0.99))
	}
	extra = append(extra,
		metric{name: "failed_ratio", unit: "ratio", value: ratio(float64(t.failed), float64(t.attempted)), n: t.attempted},
		metric{name: "heap_live_mb", unit: "MB", value: w.heapLive})
	return json, extra
}

// meanMs is the mean of ds in milliseconds.
func meanMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum)/1e6, float64(len(ds)))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ledger is the update path's cost split by layer, summed over the traced
// run's update transactions.
type ledger struct {
	txns                                             int
	total, route, remaster, begin, exec, commit, gap int64 // ns
	backoff                                          int64
}

// layerStats folds the traced spans into per-call samples and the ledger.
type layerStats struct {
	routeWrite, routeRead, begin, commit, exec, read []float64 // ns
	scanNs, scanRows                                 int64
	remasterNs, partsMoved                           int64
	routes, remastered                               int
	updates                                          int
	led                                              ledger
}

func foldSpans(recs []*recorder) layerStats {
	var ls layerStats
	for _, r := range recs {
		// A transaction's spans are contiguous and end with its root.
		var cur ledger
		lastRoute := -1
		for i, s := range r.spans {
			d := s.dur()
			switch s.name {
			case spanRoute:
				ls.routes++
				if s.arg > 0 {
					ls.remastered++
				}
				ls.partsMoved += s.arg
				ls.routeWrite = append(ls.routeWrite, float64(d))
				lastRoute = len(ls.routeWrite) - 1
				cur.route += d
			case spanRemaster:
				if lastRoute >= 0 && r.spans[i-1].name == spanRoute {
					ls.routeWrite[lastRoute] -= float64(d)
				}
				ls.remasterNs += d
				cur.route -= d
				cur.remaster += d
			case spanRouteRead:
				ls.routeRead = append(ls.routeRead, float64(d))
			case spanBegin:
				ls.begin = append(ls.begin, float64(d))
				cur.begin += d
			case spanExec:
				if s.update {
					ls.exec = append(ls.exec, float64(d))
				}
				cur.exec += d
			case spanRead:
				ls.read = append(ls.read, float64(d))
			case spanScan:
				ls.scanNs += d
				ls.scanRows += s.arg
			case spanCommit:
				if s.update {
					ls.commit = append(ls.commit, float64(d))
				}
				cur.commit += d
			case spanBackoff:
				cur.backoff += d
			case spanTxn:
				if s.update {
					ls.updates++
					cur.total = d
					cur.gap = d - cur.route - cur.remaster - cur.begin - cur.exec - cur.commit
					ls.led.add(cur)
				}
				cur = ledger{}
			}
		}
	}
	return ls
}

func (l *ledger) add(o ledger) {
	l.txns++
	l.total += o.total
	l.route += o.route
	l.remaster += o.remaster
	l.begin += o.begin
	l.exec += o.exec
	l.commit += o.commit
	l.gap += o.gap
	l.backoff += o.backoff
}

// coverage is the share of the traced update total the five ledger layers
// account for: route + remaster wait + begin + exec + commit.
func (l ledger) coverage() float64 {
	return ratio(float64(l.route+l.remaster+l.begin+l.exec+l.commit), float64(l.total))
}

// layerInput pools what the per-layer metrics need from a traced run's
// trials.
type layerInput struct {
	d            counters // counter deltas over the untraced slices
	frames       int64    // WAL frame bytes appended in the untraced slices
	reads        int      // committed reads in the untraced slices
	lags         []time.Duration
	updU, updT   []time.Duration // committed update latencies, untraced / traced
	txnsU, txnsT int             // committed transactions, untraced / traced
	secsU, secsT float64         // slice seconds, untraced / traced
}

// add folds one trial into the pool; c is the trial's cluster, still open.
func (in *layerInput) add(c *dynamast.Cluster, w window) {
	d, secs := w.delta(false)
	_, secsT := w.delta(true)
	if in.d.walEnd == nil {
		in.d.walEnd = make([]uint64, len(d.walEnd))
	}
	for i := range d.msgs {
		in.d.msgs[i] += d.msgs[i]
		in.d.bytes[i] += d.bytes[i]
	}
	for i := range d.walEnd {
		in.d.walEnd[i] += d.walEnd[i]
	}
	in.d.commits += d.commits
	in.d.aborts += d.aborts
	in.d.cpu += d.cpu
	in.d.mallocs += d.mallocs
	in.d.gcs += d.gcs
	in.frames += frameBytes(c, w)
	in.lags = append(in.lags, w.lags...)
	u, tr := w.tally(false), w.tally(true)
	in.reads += len(u.rd)
	in.updU = append(in.updU, u.upd...)
	in.updT = append(in.updT, tr.upd...)
	in.txnsU += len(u.upd) + len(u.rd)
	in.txnsT += len(tr.upd) + len(tr.rd)
	in.secsU += secs
	in.secsT += secsT
}

// perLayer computes the traced run's metrics: span-derived timings from
// the traced slices, counter-derived ratios from the untraced slices of
// the same trials (the program's own behaviour, without the tracer's
// allocations), and the tracing overhead between the two. probe supplies
// read-path spans when the workload itself has none.
func perLayer(in layerInput, ls, probe layerStats) (json, extra []metric) {
	d := in.d
	updates := float64(d.commits)
	txns := updates + float64(in.reads)

	routeRead, read := ls.routeRead, ls.read
	scanNs, scanRows := ls.scanNs, ls.scanRows
	if len(routeRead) == 0 {
		routeRead = probe.routeRead
	}
	if scanRows == 0 {
		scanNs, scanRows = probe.scanNs, probe.scanRows
	}
	us := func(name string, xs []float64, q float64) metric {
		return metric{name: name, unit: "us", value: quantile(append([]float64(nil), xs...), q) / 1e3, n: len(xs)}
	}
	lagMs := durations(in.lags, time.Millisecond)
	led := ls.led

	json = []metric{
		us("selector.route_write_p50_us", ls.routeWrite, 0.50),
		us("selector.route_write_p99_us", ls.routeWrite, 0.99),
		{name: "selector.remaster_wait_mean_us", unit: "us", value: ratio(float64(ls.remasterNs)/1e3, float64(ls.updates)), n: ls.updates},
		{name: "selector.remaster_ratio", unit: "ratio", value: ratio(float64(ls.remastered), float64(ls.routes)), n: ls.routes},
		{name: "selector.parts_moved_per_update", unit: "count", value: ratio(float64(ls.partsMoved), float64(ls.updates)), n: ls.updates},
		us("selector.route_read_p50_us", routeRead, 0.50),
		us("sitemgr.begin_p50_us", ls.begin, 0.50),
		us("sitemgr.begin_p99_us", ls.begin, 0.99),
		us("sitemgr.commit_p50_us", ls.commit, 0.50),
		us("sitemgr.commit_p99_us", ls.commit, 0.99),
		{name: "sitemgr.apply_lag_p50_ms", unit: "ms", value: quantile(lagMs, 0.50), n: len(lagMs)},
		{name: "sitemgr.apply_lag_p99_ms", unit: "ms", value: quantile(lagMs, 0.99), n: len(lagMs)},
		{name: "storage.read_ns", unit: "ns", value: trimmedMean(read, 0.99), n: len(read)},
		{name: "storage.scan_ns_per_row", unit: "ns", value: ratio(float64(scanNs), float64(scanRows)), n: int(scanRows)},
		us("storage.exec_p50_us", ls.exec, 0.50),
		{name: "wal.frames_per_update", unit: "count", value: ratio(float64(sum(d.walEnd)), updates), n: int(updates)},
		{name: "wal.file_bytes_per_update", unit: "B", value: ratio(float64(in.frames), updates), n: int(updates)},
		{name: "transport.route_msgs_per_txn", unit: "count", value: ratio(catMsgs(d, transport.CatRoute), txns), n: int(txns)},
		{name: "transport.remaster_bytes_per_update", unit: "B", value: ratio(catBytes(d, transport.CatRemaster), updates), n: int(updates)},
		{name: "runtime.cpu_us_per_txn", unit: "us", value: ratio(float64(d.cpu)/1e3, txns), n: int(txns)},
		{name: "runtime.allocs_per_txn", unit: "count", value: ratio(float64(d.mallocs), txns), n: int(txns)},
		{name: "runtime.gc_per_ktxn", unit: "count", value: ratio(float64(d.gcs)*1e3, txns), n: int(txns)},
		{name: "core.ledger_coverage", unit: "ratio", value: led.coverage(), n: led.txns},
		{name: "core.ledger_gap_mean_us", unit: "us", value: ratio(float64(led.gap)/1e3, float64(led.txns)), n: led.txns},
		{name: "core.trace_overhead_txn_per_s", unit: "ratio",
			value: 1 - ratio(ratio(float64(in.txnsT), in.secsT), ratio(float64(in.txnsU), in.secsU))},
		{name: "core.trace_overhead_update_p50", unit: "ratio",
			value: ratio(latency("", in.updT, 0.5).value, latency("", in.updU, 0.5).value) - 1},
	}
	// Site aborts stay at zero on these workloads (remastering makes
	// writers wait, it does not abort them), so the ratio is reported but
	// carries no run-to-run signal.
	extra = []metric{
		{name: "sitemgr.abort_ratio", unit: "ratio", value: ratio(float64(d.aborts), float64(d.commits+d.aborts)), n: int(d.commits + d.aborts)},
	}
	return json, extra
}

// trimmedMean is the mean of the values at or below the q-quantile: a
// per-call cost that a preempted call cannot move far.
func trimmedMean(xs []float64, q float64) float64 {
	cut := quantile(append([]float64(nil), xs...), q)
	var sum float64
	n := 0
	for _, x := range xs {
		if x <= cut {
			sum += x
			n++
		}
	}
	return ratio(sum, float64(n))
}

func sum(xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

// frameBytes sums the encoded size of the WAL frames the untraced slices
// appended: the bytes a file-backed log writes for them (length and CRC
// header plus the codec payload).
func frameBytes(c *dynamast.Cluster, w window) int64 {
	var n int64
	for k, on := range w.traced {
		if on {
			continue
		}
		a, b := w.snaps[k], w.snaps[k+1]
		for i := range a.walEnd {
			log := c.Broker().Log(i)
			for off := a.walEnd[i]; off < b.walEnd[i]; off++ {
				if e, ok := log.Get(off); ok {
					n += int64(wal.EntryWireSize(&e))
				}
			}
		}
	}
	return n
}

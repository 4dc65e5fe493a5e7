// Command realcost is the repository's real-cost benchmark. It drives an
// in-process cluster of four DynaMast sites with no modelled network
// latency and no cost-model sleeps, so its figures measure what the Go code
// itself spends. Two closed-loop client sessions generate the load.
//
// Build and run it from the repository root through run.sh:
//
//	bash realcost/run.sh --workload update-durable --seed 1 --seconds 36 --trace 0
//	bash realcost/run.sh --workload remaster-churn --seed 1 --seconds 36 --trace 1
//	bash realcost/run.sh compare BENCHMARK.json parent.jsonl change.jsonl
//	bash realcost/run.sh recover-check --seed 1
//
// A run is nine trials, each on a freshly built cluster with an equal share
// of --seconds, and reports medians over them. --trace 0 measures the
// end-to-end metrics through the public Session API. --trace 1 alternates
// that with a traced client that records a span around every call into a
// layer and prints the per-layer metrics. The last line of standard output
// is one JSON object; see README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynamast"
	"dynamast/internal/systems"
)

// deadline stops a run that hangs; a normal run ends well inside it.
const deadline = 170 * time.Second

func main() {
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "realcost: run exceeded %v\n", deadline)
		os.Exit(2)
	})
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "recover-check" {
		os.Exit(recoverCheckMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		work    = flag.String("work", ".bench_build/realcost", "directory for WAL files and span output")
	)
	flag.Parse()
	ok, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "realcost: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// trials is the number of independent trials in a run. Each builds a
// fresh cluster (timed as one set-up), warms up, and measures an equal
// share of --seconds. A run reports the median over its trials, so one
// trial stuck in a slow placement or a noisy stretch of the machine moves
// the figure little.
const trials = 9

// warmup is each trial's unmeasured lead-in: placement settles and the
// clients' first affinity regions are remastered before the window opens.
const warmup = 1500 * time.Millisecond

func run(name string, seed int64, seconds time.Duration, trace bool, work string) (bool, error) {
	sp, err := specFor(name)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return false, err
	}
	stale, _ := filepath.Glob(filepath.Join(work, "wal-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
	fmt.Printf("realcost %s seed=%d seconds=%v trace=%v sites=%d clients=%d trials=%d NumCPU=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, trace, sites, clients, trials, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	rows := sp.wl.LoadRows()
	var (
		problems  []string
		attempted int
		failed    int
		setups    []float64
		perTrial  [][]metric // untraced: each trial's metrics
		layers    layerInput // traced: pooled over trials
		recs      []*recorder
		probe     layerStats
	)
	var steals []float64
	for i := 0; i < trials; i++ {
		tseed := seed*trials + int64(i)
		runtime.GC() // the previous trial's garbage must not tax this build
		r, took, err := build(sp, rows, tseed, work)
		if err != nil {
			return false, err
		}
		setups = append(setups, took.Seconds())
		w := drive(sp, r, i, tseed, warmup, seconds/trials, trace)
		for _, traced := range []bool{false, true} {
			t := w.tally(traced)
			attempted += t.attempted
			failed += t.failed
		}
		steals = append(steals, 100*w.steal())
		if trace {
			layers.add(r.c, w)
			recs = append(recs, w.recs...)
			if i == trials-1 {
				if ls := foldSpans(recs); len(ls.routeRead) == 0 || ls.scanRows == 0 {
					pr, err := readProbe(r.c, tseed, sp.wl.Tables()[0])
					if err != nil {
						problems = append(problems, err.Error())
					} else {
						probe = foldSpans([]*recorder{pr})
					}
				}
			}
		} else {
			json, extra := endToEnd(w)
			perTrial = append(perTrial, append(json, extra...))
		}
		problems = append(problems, checkTrial(sp, r, tseed)...)
		r.close()
	}
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d transactions failed", failed, attempted))
	}

	var report, extra []metric
	if trace {
		ls := foldSpans(recs)
		report, extra = perLayer(layers, ls, probe)
		if cov := ls.led.coverage(); cov < 0.9 || cov > 1.1 {
			problems = append(problems, fmt.Sprintf("update ledger covers %.3f of the traced total, want 0.9..1.1", cov))
		}
		path := filepath.Join(work, "spans-"+name+".tsv")
		if err := writeSpans(path, recs); err != nil {
			return false, err
		}
		printLedger(ls.led)
		fmt.Printf("spans written to %s\n", path)
	} else {
		all := medianOver(perTrial)
		report = append(all[:len(e2eNames):len(e2eNames)],
			metric{name: "peak_rss_mb", unit: "MB", value: peakRSSMB()},
			metric{name: "setup_s", unit: "s", value: median(setups), n: len(setups)})
		extra = all[len(e2eNames):]
	}
	// Time the hypervisor gave to other tenants slows every figure here;
	// it is reported so a slow run can be told from a slow program.
	extra = append(extra, metric{name: "steal_pct", unit: "%", value: median(steals), n: len(steals)})

	for i, m := range report {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			problems = append(problems, fmt.Sprintf("%s has no samples", m.name))
			report[i].value = 0
		}
	}
	for _, m := range append(report, extra...) {
		if m.n > 0 {
			fmt.Printf("%-38s %14.4f %-5s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-38s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, p := range problems {
		fmt.Printf("FAILED: %s\n", p)
	}

	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]valueUnit)}
	for _, m := range report {
		res.Metrics[m.name] = valueUnit{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// checkTrial runs the correctness checks on a trial's cluster and returns
// what failed.
func checkTrial(sp spec, r *rig, seed int64) []string {
	all, err := replicasAgree(r.c, sp.wl.Tables(), false)
	if err != nil {
		return []string{err.Error()}
	}
	fmt.Printf("check: %d sites hold identical rows (%d rows)\n", sites, all.rows)
	if sp.durable {
		if err := logHolds(sp, r); err != nil {
			return []string{err.Error()}
		}
		fmt.Println("check: the WAL files hold every committed update and every row version shown")
	}
	return nil
}

// medianOver combines the trials' metric lists, which share one layout:
// each value is the median over the trials, each count the total.
func medianOver(perTrial [][]metric) []metric {
	out := append([]metric(nil), perTrial[0]...)
	for j := range out {
		var vals []float64
		n := 0
		for _, ms := range perTrial {
			vals = append(vals, ms[j].value)
			n += ms[j].n
		}
		out[j].value, out[j].n = median(vals), n
	}
	return out
}

// probeTxns is the size of the read probe.
const probeTxns = 200

// readProbe runs a fixed set of read-only scans through the traced client
// after the window, for workloads whose own transactions never read (so
// the read-path layers still report a figure). Each scans 200 keys of
// table from a seeded start below 20,000, a range every workload loads.
func readProbe(c *dynamast.Cluster, seed int64, table string) (*recorder, error) {
	rnd := rand.New(rand.NewSource(seed))
	tc := newTracedClient(c, clients+1, trials, time.Now(), newLagTracker(c.Sites(), time.Now()))
	for i := 0; i < probeTxns; i++ {
		lo := uint64(rnd.Intn(20_000 - 200))
		err := tc.read(func(tx systems.Tx) error {
			if len(tx.Scan(table, lo, lo+200)) == 0 {
				return fmt.Errorf("probe scan of %s [%d, %d) returned nothing", table, lo, lo+200)
			}
			if _, ok := tx.Read(dynamast.RowRef{Table: table, Key: lo}); !ok {
				return fmt.Errorf("probe read of %s/%d found nothing", table, lo)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return tc.rec, nil
}

// printLedger reports the update path's mean cost by layer.
func printLedger(l ledger) {
	if l.txns == 0 {
		return
	}
	n := float64(l.txns)
	per := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	fmt.Printf("update ledger over %d traced updates (mean us): route %.1f + remaster_wait %.1f + begin %.1f + exec %.1f + commit %.1f = %.1f of total %.1f (backoff %.1f, other %.1f)\n",
		l.txns, per(l.route), per(l.remaster), per(l.begin), per(l.exec), per(l.commit),
		per(l.route+l.remaster+l.begin+l.exec+l.commit), per(l.total), per(l.backoff), per(l.gap-l.backoff))
}

// writeSpans writes every recorded span, one per line, ordered by trial
// and start.
func writeSpans(path string, recs []*recorder) error {
	var all []span
	for _, r := range recs {
		all = append(all, r.spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		if ti, tj := all[i].txn>>48, all[j].txn>>48; ti != tj {
			return ti < tj
		}
		return all[i].start < all[j].start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "trial\ttxn\tid\tparent\tname\tupdate\tstart_ns\tend_ns\targ")
	for _, s := range all {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%t\t%d\t%d\t%d\n",
			s.txn>>48, s.txn, s.id, s.parent, layerNames[s.name], s.update, s.start, s.end, s.arg)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The comparer summarises runs of the benchmark, one JSON result per line
// (other lines are skipped, so a run's whole standard output may be
// appended). Given one file it reports each metric's median and quartiles
// and flags as unresolved a metric whose spread exceeds its bound. Given a
// parent file and a change file, run i of one is paired with run i of the
// other, and each metric gets a verdict:
//
//   - better: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's quartile spread;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound (for an unbounded metric: the parent wins nine
//     tenths of the pairs by more than its quartile spread);
//   - unresolved: a side's spread exceeds the bound and the change does not
//     read better than the parent in every run;
//   - same: none of these.

// benchSpec is the part of BENCHMARK.json the comparer reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0: no bound (per-layer)
}

// summary is one metric's values over a set of runs.
type summary struct {
	vals       []float64
	q1, q2, q3 float64
}

func summarise(vals []float64) summary {
	s := summary{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return math.Abs(s.q3-s.q1) / math.Abs(s.q2) }

// verdict compares a change with its parent on one metric.
func verdict(m metricSpec, parent, change summary) string {
	sign := 1.0 // +1: higher is better
	if m.Better == "lower" {
		sign = -1
	}
	pairs := len(parent.vals)
	if len(change.vals) < pairs {
		pairs = len(change.vals)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (change.vals[i] - parent.vals[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	gain := sign * (change.q2 - parent.q2)
	iqr := math.Abs(parent.q3 - parent.q1)
	need := int(math.Ceil(0.9 * float64(pairs)))
	switch {
	case pairs > 0 && wins >= need && gain > iqr:
		return "better"
	case m.Bound > 0 && -gain > m.Bound*math.Abs(parent.q2):
		return "worse"
	case m.Bound == 0 && pairs > 0 && losses >= need && -gain > iqr:
		return "worse"
	case m.Bound > 0 && (parent.spread() > m.Bound || change.spread() > m.Bound) && !allBetter(sign, parent, change):
		return "unresolved"
	}
	return "same"
}

// allBetter reports whether every change run reads better than every
// parent run.
func allBetter(sign float64, parent, change summary) bool {
	for _, c := range change.vals {
		for _, p := range parent.vals {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

// readRuns collects each metric's values from the JSON result lines of r,
// in run order.
func readRuns(r io.Reader) (map[string][]float64, int, error) {
	out := make(map[string][]float64)
	runs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, v := range res.Metrics {
			out[name] = append(out[name], v.Value)
		}
	}
	return out, runs, sc.Err()
}

func readRunsFile(path string) (map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return readRuns(f)
}

// compareMain implements "realcost compare BENCHMARK.json runs.jsonl
// [change.jsonl]" and returns the exit code: 1 when a bounded metric got
// worse, 2 on bad input.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil || fs.NArg() < 2 || fs.NArg() > 3 {
		fmt.Fprintln(os.Stderr, "usage: realcost compare BENCHMARK.json runs.jsonl [change.jsonl]")
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var bs benchSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", fs.Arg(0), err)
		return 2
	}
	var sets []map[string][]float64
	for _, path := range fs.Args()[1:] {
		vals, runs, err := readRunsFile(path)
		if err != nil || runs == 0 {
			fmt.Fprintf(os.Stderr, "%s: no runs (%v)\n", path, err)
			return 2
		}
		sets = append(sets, vals)
	}
	return report(out, append(bs.EndToEnd, bs.PerLayer...), sets)
}

// report prints the summary (one set) or the verdicts (two sets).
func report(out io.Writer, specs []metricSpec, sets []map[string][]float64) int {
	code := 0
	for _, m := range specs {
		pv, ok := sets[0][m.Name]
		if !ok {
			continue
		}
		p := summarise(pv)
		if len(sets) == 1 {
			flagged := ""
			if m.Bound > 0 && p.spread() > m.Bound {
				flagged = "  unresolved: spread above bound"
			}
			fmt.Fprintf(out, "%-38s n=%-3d median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.3f bound %5.3f%s\n",
				m.Name, len(pv), p.q2, m.Unit, p.q1, p.q3, p.spread(), m.Bound, flagged)
			continue
		}
		cv, ok := sets[1][m.Name]
		if !ok {
			continue
		}
		c := summarise(cv)
		v := verdict(m, p, c)
		if v == "worse" && m.Bound > 0 {
			code = 1
		}
		fmt.Fprintf(out, "%-38s parent %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f] %-5s %+7.2f%%  %s\n",
			m.Name, p.q2, p.q1, p.q3, c.q2, c.q1, c.q3, m.Unit, 100*(c.q2-p.q2)/math.Abs(p.q2), v)
	}
	return code
}

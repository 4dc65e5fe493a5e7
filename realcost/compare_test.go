package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3 gives these cut points.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	higher := metricSpec{Name: "txn_per_s", Better: "higher", Bound: 0.1}
	lower := metricSpec{Name: "update_p50_ms", Better: "lower", Bound: 0.1}
	layer := metricSpec{Name: "sitemgr.commit_p50_us", Better: "lower"}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}

	cases := []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"clear gain", higher, steady, scaled(steady, 1.2), "better"},
		{"clear gain, lower is better", lower, steady, scaled(steady, 0.8), "better"},
		{"within noise", higher, steady, steady, "same"},
		{"regression beyond bound", higher, steady, scaled(steady, 0.85), "worse"},
		{"regression inside bound", higher, steady, scaled(steady, 0.95), "same"},
		{"latency regression", lower, steady, scaled(steady, 1.2), "worse"},
		{"spread wider than bound", higher, noisy, scaled(noisy, 1.02), "unresolved"},
		{"every change run better despite noise", higher, noisy, scaled(noisy, 3), "better"},
		{"unbounded layer gain", layer, steady, scaled(steady, 0.5), "better"},
		{"unbounded layer loss", layer, steady, scaled(steady, 1.5), "worse"},
		{"unbounded layer noise", layer, noisy, scaled(noisy, 1.01), "same"},
	}
	for _, c := range cases {
		got := verdict(c.m, summarise(c.parent), summarise(c.change))
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestNineTenthsRule(t *testing.T) {
	m := metricSpec{Name: "txn_per_s", Better: "higher", Bound: 0.2}
	parent := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	// Eight wins of ten are not enough, however large the gain.
	change := []float64{150, 150, 150, 150, 150, 150, 150, 150, 90, 90}
	if got := verdict(m, summarise(parent), summarise(change)); got == "better" {
		t.Errorf("8/10 wins gave %s", got)
	}
	// Nine wins and one tie: the tie counts for neither side.
	change[8], change[9] = 150, 100
	if got := verdict(m, summarise(parent), summarise(change)); got != "better" {
		t.Errorf("9/10 wins gave %s, want better", got)
	}
}

func TestReadRunsAndReport(t *testing.T) {
	runs := `realcost scan-heavy seed=1
txn_per_s 4000 1/s
{"correct":true,"attempted":10,"failed":0,"metrics":{"txn_per_s":{"value":4000,"unit":"1/s"},"setup_s":{"value":0.5,"unit":"s"}}}
{"correct":true,"attempted":10,"failed":0,"metrics":{"txn_per_s":{"value":4100,"unit":"1/s"},"setup_s":{"value":0.6,"unit":"s"}}}
not json {
{"correct":true,"attempted":10,"failed":0,"metrics":{"txn_per_s":{"value":3900,"unit":"1/s"},"setup_s":{"value":0.4,"unit":"s"}}}
`
	vals, n, err := readRuns(strings.NewReader(runs))
	if err != nil || n != 3 {
		t.Fatalf("readRuns: %d runs, %v", n, err)
	}
	if got := vals["txn_per_s"]; len(got) != 3 || got[1] != 4100 {
		t.Fatalf("txn_per_s values %v", got)
	}
	specs := []metricSpec{
		{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2},
	}
	var out bytes.Buffer
	if code := report(&out, specs, []map[string][]float64{vals}); code != 0 {
		t.Errorf("summary exit code %d", code)
	}
	if s := out.String(); !strings.Contains(s, "median    4000.0000") || !strings.Contains(s, "setup_s") ||
		!strings.Contains(s, "unresolved") {
		t.Errorf("summary:\n%s", s)
	}

	worse := map[string][]float64{"txn_per_s": {3000, 3100, 2900}, "setup_s": {0.5, 0.6, 0.4}}
	out.Reset()
	if code := report(&out, specs, []map[string][]float64{vals, worse}); code != 1 {
		t.Errorf("regression exit code %d, want 1\n%s", code, out.String())
	}
}

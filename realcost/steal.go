package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks reads the machine-wide CPU time counters (the "cpu" line of
// /proc/stat); nil where they are not available.
func cpuTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]int64, len(f)-1)
	for i, s := range f[1:] {
		out[i], _ = strconv.ParseInt(s, 10, 64)
	}
	return out
}

// stealShare is the share of CPU time stolen between two cpuTicks
// readings (0 when either is missing).
func stealShare(a, b []int64) float64 {
	if a == nil || b == nil || len(a) != len(b) {
		return 0
	}
	var total int64
	for i := range a {
		total += b[i] - a[i]
	}
	const steal = 7 // user nice system idle iowait irq softirq steal ...
	return ratio(float64(b[steal]-a[steal]), float64(total))
}

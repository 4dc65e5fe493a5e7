package main

import (
	"fmt"
	"os"
	"time"

	"dynamast"
	"dynamast/internal/workload"
)

// Real-cost settings, the same on every workload: an in-process cluster of
// four sites with the zero NetworkConfig (no modelled wire latency), the
// zero CostModel (no execution sleeps) and the default epoch interval.
const (
	sites   = 4
	clients = 2 // closed-loop sessions, one goroutine each
)

// spec is one benchmark workload.
type spec struct {
	name    string
	wl      workload.Workload
	weights dynamast.Weights
	// durable backs the update logs with files (WithDurableDir). Each
	// flush is one file write without fsync.
	durable bool
}

// workloads lists the benchmark's workloads by name.
var workloads = []string{"update-durable", "scan-heavy", "remaster-churn"}

// specFor builds the named workload.
func specFor(name string) (spec, error) {
	switch name {
	case "update-durable":
		// YCSB, 100% three-key RMW over neighbouring partitions, each
		// client pinned to one region for 1000 transactions.
		return spec{name: name, weights: dynamast.YCSBWeights(), durable: true,
			wl: workload.NewYCSB(workload.YCSBConfig{Keys: 100_000, ValueSize: 100,
				RMWPercent: 100, AffinityTxns: 1000})}, nil
	case "scan-heavy":
		// YCSB, 90% scans of 2-10 partitions, 10% RMW, uniform.
		return spec{name: name, weights: dynamast.YCSBWeights(),
			wl: workload.NewYCSB(workload.YCSBConfig{Keys: 100_000, ValueSize: 100,
				RMWPercent: 10})}, nil
	case "remaster-churn":
		// SmallBank defaults: 45% deposits, 40% payments, 15% balances
		// over 20k customers.
		return spec{name: name, weights: dynamast.SmallBankWeights(),
			wl: workload.NewSmallBank(workload.SmallBankConfig{})}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// rig is one built cluster.
type rig struct {
	c   *dynamast.Cluster
	dir string // WAL directory; empty for in-memory logs
	// initial is every loaded partition's master right after the load,
	// which recovery needs because the WAL records only changes.
	initial map[uint64]int
}

// options returns the cluster options of sp with its WAL under dir.
func (sp spec) options(seed int64, dir string) []dynamast.Option {
	opts := []dynamast.Option{
		dynamast.WithSites(sites),
		dynamast.WithPartitioner(sp.wl.Partitioner()),
		dynamast.WithWeights(sp.weights),
		dynamast.WithSeed(seed),
	}
	if dir != "" {
		opts = append(opts, dynamast.WithDurableDir(dir))
	}
	return opts
}

// build constructs a cluster for sp, creates the schema and loads rows,
// returning the rig and the time the three steps took. work is the
// directory a durable WAL is created under.
func build(sp spec, rows []dynamast.LoadRow, seed int64, work string) (*rig, time.Duration, error) {
	var dir string
	if sp.durable {
		var err error
		if dir, err = os.MkdirTemp(work, "wal-"); err != nil {
			return nil, 0, fmt.Errorf("wal dir: %w", err)
		}
	}
	start := time.Now()
	c, err := dynamast.New(sp.options(seed, dir)...)
	if err != nil {
		return nil, 0, fmt.Errorf("build cluster: %w", err)
	}
	for _, t := range sp.wl.Tables() {
		c.CreateTable(t)
	}
	c.Load(rows)
	took := time.Since(start)

	r := &rig{c: c, dir: dir, initial: make(map[uint64]int)}
	part := sp.wl.Partitioner()
	for _, row := range rows {
		p := part(row.Ref)
		if _, ok := r.initial[p]; !ok {
			r.initial[p] = c.Group().MasterOf(p)
		}
	}
	return r, took, nil
}

// close stops the cluster and removes its WAL directory.
func (r *rig) close() {
	r.c.Close()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

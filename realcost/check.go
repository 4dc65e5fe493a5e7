package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"dynamast"
	"dynamast/internal/storage"
	"dynamast/internal/wal"
)

// quiesceTimeout bounds the wait for replication to drain after a run.
const quiesceTimeout = 30 * time.Second

// digest summarises one site's workload rows: the row count and an
// order-independent sum of per-row hashes over table, key and value.
type digest struct {
	rows uint64
	sum  uint64
}

// loadStamp marks the versions Cluster.Load installs; the WAL never holds
// them.
var loadStamp = storage.Stamp{}

// rowHash hashes one row version: table, key and value.
func rowHash(table string, key uint64, data []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(table))
	var k [8]byte
	for i := range k {
		k[i] = byte(key >> (8 * i))
	}
	h.Write(k[:])
	h.Write(data)
	return h.Sum64()
}

// siteDigest digests a site's newest row versions; with written set, only
// the rows committed after the load.
func siteDigest(c *dynamast.Cluster, site int, tables []string, written bool) digest {
	var d digest
	st := c.Sites()[site].Store()
	names := append([]string(nil), tables...)
	sort.Strings(names)
	for _, name := range names {
		t := st.Table(name)
		if t == nil {
			continue
		}
		t.ForEachLatest(func(key uint64, data []byte, stamp storage.Stamp) {
			if written && stamp == loadStamp {
				return
			}
			d.rows++
			d.sum += rowHash(name, key, data)
		})
	}
	return d
}

// replicasAgree waits for replication to drain and checks that every site
// holds the same workload rows, returning site 0's digest.
func replicasAgree(c *dynamast.Cluster, tables []string, written bool) (digest, error) {
	if err := c.WaitQuiesced(quiesceTimeout); err != nil {
		return digest{}, err
	}
	want := siteDigest(c, 0, tables, written)
	for i := 1; i < len(c.Sites()); i++ {
		if got := siteDigest(c, i, tables, written); got != want {
			return want, fmt.Errorf("site %d rows %+v differ from site 0 rows %+v", i, got, want)
		}
	}
	return want, nil
}

// recoverMatches closes r's durable cluster and rebuilds one on the same
// WAL directory the documented way (schema, then Recover), and checks that
// every recovered site holds exactly the rows committed after the load as
// they were before close. Loaded rows are not logged, so they are outside
// the comparison.
func recoverMatches(sp spec, r *rig, seed int64) error {
	before, err := replicasAgree(r.c, sp.wl.Tables(), true)
	if err != nil {
		return err
	}
	r.c.Close()
	c, err := dynamast.New(sp.options(seed, r.dir)...)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.c = c // closed by the caller
	for _, t := range sp.wl.Tables() {
		c.CreateTable(t)
	}
	if err := c.Recover(r.initial); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := c.WaitQuiesced(quiesceTimeout); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	for i := range c.Sites() {
		if got := siteDigest(c, i, sp.wl.Tables(), true); got != before {
			return fmt.Errorf("recovered site %d holds written rows %+v, want the %+v before close", i, got, before)
		}
	}
	return nil
}

// loggedRow names one row version in the update logs.
type loggedRow struct {
	stamp storage.Stamp
	table string
	key   uint64
}

// logHolds closes r's durable cluster, reopens its WAL files and checks
// that they hold what the cluster acknowledged: no torn or corrupt bytes,
// every site's log holds exactly the update transactions the site
// committed under dense sequence numbers, and every row version written
// after the load that the sites showed before close is in its origin's
// log with the same bytes. Replicas must already agree (replicasAgree),
// so site 0's newest versions stand for every site's.
func logHolds(sp spec, r *rig) error {
	want := make(map[loggedRow]uint64)
	st := r.c.Sites()[0].Store()
	for _, name := range sp.wl.Tables() {
		if t := st.Table(name); t != nil {
			t.ForEachLatest(func(key uint64, data []byte, stamp storage.Stamp) {
				if stamp != loadStamp {
					want[loggedRow{stamp, name, key}] = rowHash(name, key, data)
				}
			})
		}
	}
	commits := make([]uint64, len(r.c.Sites()))
	for i, s := range r.c.Sites() {
		commits[i] = s.Commits()
	}
	r.c.Close()

	b, err := wal.OpenBroker(r.dir, len(commits))
	if err != nil {
		return fmt.Errorf("reopen logs: %w", err)
	}
	defer b.Close()
	for i := range commits {
		l := b.Log(i)
		if n := l.TornBytes(); n > 0 {
			return fmt.Errorf("site %d log has %d torn or corrupt bytes after a clean close", i, n)
		}
		var txns uint64
		note := func(seq uint64, writes []storage.Write) error {
			txns++
			if seq != txns {
				return fmt.Errorf("site %d log holds update seq %d where %d belongs", i, seq, txns)
			}
			for _, w := range writes {
				row := loggedRow{storage.Stamp{Origin: i, Seq: seq}, w.Ref.Table, w.Ref.Key}
				if h, ok := want[row]; ok {
					if w.Deleted || h != rowHash(w.Ref.Table, w.Ref.Key, w.Data) {
						return fmt.Errorf("site %d log holds other bytes for %s/%d at seq %d than the sites showed", i, w.Ref.Table, w.Ref.Key, seq)
					}
					delete(want, row)
				}
			}
			return nil
		}
		for off := l.Base(); off < l.Len(); off++ {
			e, _ := l.Get(off)
			if !e.IsUpdate() {
				continue
			}
			if e.Origin != i {
				return fmt.Errorf("site %d log holds an entry of site %d", i, e.Origin)
			}
			if e.Kind == wal.KindUpdate {
				err = note(e.TVV[i], e.Writes)
			} else {
				for j, m := range e.Txns {
					if err = note(e.FirstSeq()+uint64(j), m.Writes); err != nil {
						break
					}
				}
			}
			if err != nil {
				return err
			}
		}
		if txns != commits[i] {
			return fmt.Errorf("site %d log holds %d update transactions, the site committed %d", i, txns, commits[i])
		}
	}
	for row := range want {
		return fmt.Errorf("%d row versions the sites showed are in no log, e.g. %s/%d at site %d seq %d",
			len(want), row.table, row.key, row.stamp.Origin, row.stamp.Seq)
	}
	return nil
}

// recoverCheckMain is the recover-check command: one update-durable trial,
// then recoverMatches. It exits 1 when the recovered rows differ, which
// they do at this revision: Recover's full-redo path replays a site's own
// log without waiting for the remote writes its entries depend on, so a
// row written at one site and, after a remaster, at another can end with
// the older version on top. The benchmark runs keep to the durable path
// they measure (logHolds) until Recover orders the replay.
func recoverCheckMain(args []string) int {
	fs := flag.NewFlagSet("recover-check", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 4, "seconds of load before the restart")
	work := fs.String("work", ".bench_build/realcost", "directory for WAL files")
	fs.Parse(args)
	sp, err := specFor("update-durable")
	if err == nil {
		err = os.MkdirAll(*work, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "realcost: %v\n", err)
		return 1
	}
	r, _, err := build(sp, sp.wl.LoadRows(), *seed, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "realcost: %v\n", err)
		return 1
	}
	defer r.close()
	w := drive(sp, r, 0, *seed, warmup, time.Duration(*seconds)*time.Second, false)
	if t := w.tally(false); t.failed > 0 {
		fmt.Printf("FAILED: %d of %d transactions failed\n", t.failed, t.attempted)
		return 1
	}
	if err := recoverMatches(sp, r, *seed); err != nil {
		fmt.Printf("FAILED: %v\n", err)
		return 1
	}
	fmt.Println("check: recovery from the WAL directory restored the same rows")
	return 0
}

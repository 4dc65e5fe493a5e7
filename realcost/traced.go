package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dynamast"
	"dynamast/internal/selector"
	"dynamast/internal/sitemgr"
	"dynamast/internal/storage"
	"dynamast/internal/systems"
	"dynamast/internal/transport"
	"dynamast/internal/vclock"
)

// The traced client makes the calls core.Session makes, in the same order
// and with the same checks and retries, and records a span around each call
// into a layer. It covers the configuration every workload here runs: one
// router shard, no replica selectors, full replication. There the router is
// the master selector itself, so the session's two other routing paths
// never run: the gossiped placement cache (sharded selectors only) and the
// resubmission through the master selector on a retry (replica selectors
// only). Every attempt calls RouteWrite. The session's own bookkeeping (the
// Fig. 7 breakdown and the lifecycle trace ring) is unexported and not
// repeated, so the traced path does slightly less work than the session.

// layer names a span.
type layer uint8

const (
	spanTxn       layer = iota // the whole transaction (core)
	spanRoute                  // RouteWrite / RouteToMaster (selector)
	spanRemaster               // Route.RemasterWait inside the route call (selector)
	spanRouteRead              // RouteRead (selector)
	spanBegin                  // Site.Begin (sitemgr)
	spanExec                   // the stored procedure plus Site.Exec
	spanRead                   // Txn.Read (storage)
	spanScan                   // Txn.Scan (storage)
	spanWrite                  // Txn.Write (sitemgr write buffer)
	spanCommit                 // Txn.Commit (sitemgr: commit, seal wait, WAL append)
	spanBackoff                // retry backoff sleep (core)
	numLayers
)

var layerNames = [numLayers]string{"txn", "route", "remaster_wait", "route_read",
	"begin", "exec", "read", "scan", "write", "commit", "backoff"}

// span is one timed call. Times are nanoseconds since the run's origin.
type span struct {
	txn        uint64 // per-transaction id, shared by its spans
	id, parent uint32 // id 1 is the txn root; parent 0 means none
	name       layer
	update     bool  // the span belongs to an update transaction
	start, end int64 // ns since origin
	arg        int64 // rows returned (scan), parts moved (route), attempts (txn)
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps one client's spans of one trial in memory.
type recorder struct {
	origin time.Time
	trial  int
	client uint64
	seq    uint64
	txn    uint64
	next   uint32
	update bool
	spans  []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// open starts a new transaction and returns its root span id.
func (r *recorder) open(update bool) uint32 {
	r.seq++
	r.txn = uint64(r.trial)<<48 | r.client<<40 | r.seq
	r.next = 1
	r.update = update
	return 1
}

// add records a finished span and returns its id.
func (r *recorder) add(parent uint32, name layer, start, end, arg int64) uint32 {
	id := uint32(1)
	if name != spanTxn {
		r.next++
		id = r.next
	}
	r.spans = append(r.spans, span{txn: r.txn, id: id, parent: parent, name: name,
		update: r.update, start: start, end: end, arg: arg})
	return id
}

// tracedClient is one closed-loop client driven through the traced path.
type tracedClient struct {
	c      *dynamast.Cluster
	id     int
	router selector.Router
	cvv    vclock.Vector
	rec    *recorder
	lag    *lagTracker
}

func newTracedClient(c *dynamast.Cluster, id, trial int, origin time.Time, lag *lagTracker) *tracedClient {
	return &tracedClient{c: c, id: id, router: c.Group().RouterFor(id),
		cvv: vclock.New(len(c.Sites())), lag: lag,
		rec: &recorder{origin: origin, trial: trial, client: uint64(id)}}
}

// The session's retry policy (internal/core/session.go).
const beginRetries = 64

func backoff(rec *recorder, parent uint32, attempt int) {
	if attempt <= 1 {
		return
	}
	d := time.Duration(attempt) * 2 * time.Millisecond
	if d > 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	t := rec.now()
	time.Sleep(d)
	rec.add(parent, spanBackoff, t, rec.now(), 0)
}

// update runs fn as an update transaction, as Session.UpdateCtx does with a
// background context.
func (tc *tracedClient) update(ws []storage.RowRef, fn func(systems.Tx) error) error {
	rec := tc.rec
	root := rec.open(true)
	t0 := rec.now()
	attempts, err := tc.updateAttempts(root, ws, fn)
	rec.add(0, spanTxn, t0, rec.now(), int64(attempts))
	return err
}

func (tc *tracedClient) updateAttempts(root uint32, ws []storage.RowRef, fn func(systems.Tx) error) (int, error) {
	rec, net, sites := tc.rec, tc.c.Network(), tc.c.Sites()
	for attempt := 0; ; attempt++ {
		net.Send(transport.CatRoute, transport.MsgOverhead+transport.SizeOfRefs(ws))
		t := rec.now()
		route, err := tc.router.RouteWrite(tc.id, ws, tc.cvv)
		id := rec.add(root, spanRoute, t, rec.now(), int64(route.PartsMoved))
		if route.RemasterWait > 0 {
			// The release/grant chain runs inside the route call; its
			// start is not visible from outside, only its length.
			rec.add(id, spanRemaster, t, t+int64(route.RemasterWait), 0)
		}
		if err != nil {
			if dynamast.Retryable(err) && attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("route: %w", err)
		}
		net.Send(transport.CatRoute, transport.MsgOverhead+transport.SizeOfVector(route.MinVV))
		minVV := tc.cvv.Clone().MaxInto(route.MinVV)
		site := sites[route.Site]

		net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfRefs(ws))
		t = rec.now()
		tx, err := site.Begin(minVV, ws)
		rec.add(root, spanBegin, t, rec.now(), 0)
		if err != nil {
			if dynamast.Retryable(err) && attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("begin after %d retries: %w", attempt, err)
		}
		ferr := tc.exec(root, site, tx, fn)
		if tx.SnapshotTooOld() && attempt < beginRetries {
			tx.Abort()
			backoff(rec, root, attempt)
			continue
		}
		if ferr != nil {
			tx.Abort()
			return attempt + 1, ferr
		}
		t = rec.now()
		tvv, err := tx.Commit()
		end := rec.now()
		rec.add(root, spanCommit, t, end, 0)
		if err != nil {
			if dynamast.Retryable(err) && attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("commit: %w", err)
		}
		tc.lag.committed(route.Site, tvv[route.Site], end)
		net.Send(transport.CatTxn, transport.MsgOverhead+transport.SizeOfVector(tvv))
		tc.cvv = tc.cvv.MaxInto(tvv)
		return attempt + 1, nil
	}
}

// exec runs the stored procedure against a span-recording Tx and charges
// its modelled cost through the site's execution slots.
func (tc *tracedClient) exec(root uint32, site *sitemgr.Site, tx *sitemgr.Txn, fn func(systems.Tx) error) error {
	rec := tc.rec
	t := rec.now()
	rec.next++ // reserve the exec span's id so its children can name it
	id := rec.next
	ferr := fn(tracedTx{tx: tx, rec: rec, parent: id})
	site.Exec(tx.Cost)
	rec.spans = append(rec.spans, span{txn: rec.txn, id: id, parent: root, name: spanExec,
		update: rec.update, start: t, end: rec.now()})
	return ferr
}

// read runs fn as a read-only transaction, as Session.ReadHintedCtx does
// under full replication (the hint only steers partial replication).
func (tc *tracedClient) read(fn func(systems.Tx) error) error {
	rec := tc.rec
	root := rec.open(false)
	t0 := rec.now()
	attempts, err := tc.readAttempts(root, fn)
	rec.add(0, spanTxn, t0, rec.now(), int64(attempts))
	return err
}

func (tc *tracedClient) readAttempts(root uint32, fn func(systems.Tx) error) (int, error) {
	rec, net, sites := tc.rec, tc.c.Network(), tc.c.Sites()
	for attempt := 0; ; attempt++ {
		net.Send(transport.CatRoute, transport.MsgOverhead)
		t := rec.now()
		route := tc.router.RouteRead(tc.id, tc.cvv)
		rec.add(root, spanRouteRead, t, rec.now(), 0)
		net.Send(transport.CatRoute, transport.MsgOverhead)

		net.Send(transport.CatTxn, transport.MsgOverhead)
		site := sites[route.Site]
		t = rec.now()
		tx, err := site.Begin(tc.cvv, nil)
		rec.add(root, spanBegin, t, rec.now(), 0)
		if err != nil {
			if dynamast.Retryable(err) && attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("read begin: %w", err)
		}
		ferr := tc.exec(root, site, tx, fn)
		// Full replication hosts every partition everywhere, so the
		// not-hosted poison cannot fire; re-routing is the session's
		// answer short of the replica add it makes after two bounces.
		if missing := tx.NotHostedParts(); len(missing) > 0 {
			tx.Abort()
			if attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("read after %d retries: %w", attempt, sitemgr.ErrNotHosted)
		}
		if tx.SnapshotTooOld() {
			tx.Abort()
			if attempt < beginRetries {
				backoff(rec, root, attempt)
				continue
			}
			return attempt + 1, fmt.Errorf("read after %d retries: %w", attempt, sitemgr.ErrSnapshotTooOld)
		}
		if ferr != nil {
			tx.Abort()
			return attempt + 1, ferr
		}
		snap := tx.Snapshot()
		t = rec.now()
		_, err = tx.Commit()
		rec.add(root, spanCommit, t, rec.now(), 0)
		if err != nil {
			return attempt + 1, err
		}
		net.Send(transport.CatTxn, transport.MsgOverhead)
		tc.cvv = tc.cvv.MaxInto(snap)
		return attempt + 1, nil
	}
}

// tracedTx records a span around each call the stored procedure makes.
type tracedTx struct {
	tx     *sitemgr.Txn
	rec    *recorder
	parent uint32
}

func (a tracedTx) Read(ref storage.RowRef) ([]byte, bool) {
	t := a.rec.now()
	data, ok := a.tx.Read(ref)
	a.rec.add(a.parent, spanRead, t, a.rec.now(), 0)
	return data, ok
}

func (a tracedTx) Scan(table string, lo, hi uint64) []storage.KV {
	t := a.rec.now()
	rows := a.tx.Scan(table, lo, hi)
	a.rec.add(a.parent, spanScan, t, a.rec.now(), int64(len(rows)))
	return rows
}

func (a tracedTx) Write(ref storage.RowRef, data []byte) error {
	t := a.rec.now()
	err := a.tx.Write(ref, data)
	a.rec.add(a.parent, spanWrite, t, a.rec.now(), 0)
	return err
}

// lagTracker measures apply lag: the time from an update's commit return
// until every other site's version vector covers the origin's sequence
// number, which is epoch seal, ship and refresh apply together. One
// goroutine polls the sites' vectors while commits are pending.
type lagTracker struct {
	sites  []*sitemgr.Site
	origin time.Time
	mu     sync.Mutex
	wait   []pendingApply
	lags   []time.Duration
	wake   chan struct{}
}

type pendingApply struct {
	site int
	seq  uint64
	at   int64 // commit return, ns since origin
}

// lagPoll is the polling interval while commits are pending; it bounds the
// resolution of the apply-lag figures.
const lagPoll = 100 * time.Microsecond

func newLagTracker(sites []*sitemgr.Site, origin time.Time) *lagTracker {
	return &lagTracker{sites: sites, origin: origin, wake: make(chan struct{}, 1)}
}

func (l *lagTracker) committed(site int, seq uint64, at int64) {
	l.mu.Lock()
	l.wait = append(l.wait, pendingApply{site: site, seq: seq, at: at})
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// run polls until ctx is done.
func (l *lagTracker) run(ctx context.Context) {
	svvs := make([]vclock.Vector, len(l.sites))
	for {
		l.mu.Lock()
		idle := len(l.wait) == 0
		l.mu.Unlock()
		if idle {
			select {
			case <-l.wake:
			case <-ctx.Done():
				return
			}
		}
		select {
		case <-time.After(lagPoll):
		case <-ctx.Done():
			return
		}
		for i, s := range l.sites {
			svvs[i] = s.SVV()
		}
		now := time.Since(l.origin)
		l.mu.Lock()
		keep := l.wait[:0]
		for _, p := range l.wait {
			if covered(svvs, p.site, p.seq) {
				l.lags = append(l.lags, now-time.Duration(p.at))
			} else {
				keep = append(keep, p)
			}
		}
		l.wait = keep
		l.mu.Unlock()
	}
}

// covered reports whether every site other than origin has applied seq.
func covered(svvs []vclock.Vector, origin int, seq uint64) bool {
	for i, v := range svvs {
		if i != origin && v[origin] < seq {
			return false
		}
	}
	return true
}

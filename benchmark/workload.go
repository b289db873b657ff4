package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// workload is one set of inputs. Later issues refer to workloads by name.
type workload struct {
	name string
	why  string
	// pool is db.Options.PoolSize: 8192 keeps the ~2,000 pages resident, 256
	// keeps about an eighth of them.
	pool   int
	queues bool
	// step runs one transaction of a client role; readOnly marks the roles
	// whose transactions go through RunReadOnlyWith.
	step     [clients]func(*client)
	readOnly [clients]bool
	// tail writes the image's redo tail.
	tail func(cfg config, w *workload, e *engine, m *model, seed int64) error
}

const scanRows = 16

const (
	phaseTail uint64 = iota + 1
	phaseForward
	phaseProbe
)

var workloads = []*workload{
	{
		name: "hot-update",
		why:  "zipfian single-row updates on a resident table: the commit path (lock, wal, txn, mvcc push, heap placement) does all the work; buffer misses, SMOs and recovery do none",
		pool: 8192,
		step: [clients]func(*client){stepHotUpdate, stepHotUpdate},
		tail: tailFromSteps,
	},
	{
		name:     "scan-beside-write",
		why:      "snapshot reader (4 Gets + 16-row Scan) beside a locking writer (2 Gets + 16-row Scan + Update): the same tree and buffer code latch-only and locked, so a gain for one side that costs the other shows",
		pool:     8192,
		step:     [clients]func(*client){stepSnapshotReader, stepLockingWriter},
		readOnly: [clients]bool{true, false},
		tail:     tailFromSteps,
	},
	{
		name:   "churn-ooc",
		why:    "insert 2 + delete 2 on per-client queues + a 16-row locked Scan with the pool at an eighth of the pages: the only workload where buffer misses, steal write-backs and index SMOs do the work",
		pool:   256,
		queues: true,
		step:   [clients]func(*client){stepChurn, stepChurn},
		tail:   tailFromSteps,
	},
	{
		name: "crash-restart",
		why:  "every row updated since the checkpoint (~400k records to redo on cold pages) plus a loser: only here do analysis, redo, undo and log scans do the work; uniform updates follow on the recovered engine",
		pool: 8192,
		step: [clients]func(*client){stepUniformUpdate, stepUniformUpdate},
		tail: tailUpdateAll,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// client is one closed-loop caller: it draws its inputs from its own seeded
// generator and waits for each transaction before sending the next.
type client struct {
	e    *engine
	w    *workload
	cfg  config
	role int
	// phase keeps the stamps of the tail, the forward run and the restart
	// probes apart, so a lost write cannot hide behind an equal stamp.
	phase uint64
	rng   *rand.Rand
	zipf  *rand.Zipf
	tr    *tracer
	opts  db.RunTxnOpts
	seq   uint64
	val   [valueSize]byte

	// Acknowledged state, recorded through RunTxnOpts.OnCommit.
	acked    map[int]ack
	qlo, qhi int

	// One sample per transaction, timed around the RunTxn call. The counters
	// let the measuring goroutine cut the window into slices while it runs.
	origin         time.Time
	rwDone, roDone []txnSample
	nRW, nRO       atomic.Int64
	attempted      int
	failed         int
	failure        string // first failure, for the report
}

// txnSample is one transaction: when it ended (microseconds since the
// client's origin) and how long its caller waited for it.
type txnSample struct {
	endUs uint32
	latNs uint32
}

func newClient(e *engine, w *workload, cfg config, m *model, role int, phase uint64, seed int64, tr *tracer) *client {
	stream := seed*1000 + int64(phase)*10 + int64(role) + 1
	rng := rand.New(rand.NewSource(stream))
	return &client{
		e: e, w: w, cfg: cfg, role: role, phase: phase, rng: rng, tr: tr,
		zipf:  rand.NewZipf(rng, 1.2, 1, uint64(cfg.rows-1)),
		opts:  db.RunTxnOpts{Seed: stream},
		acked: make(map[int]ack),
		qlo:   m.qlo[role], qhi: m.qhi[role],
		origin: time.Now(),
		rwDone: make([]txnSample, 0, 1<<18), roDone: make([]txnSample, 0, 1<<18),
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if c.failure == "" {
		c.failure = fmt.Sprintf("%s client %d: ", c.w.name, c.role) + fmt.Sprintf(format, args...)
	}
}

// startMeasuring drops the warm-up's samples; later samples are timed from
// origin.
func (c *client) startMeasuring(origin time.Time) {
	c.origin = origin
	c.rwDone, c.roDone = c.rwDone[:0], c.roDone[:0]
	c.nRW.Store(0)
	c.nRO.Store(0)
}

func sampleAt(origin, start, end time.Time) txnSample {
	lat := end.Sub(start)
	if lat > time.Duration(^uint32(0)) {
		lat = time.Duration(^uint32(0))
	}
	return txnSample{endUs: uint32(end.Sub(origin) / time.Microsecond), latNs: uint32(lat)}
}

// rw runs body as one read-write transaction through RunTxnWith, timed around
// the call so retries and backoff count. onAck runs with the commit's
// acknowledgement and receives the commit record's LSN.
func (c *client) rw(body func(tx *txn.Tx) error, onAck func(lsn wal.LSN)) {
	var lsn wal.LSN
	force, ackSpan := int32(-1), int32(-1)
	opts := c.opts
	opts.OnCommit = func() { onAck(lsn) }
	opts.OnCommitted = func(l wal.LSN) {
		lsn = l
		c.tr.end(force)
		ackSpan = c.tr.begin(spCommitAck)
	}
	attempt := 0
	start := time.Now()
	root := c.tr.begin(spRunTxn)
	err := c.e.d.RunTxnWith(opts, func(tx *txn.Tx) error {
		retry := int32(-1)
		if attempt++; attempt > 1 {
			retry = c.tr.begin(spRetry)
		}
		err := body(tx)
		c.tr.end(retry)
		if err == nil {
			force = c.tr.begin(spCommitForce)
		}
		return err
	})
	c.tr.end(ackSpan)
	c.tr.end(root)
	c.rwDone = append(c.rwDone, sampleAt(c.origin, start, time.Now()))
	c.nRW.Add(1)
	c.attempted++
	if err != nil {
		c.fail("transaction failed after retries: %v", err)
	}
}

// ro runs body as one snapshot transaction through RunReadOnlyWith.
func (c *client) ro(body func(tx *txn.Tx) error) {
	attempt := 0
	start := time.Now()
	root := c.tr.begin(spRunTxn)
	err := c.e.d.RunReadOnlyWith(c.opts, func(tx *txn.Tx) error {
		retry := int32(-1)
		if attempt++; attempt > 1 {
			retry = c.tr.begin(spRetry)
		}
		err := body(tx)
		c.tr.end(retry)
		return err
	})
	c.tr.end(root)
	c.roDone = append(c.roDone, sampleAt(c.origin, start, time.Now()))
	c.nRO.Add(1)
	c.attempted++
	if err != nil {
		c.fail("read-only transaction failed after retries: %v", err)
	}
}

// get reads static row n and checks that the row returned is row n.
func (c *client) get(tx *txn.Tx, n int, name spanName) error {
	s := c.tr.begin(name)
	v, err := c.e.t.Get(tx, c.e.keys[n])
	c.tr.end(s)
	if err != nil {
		return err
	}
	if vn, _, ok := parseValue(v); !ok || vn != n {
		c.fail("get k%08d returned a wrong row", n)
	}
	return nil
}

// scan16 scans 16 static rows from row start and checks that exactly those
// rows came back, in order.
func (c *client) scan16(tx *txn.Tx, start int, name spanName) error {
	s := c.tr.begin(name)
	got := 0
	good := true
	err := c.e.t.Scan(tx, c.e.keys[start], c.e.keys[start+scanRows-1], func(r db.Row) (bool, error) {
		n, okKey := parseKey(r.Key)
		vn, _, okVal := parseValue(r.Value)
		if !okKey || !okVal || n != start+got || vn != n {
			good = false
		}
		got++
		return true, nil
	})
	c.tr.end(s)
	if err != nil {
		return err
	}
	if !good || got != scanRows {
		c.fail("scan of 16 rows from k%08d returned %d rows or a wrong order", start, got)
	}
	return nil
}

func (c *client) update(tx *txn.Tx, n int) error {
	s := c.tr.begin(spUpdate)
	err := c.e.t.Update(tx, c.e.keys[n], c.val[:])
	c.tr.end(s)
	return err
}

// updateTxn updates static row n in one transaction, after pre (if any).
func (c *client) updateTxn(n int, pre func(tx *txn.Tx) error) {
	c.seq++
	stamp := c.phase<<56 | uint64(c.role+1)<<48 | c.seq
	putValue(c.val[:], n, stamp)
	c.rw(func(tx *txn.Tx) error {
		if pre != nil {
			if err := pre(tx); err != nil {
				return err
			}
		}
		return c.update(tx, n)
	}, func(lsn wal.LSN) { c.acked[n] = ack{lsn, stamp} })
}

// scanStart draws a scan position that keeps the 17th (next-key) row inside
// the static rows, so scans never lock a queue row.
func (c *client) scanStart() int { return c.rng.Intn(c.cfg.rows - 4*scanRows) }

// Zipfian ranks are scattered over the key space so the hot rows do not share
// pages (7919 is coprime to the row counts used).
func (c *client) zipfRow() int { return int(c.zipf.Uint64()*7919) % c.cfg.rows }

func stepHotUpdate(c *client) { c.updateTxn(c.zipfRow(), nil) }

func stepUniformUpdate(c *client) { c.updateTxn(c.rng.Intn(c.cfg.rows), nil) }

func stepSnapshotReader(c *client) {
	var ks [4]int
	for i := range ks {
		ks[i] = c.rng.Intn(c.cfg.rows)
	}
	start := c.scanStart()
	c.ro(func(tx *txn.Tx) error {
		for _, n := range ks {
			if err := c.get(tx, n, spRoGet); err != nil {
				return err
			}
		}
		return c.scan16(tx, start, spRoScan16)
	})
}

func stepLockingWriter(c *client) {
	k1, k2 := c.rng.Intn(c.cfg.rows), c.rng.Intn(c.cfg.rows)
	start := c.scanStart()
	c.updateTxn(c.rng.Intn(c.cfg.rows), func(tx *txn.Tx) error {
		if err := c.get(tx, k1, spGet); err != nil {
			return err
		}
		if err := c.get(tx, k2, spGet); err != nil {
			return err
		}
		return c.scan16(tx, start, spScan16)
	})
}

// stepChurn inserts 2 fresh keys at the head of the client's queue, deletes
// its 2 oldest, and scans 16 static rows. The queue window moves only when
// the transaction is acknowledged, so a retry repeats the same keys.
func stepChurn(c *client) {
	base := queueBase(c.role)
	start := c.scanStart()
	c.rw(func(tx *txn.Tx) error {
		for i := 0; i < 2; i++ {
			n := base + c.qhi + i
			putValue(c.val[:], n, uint64(n))
			s := c.tr.begin(spInsert)
			err := c.e.t.Insert(tx, keyOf(n), c.val[:])
			c.tr.end(s)
			if err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			s := c.tr.begin(spDelete)
			err := c.e.t.Delete(tx, keyOf(base+c.qlo+i))
			c.tr.end(s)
			if err != nil {
				return err
			}
		}
		return c.scan16(tx, start, spScan16)
	}, func(wal.LSN) { c.qlo, c.qhi = c.qlo+2, c.qhi+2 })
}

// runSteps runs n transactions of each given role on one goroutine, one role
// after the other, and reports the first failure as an error.
func runSteps(cs []*client, n int) error {
	for _, c := range cs {
		for i := 0; i < n; i++ {
			c.w.step[c.role](c)
		}
		if c.failed > 0 {
			return fmt.Errorf("%s", c.failure)
		}
	}
	return nil
}

// tailFromSteps is the redo tail of a forward workload: cfg.tailTxns of the
// workload's own read-write transactions, so restart replays that workload's
// kind of log (hot pages, or SMOs onto a small pool).
func tailFromSteps(cfg config, w *workload, e *engine, m *model, seed int64) error {
	var cs []*client
	for role := 0; role < clients; role++ {
		if !w.readOnly[role] {
			cs = append(cs, newClient(e, w, cfg, m, role, phaseTail, seed, nil))
		}
	}
	if err := runSteps(cs, cfg.tailTxns/len(cs)); err != nil {
		return err
	}
	m.apply(cs)
	return nil
}

// tailUpdateAll is crash-restart's redo tail: every static row updated again
// in 64-row transactions, in the order the base build inserted them (a batch
// job walking the heap): each update finds room on the page it just ghosted a
// row on, so the tail costs about as much as the base build.
func tailUpdateAll(cfg config, _ *workload, e *engine, m *model, seed int64) error {
	order := insertOrder(cfg, seed)
	var val [valueSize]byte
	for lo := 0; lo < len(order); lo += txnBatch {
		batch := order[lo:min(lo+txnBatch, len(order))]
		err := e.d.RunTxn(func(tx *txn.Tx) error {
			for _, n := range batch {
				putValue(val[:], n, 1)
				if err := e.t.Update(tx, e.keys[n], val[:]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, n := range batch {
			m.stamps[n] = 1
		}
	}
	return nil
}

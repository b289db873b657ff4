package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/mvcc"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Layer probes: the benchmark calls a layer's public functions directly, on
// one goroutine, on inputs shaped by the workload (its key stream, its pool
// size, its table, its mean record size and locks per transaction), and
// reports the median over probeBatches batches as ns per call.
const probeBatches = 5

// timerCost is what one time.Now/time.Since pair costs; the probes that must
// time single calls inside a loop subtract it.
var timerCost = func() time.Duration {
	var ds []float64
	for i := 0; i < 1001; i++ {
		t := time.Now()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}()

// batchNs times fn(calls) probeBatches times and returns the median ns per
// call. fn may return a duration to report in place of its own wall time: the
// probes that exclude their per-call set-up do.
func batchNs(calls int, fn func(calls int) (time.Duration, error)) (float64, error) {
	var vs []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		timed, err := fn(calls)
		if err != nil {
			return 0, err
		}
		if timed == 0 {
			timed = time.Since(start)
		}
		vs = append(vs, float64(timed.Nanoseconds())/float64(calls))
	}
	return median(vs), nil
}

// stopwatch accumulates the time of single calls, net of the timer's cost.
type stopwatch struct {
	total time.Duration
	at    time.Time
}

func (s *stopwatch) start() { s.at = time.Now() }
func (s *stopwatch) stop() {
	if d := time.Since(s.at) - timerCost; d > 0 {
		s.total += d
	}
}

// prober holds one restarted fork of the image and the workload's inputs.
type prober struct {
	img   *image
	e     *engine
	calls int
	rows  []int         // the workload's key stream (static row numbers)
	rids  []storage.RID // where those rows live
}

// probe runs every layer probe and stores its `_ns` metric (and
// data.insert_fixes) in m. It reads the shape of the workload from the count
// metrics already in m.
func (img *image) probe(m metrics, seed int64) error {
	e := img.fork()
	if _, err := e.d.Restart(); err != nil {
		return err
	}
	if err := e.reopen(); err != nil {
		return err
	}
	if err := e.checkTable(img.m); err != nil {
		return err
	}
	p := &prober{img: img, e: e, calls: img.cfg.probeCalls}
	gen := newClient(e, img.w, img.cfg, img.m, clients-1, phaseProbe, seed, nil)
	ix := e.t.PrimaryIndex()
	for i := 0; i < p.calls; i++ {
		n := gen.rng.Intn(img.cfg.rows)
		if img.w.name == "hot-update" {
			n = gen.zipfRow()
		}
		res, _, err := ix.FetchNoLock(e.keys[n], core.EQ)
		if err != nil || !res.Found {
			return fmt.Errorf("probe set-up: row %d not found: %v", n, err)
		}
		p.rows = append(p.rows, n)
		p.rids = append(p.rids, res.Key.RID)
	}
	for _, probe := range []func(metrics) error{
		p.lockProbes, p.latchProbe, p.bufferProbes, p.storageProbes, p.walProbes,
		p.txnProbes, p.dataProbes, p.coreProbes, p.mvccProbes,
	} {
		if err := probe(m); err != nil {
			return err
		}
	}
	return e.check(img.m)
}

func atLeastOne(v float64) int { return int(math.Max(1, math.Round(v))) }

func (p *prober) lockProbes(m metrics) error {
	perTxn := atLeastOne(m["lock.calls_per_txn"])
	names := make([]lock.Name, len(p.rids))
	for i, rid := range p.rids {
		names[i] = lock.DataLockName(lock.GranRecord, uint64(rid.Page), rid.Slot)
	}
	var request, release []float64
	for b := 0; b < probeBatches; b++ {
		lm := lock.NewManagerSharded(&trace.Stats{}, lock.DefaultShards)
		var req, rel stopwatch
		txns := 0
		for i := 0; i+perTxn <= len(names); i += perTxn {
			owner := lock.Owner(txns + 1)
			req.start()
			for _, n := range names[i : i+perTxn] {
				if err := lm.Request(owner, n, lock.X, lock.Commit, false); err != nil {
					return err
				}
			}
			req.stop()
			rel.start()
			lm.ReleaseAll(owner)
			rel.stop()
			txns++
		}
		request = append(request, float64(req.total.Nanoseconds())/float64(txns*perTxn))
		release = append(release, float64(rel.total.Nanoseconds())/float64(txns))
	}
	m["lock.request_ns"], m["lock.release_all_ns"] = median(request), median(release)
	return nil
}

func (p *prober) latchProbe(m metrics) error {
	l := latch.New(&trace.Stats{})
	ns, err := batchNs(p.calls, func(calls int) (time.Duration, error) {
		for i := 0; i < calls; i++ {
			mode := latch.Mode(i & 1) // S and X alternate
			l.Acquire(mode)
			l.Release(mode)
		}
		return 0, nil
	})
	m["latch.acquire_release_ns"] = ns
	return err
}

func (p *prober) bufferProbes(m metrics) error {
	// Hit path: the workload's own pages, as many as stay resident.
	pool := p.e.d.Pool()
	resident := p.img.w.pool / 2
	var pages []storage.PageID
	seen := make(map[storage.PageID]bool)
	for _, rid := range p.rids {
		if !seen[rid.Page] && len(pages) < resident {
			seen[rid.Page] = true
			pages = append(pages, rid.Page)
		}
	}
	fixAll := func(pool *buffer.Pool, ids []storage.PageID, calls int) error {
		for i := 0; i < calls; i++ {
			f, err := pool.Fix(ids[i%len(ids)])
			if err != nil {
				return err
			}
			pool.Unfix(f)
		}
		return nil
	}
	if err := fixAll(pool, pages, len(pages)); err != nil {
		return err
	}
	hit, err := batchNs(p.calls, func(calls int) (time.Duration, error) { return 0, fixAll(pool, pages, calls) })
	if err != nil {
		return err
	}
	// Miss path: a pool an eighth of the page set, walked in page order, so
	// every fix reads a page and evicts a clean one.
	ids := p.e.d.Disk().PageIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	small := buffer.NewPool(p.e.d.Disk(), p.e.d.Log(), max(8, len(ids)/8), &trace.Stats{})
	miss, err := batchNs(len(ids), func(calls int) (time.Duration, error) { return 0, fixAll(small, ids, calls) })
	m["buffer.fix_hit_ns"], m["buffer.fix_miss_ns"] = hit, miss
	return err
}

func (p *prober) storageProbes(m metrics) error {
	disk := p.e.d.Disk()
	buf := make([]byte, disk.PageSize())
	var err error
	m["storage.page_read_ns"], err = batchNs(len(p.rids), func(calls int) (time.Duration, error) {
		for _, rid := range p.rids[:calls] {
			if err := disk.Read(rid.Page, buf); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	// Write each page back unchanged, so the probe leaves the disk as it was.
	m["storage.page_write_ns"], err = batchNs(len(p.rids), func(calls int) (time.Duration, error) {
		var sw stopwatch
		for _, rid := range p.rids[:calls] {
			if err := disk.Read(rid.Page, buf); err != nil {
				return 0, err
			}
			sw.start()
			err := disk.Write(rid.Page, buf)
			sw.stop()
			if err != nil {
				return 0, err
			}
		}
		return sw.total, nil
	})
	return err
}

func (p *prober) walProbes(m metrics) error {
	const header = 36 // wal's fixed record header
	payload := make([]byte, max(0, int(ratio(m["wal.bytes_per_txn"], m["wal.records_per_txn"]))-header))
	record := func() *wal.Record {
		return &wal.Record{Type: wal.RecUpdate, TxID: 1, Page: 7, Op: wal.OpDataInsert, Payload: payload}
	}
	var err error
	m["wal.append_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		log := wal.NewLog(&trace.Stats{})
		for i := 0; i < calls; i++ {
			log.Append(record())
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["wal.force_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		log := wal.NewLog(&trace.Stats{})
		var sw stopwatch
		for i := 0; i < calls; i++ {
			lsn := log.Append(record())
			sw.start()
			ok := log.Force(lsn)
			sw.stop()
			if !ok {
				return 0, fmt.Errorf("wal probe: force failed")
			}
		}
		return sw.total, nil
	})
	if err != nil {
		return err
	}
	// Read is the undo path's record fetch; probe it on the image's own log.
	log := p.e.d.Log()
	recs := log.SnapshotFrom(1)
	m["wal.read_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		for i := 0; i < calls; i++ {
			if _, err := log.Read(recs[(i*7919)%len(recs)].LSN); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	return err
}

func (p *prober) txnProbes(m metrics) error {
	var err error
	m["txn.begin_commit_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		st := &trace.Stats{}
		tm := txn.NewManager(wal.NewLog(st), lock.NewManagerSharded(st, lock.DefaultShards))
		for i := 0; i < calls; i++ {
			if err := tm.Begin().Commit(); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	var val [valueSize]byte
	m["txn.rollback_ns"], err = batchNs(p.calls/10, func(calls int) (time.Duration, error) {
		var sw stopwatch
		for _, n := range p.rows[:calls] {
			tx, err := p.e.d.Begin()
			if err != nil {
				return 0, err
			}
			putValue(val[:], n, 0)
			if err := p.e.t.Update(tx, p.e.keys[n], val[:]); err != nil {
				return 0, err
			}
			sw.start()
			err = tx.Rollback()
			sw.stop()
			if err != nil {
				return 0, err
			}
		}
		return sw.total, nil
	})
	return err
}

// dataProbes probe the record heap through Table.DataTable(). The inserts
// and deletes run inside one transaction that is rolled back afterwards.
func (p *prober) dataProbes(m metrics) error {
	dt := p.e.t.DataTable()
	tx, err := p.e.d.Begin()
	if err != nil {
		return err
	}
	m["data.fetch_ns"], err = batchNs(len(p.rids), func(calls int) (time.Duration, error) {
		for _, rid := range p.rids[:calls] {
			if _, err := dt.Fetch(tx, rid, false); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["data.fetch_nolock_ns"], err = batchNs(len(p.rids), func(calls int) (time.Duration, error) {
		for _, rid := range p.rids[:calls] {
			if _, _, ok, err := dt.FetchNoLock(rid); err != nil || !ok {
				return 0, fmt.Errorf("data probe: FetchNoLock(%s): ok=%v err=%v", rid, ok, err)
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	row := make([]byte, 2+9+valueSize) // the facade's row encoding of a 9-byte key
	if _, err := dt.Insert(tx, row); err != nil {
		return err // the first insert after a restart walks the page chain
	}
	calls := p.calls / 4
	var inserted []storage.RID
	fixes := p.e.d.Stats().PageFixes.Load()
	m["data.insert_ns"], err = batchNs(calls, func(calls int) (time.Duration, error) {
		for i := 0; i < calls; i++ {
			rid, err := dt.Insert(tx, row)
			if err != nil {
				return 0, err
			}
			inserted = append(inserted, rid)
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["data.insert_fixes"] = ratio(float64(p.e.d.Stats().PageFixes.Load()-fixes), float64(len(inserted)))
	m["data.delete_ns"], err = batchNs(calls, func(calls int) (time.Duration, error) {
		for _, rid := range inserted[:calls] {
			if err := dt.Delete(tx, rid, false); err != nil {
				return 0, err
			}
		}
		inserted = inserted[calls:]
		return 0, nil
	})
	if err != nil {
		return err
	}
	return tx.Rollback()
}

// coreProbes probe the primary index through Table.PrimaryIndex(). The delete
// probe removes the index entries of distinct workload rows and the insert
// probe puts the same entries back, so the tree ends as it began.
func (p *prober) coreProbes(m metrics) error {
	ix := p.e.t.PrimaryIndex()
	tx, err := p.e.d.Begin()
	if err != nil {
		return err
	}
	m["core.fetch_ns"], err = batchNs(len(p.rows), func(calls int) (time.Duration, error) {
		for _, n := range p.rows[:calls] {
			if res, _, err := ix.Fetch(tx, p.e.keys[n], core.EQ); err != nil || !res.Found {
				return 0, fmt.Errorf("core probe: Fetch(%d): %v", n, err)
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["core.fetch_nolock_ns"], err = batchNs(len(p.rows), func(calls int) (time.Duration, error) {
		for _, n := range p.rows[:calls] {
			if res, _, err := ix.FetchNoLock(p.e.keys[n], core.EQ); err != nil || !res.Found {
				return 0, fmt.Errorf("core probe: FetchNoLock(%d): %v", n, err)
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["core.fetch_next_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		_, cur, err := ix.Fetch(tx, p.e.keys[0], core.GE)
		if err != nil {
			return 0, err
		}
		for i := 0; i < calls; i++ {
			if _, err := ix.FetchNext(tx, cur); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	var entries []storage.Key
	seen := make(map[int]bool)
	for i, n := range p.rows {
		if !seen[n] && len(entries) < p.calls/4 {
			seen[n] = true
			entries = append(entries, storage.Key{Val: p.e.keys[n], RID: p.rids[i]})
		}
	}
	var del, ins []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for _, k := range entries {
			if err := ix.Delete(tx, k); err != nil {
				return err
			}
		}
		mid := time.Now()
		for _, k := range entries {
			if err := ix.Insert(tx, k); err != nil {
				return err
			}
		}
		del = append(del, float64(mid.Sub(start).Nanoseconds())/float64(len(entries)))
		ins = append(ins, float64(time.Since(mid).Nanoseconds())/float64(len(entries)))
	}
	m["core.delete_ns"], m["core.insert_ns"] = median(del), median(ins)
	return tx.Commit()
}

// mvccProbes probe a private version store. Reads and window scans run with
// as many live chains as the workload's two-client window held on average.
func (p *prober) mvccProbes(m metrics) error {
	const table = 1
	var val [valueSize]byte
	push := func(st *mvcc.Store, id int, key []byte) error {
		tx, lsn := wal.TxID(id+1), wal.LSN(2*id+10)
		seed := func() (bool, []byte, uint64, error) { return true, val[:], st.Seq(table), nil }
		if err := st.Push(table, key, true, val[:], tx, lsn, seed); err != nil {
			return err
		}
		st.EnterCommit(tx)
		st.CommitAt(tx, lsn+1)
		st.FinishCommit(tx, lsn+1)
		return nil
	}
	var err error
	m["mvcc.push_commit_ns"], err = batchNs(len(p.rows), func(calls int) (time.Duration, error) {
		st := mvcc.NewStore(&trace.Stats{})
		st.StartAt(1)
		for i, n := range p.rows[:calls] {
			if err := push(st, i, p.e.keys[n]); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	// An open snapshot keeps the chains pushed after it alive.
	st := mvcc.NewStore(&trace.Stats{})
	st.StartAt(1)
	snap, id := st.Begin()
	defer st.End(id)
	live := atLeastOne(m["mvcc.chains_live"])
	var chained []int
	seen := make(map[int]bool)
	for _, n := range p.rows {
		if len(chained) == live {
			break
		}
		if !seen[n] {
			seen[n] = true
			if err := push(st, len(chained), p.e.keys[n]); err != nil {
				return err
			}
			chained = append(chained, n)
		}
	}
	m["mvcc.read_ns"], err = batchNs(p.calls, func(calls int) (time.Duration, error) {
		for i := 0; i < calls; i++ {
			if _, err := st.Read(table, p.e.keys[chained[i%len(chained)]], snap); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return err
	}
	m["mvcc.rows_between_ns"], err = batchNs(max(1, p.calls/live), func(calls int) (time.Duration, error) {
		for i := 0; i < calls; i++ {
			lo := p.rows[i%len(p.rows)] % (p.img.cfg.rows - scanRows)
			if _, err := st.RowsBetween(table, string(p.e.keys[lo]), true, string(p.e.keys[lo+scanRows-1]), true, false, snap); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	return err
}

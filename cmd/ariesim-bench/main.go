// Command ariesim-bench regenerates the paper's figures and tables as
// printed reports (see DESIGN.md §3 for the experiment index):
//
//	ariesim-bench -table fig2       # Figure 2: locking summary, observed
//	ariesim-bench -table lockcounts # §1/§5: locks/op, IM vs KVL vs System R
//	ariesim-bench -table smo        # §2.1: reader progress during SMOs
//	ariesim-bench -table recovery   # §3: restart passes, page-oriented redo
//	ariesim-bench -table media      # §5: page-oriented media recovery
//	ariesim-bench -table all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/db"
	"ariesim/internal/lock"
	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
	"ariesim/internal/workload"
)

func main() {
	table := flag.String("table", "all", "which table/figure to regenerate: fig2|lockcounts|smo|recovery|media|all")
	flag.Parse()
	if err := run(os.Stdout, *table); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

var tables = []struct {
	name  string
	print func(io.Writer)
}{
	{"fig2", fig2},
	{"lockcounts", lockCounts},
	{"smo", smoConcurrency},
	{"recovery", restartReport},
	{"media", mediaRecovery},
}

// run prints the named table — or, for "all", every table with a blank line
// after each — to w.
func run(w io.Writer, table string) error {
	lock.RegisterTraceNames()
	found := false
	for _, t := range tables {
		if table == "all" || table == t.name {
			found = true
			t.print(w)
			if table == "all" {
				fmt.Fprintln(w)
			}
		}
	}
	if !found {
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}

// engine builds a core-level stack for single-op lock measurements.
type engine struct {
	stats *trace.Stats
	log   *wal.Log
	pool  *buffer.Pool
	locks *lock.Manager
	tm    *txn.Manager
	im    *core.Manager
}

func newEngine() *engine {
	e := &engine{stats: &trace.Stats{}}
	disk := storage.NewDisk(4096)
	e.log = wal.NewLog(e.stats)
	e.pool = buffer.NewPool(disk, e.log, 256, e.stats)
	e.locks = lock.NewManager(e.stats)
	e.tm = txn.NewManager(e.log, e.locks)
	e.im = core.NewManager(e.pool, e.stats)
	e.tm.SetUndoer(e.im)
	return e
}

func key(i int) storage.Key {
	return storage.Key{Val: workload.KeyFor(i), RID: storage.RID{Page: storage.PageID(1000 + i), Slot: 1}}
}

// measure runs op once in a fresh transaction on a primed index and
// returns the lock-call cells it added.
func measure(proto core.Protocol, op func(*engine, *core.Index, *txn.Tx) error) ([]trace.LockCell, error) {
	e := newEngine()
	tx := e.tm.Begin()
	ix, err := e.im.CreateIndex(tx, core.Config{ID: 1, Protocol: proto})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		if err := ix.Insert(tx, key(i*10)); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	mtx := e.tm.Begin()
	before := e.stats.Snap()
	if err := op(e, ix, mtx); err != nil {
		return nil, err
	}
	cells := trace.Diff(before, e.stats.Snap()).NonzeroLockCells()
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Space != cells[j].Space {
			return cells[i].Space < cells[j].Space
		}
		return cells[i].Mode < cells[j].Mode
	})
	return cells, mtx.Commit()
}

var singleOps = []struct {
	name string
	op   func(*engine, *core.Index, *txn.Tx) error
}{
	{"FETCH (found)", func(e *engine, ix *core.Index, tx *txn.Tx) error {
		_, _, err := ix.Fetch(tx, key(50).Val, core.EQ)
		return err
	}},
	{"FETCH (not found)", func(e *engine, ix *core.Index, tx *txn.Tx) error {
		_, _, err := ix.Fetch(tx, key(55).Val, core.EQ)
		return err
	}},
	{"INSERT", func(e *engine, ix *core.Index, tx *txn.Tx) error {
		return ix.Insert(tx, key(55))
	}},
	{"DELETE", func(e *engine, ix *core.Index, tx *txn.Tx) error {
		return ix.Delete(tx, key(50))
	}},
}

// fig2 regenerates the paper's Figure 2 from observed lock calls.
func fig2(w io.Writer) {
	fmt.Fprintln(w, "=== Figure 2: Summary of Locking in ARIES/IM (observed lock calls) ===")
	for _, proto := range []core.Protocol{core.DataOnly, core.IndexSpecific} {
		fmt.Fprintf(w, "\n--- %s locking ---\n", proto)
		for _, sop := range singleOps {
			cells, err := measure(proto, sop.op)
			if err != nil {
				fmt.Fprintf(w, "%-18s ERROR %v\n", sop.name, err)
				continue
			}
			fmt.Fprintf(w, "%-18s", sop.name)
			if len(cells) == 0 {
				fmt.Fprint(w, " (no index locks: the record manager's data lock covers the key)")
			}
			for _, c := range cells {
				fmt.Fprintf(w, "  [%s %s %s x%d]", c.Space, c.Mode, c.Duration, c.Count)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\npaper Fig 2: fetch=S/commit current; insert=X/instant next (+X/commit current if index-specific);")
	fmt.Fprintln(w, "             delete=X/commit next (+X/instant current if index-specific)")
}

// lockCounts regenerates the §1/§5 comparison: locks per single-record op.
func lockCounts(w io.Writer) {
	fmt.Fprintln(w, "=== Locks acquired per single-record operation (index locks only) ===")
	fmt.Fprintf(w, "%-18s %10s %10s %10s\n", "operation", "ARIES/IM", "ARIES/KVL", "System R")
	for _, sop := range singleOps {
		fmt.Fprintf(w, "%-18s", sop.name)
		for _, proto := range []core.Protocol{core.DataOnly, core.KVL, core.SystemR} {
			cells, err := measure(proto, sop.op)
			if err != nil {
				fmt.Fprintf(w, " %10s", "ERR")
				continue
			}
			var n uint64
			for _, c := range cells {
				n += c.Count
			}
			fmt.Fprintf(w, " %10d", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\npaper claim (§1, §5): ARIES/IM acquires the minimal number of locks;")
	fmt.Fprintln(w, "KVL adds key-value locks; System R adds key-value AND index page locks.")
}

// smoConcurrency quantifies §2.1: readers proceed during SMOs under
// ARIES/IM; under System R they block on the splitter's page locks.
func smoConcurrency(w io.Writer) {
	fmt.Fprintln(w, "=== Reader progress while a writer splits pages (500ms window) ===")
	fmt.Fprintf(w, "%-12s %14s %14s %12s\n", "protocol", "reader ops", "writer ops", "splits")
	for _, proto := range []core.Protocol{core.DataOnly, core.SystemR} {
		readers, writers, splits := runSMOWindow(proto, 500*time.Millisecond)
		fmt.Fprintf(w, "%-12s %14d %14d %12d\n", proto, readers, writers, splits)
	}
	fmt.Fprintln(w, "\npaper claim (§2.1): retrievals, inserts and deletes go on concurrently with SMOs;")
	fmt.Fprintln(w, "System R-style commit-duration page locks serialize readers behind uncommitted splits.")
}

func runSMOWindow(proto core.Protocol, window time.Duration) (readerOps, writerOps int64, splits uint64) {
	d := db.Open(db.Options{PageSize: 512, PoolSize: 512, Protocol: proto})
	tbl, err := d.CreateTable("t")
	if err != nil {
		panic(err)
	}
	setup := d.MustBegin()
	for i := 0; i < 200; i++ {
		if err := tbl.Insert(setup, workload.KeyFor(i*100), []byte("seed")); err != nil {
			panic(err)
		}
	}
	if err := setup.Commit(); err != nil {
		panic(err)
	}
	splitsBefore := d.Stats().PageSplits.Load()

	stop := make(chan struct{})
	var ro, wo atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := workload.New(workload.Spec{Keys: 20000, ReadFrac: 1, Seed: int64(r)})
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := d.MustBegin()
				_, _ = tbl.Get(tx, g.Next().Key)
				_ = tx.Commit()
				ro.Add(1)
			}
		}(r)
	}
	// One writer splitting the same pages the readers fetch from; it
	// commits only every 50 inserts, so System R's commit-duration page
	// locks (on the leaves it updates and on every page its SMOs touch)
	// linger across many reader attempts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		tx := d.MustBegin()
		for {
			select {
			case <-stop:
				_ = tx.Rollback()
				return
			default:
			}
			k := append(workload.KeyFor((i*37)%20000), byte('w'), byte('0'+i%10), byte('0'+(i/10)%10))
			if err := tbl.Insert(tx, k, []byte("split-fodder")); err != nil {
				_ = tx.Rollback()
				tx = d.MustBegin()
				continue
			}
			i++
			wo.Add(1)
			if i%50 == 0 {
				_ = tx.Commit()
				tx = d.MustBegin()
			}
		}
	}()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	return ro.Load(), wo.Load(), d.Stats().PageSplits.Load() - splitsBefore
}

// restartReport quantifies §3: restart passes are page-oriented.
func restartReport(w io.Writer) {
	fmt.Fprintln(w, "=== Restart recovery on a 5000-op workload (nothing flushed) ===")
	d := db.Open(db.Options{PageSize: 1024, PoolSize: 4096})
	tbl, err := d.CreateTable("t")
	if err != nil {
		panic(err)
	}
	g := workload.New(workload.Spec{Keys: 3000, InsertFrac: 0.7, DeleteFrac: 0.3, Seed: 9})
	live := map[string]bool{}
	tx := d.MustBegin()
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Kind == workload.Insert && !live[string(op.Key)] {
			if err := tbl.Insert(tx, op.Key, op.Value); err != nil {
				panic(err)
			}
			live[string(op.Key)] = true
		} else if op.Kind == workload.Delete && live[string(op.Key)] {
			if err := tbl.Delete(tx, op.Key); err != nil {
				panic(err)
			}
			delete(live, string(op.Key))
		}
		if i%500 == 499 {
			if err := tx.Commit(); err != nil {
				panic(err)
			}
			tx = d.MustBegin()
		}
	}
	_ = tx.Rollback()
	records := d.Log().NumRecords()
	travBefore := d.Stats().Traversals.Load()
	d.Crash()
	start := time.Now()
	rep, err := d.Restart()
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	if err := d.VerifyConsistency(); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "log records:        %d (%d KiB)\n", records, d.Log().Bytes()/1024)
	fmt.Fprintf(w, "restart time:       %v\n", elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "analysis records:   %d\n", rep.RecordsSeen)
	fmt.Fprintf(w, "redo applied:       %d (skipped: %d)\n", rep.RedosApplied, rep.RedosSkipped)
	fmt.Fprintf(w, "losers undone:      %d\n", rep.LosersUndone)
	fmt.Fprintf(w, "tree traversals during redo+undo: %d (redo itself: always 0 — page-oriented)\n",
		d.Stats().Traversals.Load()-travBefore)
}

// mediaRecovery quantifies §5: a damaged page is rebuilt from the dump
// plus one pass of the log.
func mediaRecovery(w io.Writer) {
	fmt.Fprintln(w, "=== Page-oriented media recovery ===")
	d := db.Open(db.Options{PageSize: 1024, PoolSize: 1024})
	tbl, err := d.CreateTable("t")
	if err != nil {
		panic(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 2000; i++ {
		if err := tbl.Insert(tx, workload.KeyFor(i), []byte("media")); err != nil {
			panic(err)
		}
	}
	if err := tx.Commit(); err != nil {
		panic(err)
	}
	if err := d.Pool().FlushAll(); err != nil {
		panic(err)
	}
	img := recovery.TakeImageCopy(d.Disk(), d.Log())
	tx2 := d.MustBegin()
	for i := 2000; i < 2500; i++ {
		if err := tbl.Insert(tx2, workload.KeyFor(i), []byte("post-dump")); err != nil {
			panic(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		panic(err)
	}
	if err := d.Pool().FlushAll(); err != nil {
		panic(err)
	}
	d.Pool().Crash()
	var damaged []storage.PageID
	buf := make([]byte, 1024)
	for _, pid := range d.Disk().PageIDs() {
		_ = d.Disk().Read(pid, buf)
		if storage.PageFromBytes(buf).Type() == storage.PageTypeIndex {
			damaged = append(damaged, pid)
			d.Disk().Corrupt(pid)
		}
	}
	start := time.Now()
	for _, pid := range damaged {
		if err := recovery.RecoverPage(d.Disk(), d.Log(), img, pid); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	if err := d.VerifyConsistency(); err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "index pages destroyed & rebuilt: %d\n", len(damaged))
	fmt.Fprintf(w, "log passes per page: 1 (LSN-guarded roll-forward, no traversal)\n")
	fmt.Fprintf(w, "total rebuild time:  %v (%v/page)\n",
		elapsed.Round(time.Microsecond), (elapsed / time.Duration(len(damaged))).Round(time.Microsecond))
}

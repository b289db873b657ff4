// Command ariesim-bench regenerates the paper's quantitative claims as
// tables of counts — no timings, so every table is deterministic and
// main_test.go holds each to testdata/<table>.golden (see DESIGN.md §3):
//
//	ariesim-bench -table fig2       # Figure 2: locking summary, observed
//	ariesim-bench -table lockcounts # §1/§5: locks/op, IM vs KVL vs System R
//	ariesim-bench -table smo        # §2.1: readers beside an uncommitted split
//	ariesim-bench -table recovery   # §3: restart passes, page-oriented redo
//	ariesim-bench -table media      # §5: page-oriented media recovery
//	ariesim-bench -table all
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/db"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
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
	{"smo", smoReaders},
	{"recovery", restartReport},
	{"media", mediaRecovery},
}

// run prints the named table — or, for "all", every table with a blank line
// after each — to w.
func run(w io.Writer, table string) error {
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

func newEngine(pageSize int) *engine {
	e := &engine{stats: &trace.Stats{}}
	disk := storage.NewDisk(pageSize)
	e.log = wal.NewLog(e.stats)
	e.pool = buffer.NewPool(disk, e.log, 256, e.stats)
	e.locks = lock.NewManager(e.stats)
	e.tm = txn.NewManager(e.log, e.locks)
	e.im = core.NewManager(e.pool, e.stats)
	e.tm.SetUndoer(e.im)
	return e
}

// keyVal formats key number i; the fixed width keeps byte order equal to
// numeric order.
func keyVal(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func key(i int) storage.Key {
	return storage.Key{Val: keyVal(i), RID: storage.RID{Page: storage.PageID(1000 + i), Slot: 1}}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// primed returns a core-level engine whose index (ID 1) holds the committed
// keys key(0), key(10), …, key(10·(n-1)).
func primed(proto core.Protocol, pageSize, n int) (*engine, *core.Index) {
	e := newEngine(pageSize)
	tx := e.tm.Begin()
	ix, err := e.im.CreateIndex(tx, core.Config{ID: 1, Protocol: proto})
	must(err)
	for i := 0; i < n; i++ {
		must(ix.Insert(tx, key(i*10)))
	}
	must(tx.Commit())
	return e, ix
}

// measure runs op once in a fresh transaction on a primed index and
// returns the lock-call cells it added.
func measure(proto core.Protocol, op func(*core.Index, *txn.Tx) error) ([]trace.LockCell, error) {
	e, ix := primed(proto, 4096, 20)
	mtx := e.tm.Begin()
	before := e.stats.Snap()
	if err := op(ix, mtx); err != nil {
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
	op   func(*core.Index, *txn.Tx) error
}{
	{"FETCH (found)", func(ix *core.Index, tx *txn.Tx) error {
		_, _, err := ix.Fetch(tx, key(50).Val, core.EQ)
		return err
	}},
	{"FETCH (not found)", func(ix *core.Index, tx *txn.Tx) error {
		_, _, err := ix.Fetch(tx, key(55).Val, core.EQ)
		return err
	}},
	{"INSERT", func(ix *core.Index, tx *txn.Tx) error {
		return ix.Insert(tx, key(55))
	}},
	{"DELETE", func(ix *core.Index, tx *txn.Tx) error {
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

// smoKeys is how many keys the smo table's index holds before the split.
const smoKeys = 60

// smoReaders quantifies §2.1: with one writer's split complete but
// uncommitted, every key the index held before the split is fetched once,
// each by its own transaction. Whether a reader waited is the lock
// manager's answer (it queued the request: trace.Stats.LockWaits moved),
// not a timer's.
func smoReaders(w io.Writer) {
	fmt.Fprintln(w, "=== Readers of the pre-split keys while a split is complete but uncommitted ===")
	fmt.Fprintf(w, "%-12s %8s %15s %10s %7s\n", "protocol", "readers", "on split pages", "completed", "waited")
	for _, proto := range []core.Protocol{core.DataOnly, core.KVL, core.SystemR} {
		onSplit, waited := runSMOReaders(proto)
		fmt.Fprintf(w, "%-12s %8d %15d %10d %7d\n", proto, smoKeys, onSplit, smoKeys-waited, waited)
	}
	fmt.Fprintln(w, "\npaper claim (§2.1): retrievals go on concurrently with SMOs; System R-style")
	fmt.Fprintln(w, "commit-duration page locks hold every reader of a page the split touched until it commits.")
}

// runSMOReaders returns how many of the pre-split keys sit on a leaf the
// writer modified, and how many of their readers waited.
func runSMOReaders(proto core.Protocol) (onSplit, waited int) {
	e, ix := primed(proto, 512, smoKeys)
	mark := e.log.MaxLSN()
	splits := e.stats.PageSplits.Load()
	writer := e.tm.Begin()
	for i := 0; e.stats.PageSplits.Load() == splits; i++ {
		// Values between key(200) and key(210): all land on key(200)'s leaf.
		k := storage.Key{Val: fmt.Appendf(keyVal(200), "w%03d", i), RID: storage.RID{Page: storage.PageID(5000 + i), Slot: 1}}
		must(ix.Insert(writer, k))
	}
	var parked []chan error
	for i := 0; i < smoKeys; i++ {
		leaf, _, err := ix.LeafOf(key(i * 10))
		must(err)
		f, err := e.pool.Fix(leaf)
		must(err)
		f.Latch.Acquire(latch.S)
		if wal.LSN(f.Page.LSN()) > mark {
			onSplit++
		}
		f.Latch.Release(latch.S)
		e.pool.Unfix(f)

		waitsBefore := e.stats.LockWaits.Load()
		done := make(chan error, 1)
		go func(k storage.Key) {
			tx := e.tm.Begin()
			_, _, err := ix.Fetch(tx, k.Val, core.EQ)
			if err == nil {
				err = tx.Commit()
			}
			done <- err
		}(key(i * 10))
	poll:
		for {
			select {
			case err := <-done:
				must(err)
				break poll
			default:
			}
			if e.stats.LockWaits.Load() > waitsBefore {
				waited++
				parked = append(parked, done)
				break poll
			}
			runtime.Gosched()
		}
	}
	must(writer.Commit())
	for _, done := range parked {
		must(<-done)
	}
	return onSplit, waited
}

// restartReport quantifies §3: restart is page-oriented — redo replays
// records onto the pages they name and traverses no tree.
func restartReport(w io.Writer) {
	fmt.Fprintln(w, "=== Restart after 5000 operations, nothing flushed, one loser in flight ===")
	d := db.Open(db.Options{PageSize: 1024, PoolSize: 4096})
	tbl, err := d.CreateTable("t")
	must(err)
	rng := rand.New(rand.NewSource(9))
	live := map[int]bool{}
	tx := d.MustBegin()
	for i := 0; i < 5000; i++ {
		n := rng.Intn(3000)
		if live[n] {
			must(tbl.Delete(tx, keyVal(n)))
		} else {
			must(tbl.Insert(tx, keyVal(n), []byte("recover-me")))
		}
		live[n] = !live[n]
		// The last 500 operations stay uncommitted: the loser.
		if i%500 == 499 && i < 4500 {
			must(tx.Commit())
			tx = d.MustBegin()
		}
	}
	// The loser's records reach the stable log, as a later commit's force
	// would take them there.
	d.Log().ForceAll()
	records := d.Log().NumRecords()
	before := d.Stats().Snap()
	d.Crash()
	rep, err := d.Restart()
	must(err)
	must(d.VerifyConsistency())
	st := trace.Diff(before, d.Stats().Snap())
	fmt.Fprintf(w, "log records:        %d (%d KiB)\n", records, d.Log().Bytes()/1024)
	fmt.Fprintf(w, "analysis records:   %d\n", rep.RecordsSeen)
	fmt.Fprintf(w, "redo applied:       %d (skipped: %d)\n", rep.RedosApplied, rep.RedosSkipped)
	fmt.Fprintf(w, "losers undone:      %d (index undos: %d page-oriented, %d logical)\n",
		rep.LosersUndone, st.UndoPageOriented, st.UndoLogical)
	fmt.Fprintf(w, "tree traversals during restart: %d\n", st.Traversals)
	fmt.Fprintln(w, "\npaper claim (§3): redo is page-oriented — it traverses no tree; undo traverses")
	fmt.Fprintln(w, "only for a logical undo, when the key has moved off the page its record names.")
}

// mediaRecovery quantifies §5: every destroyed index page is rebuilt from
// a fuzzy image copy plus one pass over the stable log, shared by all of
// them.
func mediaRecovery(w io.Writer) {
	fmt.Fprintln(w, "=== Page-oriented media recovery: every index page destroyed ===")
	d := db.Open(db.Options{PageSize: 1024, PoolSize: 1024})
	tbl, err := d.CreateTable("t")
	must(err)
	insert := func(from, to int, val string) {
		tx := d.MustBegin()
		for i := from; i < to; i++ {
			must(tbl.Insert(tx, keyVal(i), []byte(val)))
		}
		must(tx.Commit())
		must(d.Pool().FlushAll())
	}
	insert(0, 2000, "media")
	img := recovery.TakeImageCopy(d.Disk(), d.Log())
	insert(2000, 2500, "post-dump")
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
	stable, _, _ := d.Log().SnapshotStable(wal.NilLSN + 1)
	examined, err := recovery.RecoverPages(d.Disk(), d.Log(), img, damaged)
	must(err)
	must(d.VerifyConsistency())
	fmt.Fprintf(w, "index pages destroyed & rebuilt:           %d\n", len(damaged))
	fmt.Fprintf(w, "stable log records:                        %d\n", len(stable))
	fmt.Fprintf(w, "records examined by one RecoverPages call: %d\n", examined)
	fmt.Fprintln(w, "\npaper claim (§5): index pages are recovered page-oriented, like data pages —")
	fmt.Fprintln(w, "an image copy plus one LSN-guarded log pass, no tree traversal.")
}

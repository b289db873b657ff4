package data

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// The count-based tests below measure heap placement in buffer fixes, read
// from trace.Stats.PageFixes around each call: deterministic, no timing.

// load inserts n records of size bytes, 100 to a transaction, and returns
// their RIDs and the fixes the inserts cost.
func (e *env) load(t testing.TB, tbl *Table, n, size int) (rids []storage.RID, fixes uint64) {
	t.Helper()
	rec := bytes.Repeat([]byte{'r'}, size)
	for len(rids) < n {
		tx := e.mgr.Begin()
		for i := 0; i < 100 && len(rids) < n; i++ {
			before := e.stats.PageFixes.Load()
			rid, err := tbl.Insert(tx, rec)
			fixes += e.stats.PageFixes.Load() - before
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return rids, fixes
}

func sizes() []int {
	if testing.Short() {
		return []int{5_000}
	}
	return []int{5_000, 50_000}
}

// A sequential load fixes the page it lands on, plus the few fixes of an
// extension once per page — however long the chain has grown.
func TestLoadFixesPerInsertDoNotGrow(t *testing.T) {
	for _, n := range sizes() {
		e := newEnv(t, 4096, lock.GranRecord)
		_, fixes := e.load(t, e.createTable(t), n, 100)
		per := float64(fixes) / float64(n)
		t.Logf("loading %d rows: %.2f fixes per insert", n, per)
		if per > 2 {
			t.Errorf("loading %d rows: %.2f fixes per insert, want <= 2", n, per)
		}
	}
}

// In steady delete-2-insert-2 churn with the deletes scattered over the
// table, an insert fixes the page a committed ghost sits on and little
// else, whatever the table's size.
func TestChurnFixesPerInsertDoNotGrow(t *testing.T) {
	var per []float64
	for _, n := range sizes() {
		e := newEnv(t, 4096, lock.GranRecord)
		tbl := e.createTable(t)
		live, _ := e.load(t, tbl, n, 100)
		rng := rand.New(rand.NewSource(1))
		rec := bytes.Repeat([]byte{'c'}, 100)
		const txns = 2000
		var fixes uint64
		for i := 0; i < txns; i++ {
			tx := e.mgr.Begin()
			for j := 0; j < 2; j++ {
				k := rng.Intn(len(live))
				if err := tbl.Delete(tx, live[k], false); err != nil {
					t.Fatal(err)
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for j := 0; j < 2; j++ {
				before := e.stats.PageFixes.Load()
				rid, err := tbl.Insert(tx, rec)
				fixes += e.stats.PageFixes.Load() - before
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, rid)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		p := float64(fixes) / (2 * txns)
		t.Logf("churn over %d rows: %.2f fixes per insert", n, p)
		if p > 3 {
			t.Errorf("churn over %d rows: %.2f fixes per insert, want <= 3", n, p)
		}
		per = append(per, p)
	}
	if len(per) == 2 && (per[1] > per[0]*1.1 || per[1] < per[0]*0.9) {
		t.Errorf("fixes per insert %.2f at 5,000 rows and %.2f at 50,000: want them within 10%%", per[0], per[1])
	}
}

// Space is reused no worse than first-fit reused it: single-row updates
// over a full table, same-size and then mixed-size, leave the chain as
// long as the load made it.
func TestUpdatesDoNotGrowTheChain(t *testing.T) {
	if testing.Short() {
		t.Skip("200,000 transactions")
	}
	e := newEnv(t, 4096, lock.GranRecord)
	tbl := e.createTable(t)
	live, _ := e.load(t, tbl, 20_000, 100)
	loaded := chainLen(t, e, tbl)
	rng := rand.New(rand.NewSource(1))
	update := func(size int) {
		tx := e.mgr.Begin()
		k := rng.Intn(len(live))
		if err := tbl.Delete(tx, live[k], false); err != nil {
			t.Fatal(err)
		}
		rid, err := tbl.Insert(tx, bytes.Repeat([]byte{'u'}, size))
		if err != nil {
			t.Fatal(err)
		}
		live[k] = rid
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100_000; i++ {
		update(100)
	}
	if got := chainLen(t, e, tbl); got != loaded {
		t.Errorf("chain of %d pages after 100,000 same-size updates, %d after the load", got, loaded)
	}
	for i := 0; i < 100_000; i++ {
		update(20 + rng.Intn(81))
	}
	if got := chainLen(t, e, tbl); got != loaded {
		t.Errorf("chain of %d pages after 100,000 mixed-size updates, %d after the load", got, loaded)
	}
}

// The slots a rollback frees are room again: the same inserts fit where
// the rolled-back ones were.
func TestRolledBackInsertsAreReused(t *testing.T) {
	e := newEnv(t, 4096, lock.GranRecord)
	tbl := e.createTable(t)
	e.load(t, tbl, 2_000, 100)
	rec := bytes.Repeat([]byte{'b'}, 100)
	insert1000 := func() *txn.Tx {
		tx := e.mgr.Begin()
		for i := 0; i < 1000; i++ {
			if _, err := tbl.Insert(tx, rec); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	tx := insert1000()
	grown := chainLen(t, e, tbl)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := insert1000().Commit(); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(t, e, tbl); got != grown {
		t.Errorf("chain of %d pages after insert, rollback, insert; %d after the first insert", got, grown)
	}
}

// The inventory's mutex is a leaf. A handle's first insert walks the chain
// to build the inventory; here the walk reaches a page while a Delete holds
// that page's X latch and is about to report it to the inventory. Were the
// mutex held across the walk, the walk would wait for the latch and the
// Delete for the mutex.
func TestBuildWalkBesideDeleteFeed(t *testing.T) {
	e := newEnv(t, 256, lock.GranRecord)
	rids, _ := e.load(t, e.createTable(t), 30, 30)
	tbl := e.dm.OpenTable(1, rids[0].Page) // a fresh handle, as after a restart
	victim := rids[len(rids)/2]
	if victim.Page == tbl.FirstPage {
		t.Fatal("setup: the victim should be past the first page")
	}

	deleteHolds := make(chan struct{}) // the Delete holds the page's X latch
	walkArrives := make(chan struct{}) // the walk is about to ask for it
	e.dm.testHook = func(point string, pid storage.PageID) {
		if pid != victim.Page {
			return
		}
		switch point {
		case "delete-note":
			close(deleteHolds)
			<-walkArrives
		case "build-visit":
			<-deleteHolds
			close(walkArrives)
		}
	}
	var wg sync.WaitGroup
	run := func(op func(tx *txn.Tx) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := e.mgr.Begin()
			if err := op(tx); err != nil {
				t.Error(err)
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		}()
	}
	run(func(tx *txn.Tx) error { return tbl.Delete(tx, victim, false) })
	run(func(tx *txn.Tx) error { _, err := tbl.Insert(tx, []byte("first insert")); return err })
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the build walk and the Delete's report to the inventory wait for each other")
	}
}

// Workers insert, delete and roll back on one table: each transaction
// deletes two records picked from a shared pool — pairs picked in opposite
// orders deadlock, and the victim rolls back — and inserts two. The table
// must end equal to the model of what committed.
func TestConcurrentPlacementMatchesModel(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	var mu sync.Mutex // guards model and pool
	model := map[storage.RID][]byte{}
	var pool []storage.RID
	rids, _ := e.load(t, tbl, 200, 40)
	for _, rid := range rids {
		model[rid] = bytes.Repeat([]byte{'r'}, 40)
		pool = append(pool, rid)
	}
	const txns = 300
	var rollbacks, deadlocks int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txns; i++ {
				// Half the pairs come from the same few records, so that
				// transactions meet.
				mu.Lock()
				span := len(pool)
				if rng.Intn(2) == 0 {
					span = 4
				}
				victims := []storage.RID{pool[rng.Intn(span)], pool[rng.Intn(span)]}
				mu.Unlock()
				tx := e.mgr.Begin()
				var err error
				if victims[0] == victims[1] {
					victims = victims[:1]
				}
				for _, rid := range victims {
					if err = tbl.Delete(tx, rid, false); err != nil {
						break
					}
					runtime.Gosched() // let another worker in between the two locks
				}
				added := map[storage.RID][]byte{}
				for j := 0; err == nil && j < 2; j++ {
					rec := []byte(fmt.Sprintf("w%d-%d-%d-%s", w, i, j, bytes.Repeat([]byte{'x'}, rng.Intn(40))))
					var rid storage.RID
					if rid, err = tbl.Insert(tx, rec); err == nil {
						added[rid] = rec
					}
				}
				if err == nil && rng.Intn(10) == 0 {
					err = errors.New("a change of mind")
				}
				if err != nil {
					if !errors.Is(err, lock.ErrDeadlock) && !errors.Is(err, ErrNotFound) && err.Error() != "a change of mind" {
						t.Errorf("worker %d: %v", w, err)
					}
					if rerr := tx.Rollback(); rerr != nil {
						t.Errorf("worker %d: rollback: %v", w, rerr)
					}
					mu.Lock()
					rollbacks++
					if errors.Is(err, lock.ErrDeadlock) {
						deadlocks++
					}
					mu.Unlock()
					continue
				}
				// The record locks are held until Commit returns, so nobody
				// can have touched these RIDs since; the model follows.
				mu.Lock()
				for _, rid := range victims {
					delete(model, rid)
					for k, p := range pool {
						if p == rid {
							pool[k] = pool[len(pool)-1]
							pool = pool[:len(pool)-1]
							break
						}
					}
				}
				for rid, rec := range added {
					model[rid] = rec
					pool = append(pool, rid)
				}
				mu.Unlock()
				if err := tx.Commit(); err != nil {
					t.Errorf("worker %d: commit: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d rollbacks, %d of them deadlock victims", rollbacks, deadlocks)
	if deadlocks == 0 {
		t.Error("no transaction was a deadlock victim; the workload does not cover that rollback")
	}

	got, err := tbl.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Errorf("table holds %d records, model %d", len(got), len(model))
	}
	for rid, want := range model {
		if !bytes.Equal(got[rid], want) {
			t.Errorf("%s = %q, model %q", rid, got[rid], want)
		}
	}
	for pid := tbl.FirstPage; pid != storage.InvalidPageID; {
		f, err := e.pool.Fix(pid)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Page.CheckInvariants(); err != nil {
			t.Error(err)
		}
		pid = f.Page.Next()
		e.pool.Unfix(f)
	}
}

// take prefers the oldest ghost page, then a class whose every page fits,
// then the pages that fit in the class the size falls into; it never offers
// a page whose reported free space is too small.
func TestInventoryTakeOrder(t *testing.T) {
	inv := newInventory(1)
	inv.note(10, 129, false) // class [128,256), too small for 130
	inv.note(11, 200, false) // same class, fits
	inv.note(12, 300, false) // class [256,512): fits for sure
	inv.note(13, 5, true)    // ghost pages, oldest first
	inv.note(14, 5, true)
	inv.note(15, 8, false) // below minListed: not worth listing
	var got []storage.PageID
	for {
		pid, ok := inv.take(130, true)
		if !ok {
			break
		}
		got = append(got, pid)
	}
	if want := []storage.PageID{13, 14, 12, 11}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("take(130) offered %v, want %v", got, want)
	}
	inv.note(13, 5, true)
	if pid, ok := inv.take(130, false); ok {
		t.Fatalf("take without ghosts offered page %d", pid)
	}
	if pid, ok := inv.take(100, false); !ok || pid != 10 {
		t.Fatalf("take(100) = %d, %v; want page 10", pid, ok)
	}
}

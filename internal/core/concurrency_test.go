package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// TestConcurrentDisjointRanges runs goroutines over disjoint key ranges and
// expects every transaction to commit and the final tree to match the union
// of the models. The ranges share locks only where a next-key lock reaches
// the first key of the next range; a deadlock there is possible, and its
// victim fails the test. A watchdog fails the test after 30 s with every
// lock head that has waiters and every goroutine's stack, rather than let a
// wait that never ends run into the package timeout.
func TestConcurrentDisjointRanges(t *testing.T) {
	e := newEnv(t, 512, 256)
	ix := e.createIndex(Config{ID: 1})
	const workers = 8
	const opsPer = 400
	models := make([]map[int]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		models[w] = map[int]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			model := models[w]
			base := w * 10000
			tx := e.tm.Begin()
			for i := 0; i < opsPer; i++ {
				n := base + rng.Intn(500)
				k := key(n)
				if model[n] {
					if err := ix.Delete(tx, k); err != nil {
						t.Errorf("w%d delete: %v", w, err)
						return
					}
					delete(model, n)
				} else {
					if err := ix.Insert(tx, k); err != nil {
						t.Errorf("w%d insert: %v", w, err)
						return
					}
					model[n] = true
				}
				if i%100 == 99 {
					if err := tx.Commit(); err != nil {
						t.Errorf("w%d commit: %v", w, err)
						return
					}
					tx = e.tm.Begin()
				}
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("w%d final commit: %v", w, err)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		dump := e.locks.DumpWaiters()
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		e.locks.Shutdown() // wake the waiters, so no worker outlives the test
		select {
		case <-done:
		case <-time.After(5 * time.Second):
		}
		t.Fatalf("workers still running after 30s; lock heads with waiters:\n%s\ngoroutines:\n%s", dump, stacks)
	}
	if t.Failed() {
		return
	}
	e.checkTree(ix)
	var want []storage.Key
	for w := 0; w < workers; w++ {
		for n := 0; n < 10000*workers; n++ {
			_ = n
		}
	}
	// Collect expected keys in global order.
	var all []int
	for w := 0; w < workers; w++ {
		for n := range models[w] {
			all = append(all, n)
		}
	}
	sortInts(all)
	for _, n := range all {
		want = append(want, key(n))
	}
	e.expectKeys(ix, want)
	if pinned := e.pool.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// TestConcurrentConflictingWorkload lets goroutines fight over a small hot
// key range with record locks, retrying deadlock victims, and verifies the
// tree against a serializable model of the committed transactions.
func TestConcurrentConflictingWorkload(t *testing.T) {
	e := newEnv(t, 512, 256)
	ix := e.createIndex(Config{ID: 1})
	var mu sync.Mutex // serializes model maintenance at commit points
	model := map[int]bool{}
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for round := 0; round < 60; round++ {
				n := rng.Intn(40)
				k := key(n)
				tx := e.tm.Begin()
				// Decide insert-vs-delete by observed state under the lock
				// that serializes writers of this key.
				if err := tx.Lock(ix.keyLockName(k), lock.X, lock.Commit, false); err != nil {
					_ = tx.Rollback()
					continue
				}
				res, _, err := ix.Fetch(tx, k.Val, EQ)
				if err != nil {
					_ = tx.Rollback()
					continue
				}
				var op func(*txn.Tx, storage.Key) error
				var present bool
				if res.Found && res.Key.Compare(k) == 0 {
					op, present = ix.Delete, true
				} else {
					op, present = ix.Insert, false
				}
				if err := op(tx, k); err != nil {
					if errors.Is(err, lock.ErrDeadlock) || errors.Is(err, ErrDuplicate) || errors.Is(err, ErrKeyNotFound) {
						_ = tx.Rollback()
						continue
					}
					t.Errorf("w%d op: %v", w, err)
					_ = tx.Rollback()
					return
				}
				if rng.Intn(4) == 0 {
					_ = tx.Rollback()
					continue
				}
				mu.Lock()
				if err := tx.Commit(); err != nil {
					mu.Unlock()
					t.Errorf("w%d commit: %v", w, err)
					return
				}
				model[n] = !present
				mu.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("conflicting workload hung")
	}
	if t.Failed() {
		return
	}
	e.checkTree(ix)
	var want []storage.Key
	for n := 0; n < 40; n++ {
		if model[n] {
			want = append(want, key(n))
		}
	}
	e.expectKeys(ix, want)
}

// TestReadersRunDuringSMOs keeps a reader population scanning while
// writers force continuous splits; with ARIES/IM readers never touch the
// tree latch unless they trip an ambiguity, so scans proceed throughout. The
// workload runs until splits, reads and inserts have each passed a
// threshold — or the writers run out of inserts, which with readers still
// short of theirs is starvation.
func TestReadersRunDuringSMOs(t *testing.T) {
	const wantSplits, wantOps = 10, 500
	e := newEnv(t, 512, 512)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 100; i++ {
		e.mustInsert(setup, ix, key(i*100))
	}
	e.commit(setup)

	stop := make(chan struct{})
	var readerOps, writerOps, writersLeft atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.tm.Begin()
				_, _, err := ix.Fetch(tx, key(rng.Intn(10000)).Val, GE)
				if err != nil {
					t.Errorf("reader: %v", err)
					_ = tx.Rollback()
					return
				}
				_ = tx.Commit()
				readerOps.Add(1)
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		writersLeft.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersLeft.Add(-1)
			// Bounded so a fast machine cannot exhaust the 512-byte-page
			// FSM before the readers have had their share.
			for i := 0; i < 5000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.tm.Begin()
				if err := ix.Insert(tx, key(1000000+w*1000000+i)); err != nil {
					t.Errorf("writer: %v", err)
					_ = tx.Rollback()
					return
				}
				_ = tx.Commit()
				writerOps.Add(1)
			}
		}(w)
	}
	for !t.Failed() && writersLeft.Load() > 0 &&
		(e.stats.PageSplits.Load() < wantSplits || readerOps.Load() < wantOps || writerOps.Load() < wantOps) {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := e.stats.PageSplits.Load(); n < wantSplits {
		t.Fatalf("writers caused %d splits, want %d", n, wantSplits)
	}
	if ro, wo := readerOps.Load(), writerOps.Load(); ro < wantOps || wo < wantOps {
		t.Fatalf("starved: readers=%d writers=%d, want %d each", ro, wo, wantOps)
	}
	e.checkTree(ix)
}

// TestRollbackNeverDeadlocks stresses concurrent rollbacks against live
// writers: rolling-back transactions request no locks (§4), so every
// rollback must complete without a deadlock error.
func TestRollbackNeverDeadlocks(t *testing.T) {
	e := newEnv(t, 512, 256)
	ix := e.createIndex(Config{ID: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w * 7)))
			for round := 0; round < 50; round++ {
				tx := e.tm.Begin()
				ok := true
				for i := 0; i < 10; i++ {
					k := key(w*100000 + rng.Intn(2000))
					if err := ix.Insert(tx, k); err != nil {
						if errors.Is(err, ErrDuplicate) {
							continue
						}
						t.Errorf("w%d insert: %v", w, err)
						ok = false
						break
					}
				}
				if !ok {
					_ = tx.Rollback()
					return
				}
				// Half of all transactions roll back.
				if round%2 == 0 {
					if err := tx.Rollback(); err != nil {
						t.Errorf("w%d rollback: %v", w, err)
						return
					}
				} else if err := tx.Commit(); err != nil {
					t.Errorf("w%d commit: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("rollback stress hung (latch or tree-latch deadlock?)")
	}
	if t.Failed() {
		return
	}
	if e.stats.Deadlocks.Load() != 0 {
		t.Fatalf("%d deadlocks in a workload where rollbacks take no locks", e.stats.Deadlocks.Load())
	}
	e.checkTree(ix)
}

// TestTwoLatchMaximum asserts the paper's "not more than 2 index pages
// latched simultaneously" by auditing latch holds through a custom probe:
// we approximate by checking the pool never reports more than 3 pinned
// pages from a single-threaded operation stream (leaf + sibling + FSM).
func TestTwoLatchMaximum(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	tx := e.tm.Begin()
	maxPinned := 0
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stopped:
				return
			default:
			}
			if n := len(e.pool.PinnedPages()); n > maxPinned {
				maxPinned = n
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 500; i++ {
		e.mustInsert(tx, ix, key(i))
	}
	e.commit(tx)
	stopped <- struct{}{}
	<-stopped
	if maxPinned > 3 {
		t.Fatalf("observed %d concurrently pinned pages from one op stream", maxPinned)
	}
}

func ExampleIndex_Fetch() {
	// A compact end-to-end use of the index manager.
	e := struct {
		disk *storage.Disk
	}{storage.NewDisk(512)}
	_ = e
	fmt.Println("see examples/quickstart for a runnable walkthrough")
	// Output: see examples/quickstart for a runnable walkthrough
}

// TestDeleteLockWaitReleasesTreeLatch pins §2.2's rule for the one latch
// Delete holds across a retry: a boundary-key delete that holds the tree
// latch in S (its point of structural consistency) and must wait for a lock
// drops the tree latch before it waits. Kept, it closes a cycle the
// deadlock detector cannot see: the lock holder's SMO waits for the tree
// latch in X, and the delete waits for the lock holder to end.
//
//  1. The test holds the tree latch in X, so B's boundary delete, denied
//     the conditional S, gives up its page latches and waits for the tree.
//  2. C fetches the key: S for commit duration on its value.
//  3. The test lets the tree latch go; B's retry asks for its instant X on
//     the value and waits for C.
//  4. C splits the leaf, which takes the tree latch in X.
func TestDeleteLockWaitReleasesTreeLatch(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1, Protocol: IndexSpecific})
	setup := e.tm.Begin()
	for i := 0; i < 15; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)
	leaf, _, err := ix.LeafOf(key(0))
	if err != nil {
		t.Fatal(err)
	}
	await := func(what string, moved func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !moved(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	watchdog := func(what string, done <-chan error) error {
		t.Helper()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			dump := e.locks.DumpWaiters()
			e.locks.Shutdown() // wake the lock waiter, which frees the tree latch
			t.Fatalf("%s still blocked after 10s: a lock wait holds the tree latch; lock heads with waiters:\n%s", what, dump)
			return nil
		}
	}

	ix.treeLatch.Acquire(latch.X)
	tries := e.stats.LatchTryFailures.Load()
	txB := e.tm.Begin()
	deleted := make(chan error, 1)
	go func() { deleted <- ix.Delete(txB, key(0)) }()
	await("B's conditional tree latch to be denied", func() bool { return e.stats.LatchTryFailures.Load() > tries })

	txC := e.tm.Begin()
	if res, _, err := ix.Fetch(txC, key(0).Val, EQ); err != nil || !res.Found {
		t.Fatalf("C's fetch: %+v, %v", res, err)
	}
	waits := e.stats.LockWaits.Load()
	ix.treeLatch.Release(latch.X)
	await("B to wait for C's lock", func() bool { return e.stats.LockWaits.Load() > waits })

	split := make(chan error, 1)
	go func() { split <- ix.SplitForInsert(txC, leaf, 512) }()
	if err := watchdog("C's split", split); err != nil {
		t.Fatalf("C's split: %v", err)
	}
	e.commit(txC)
	if err := watchdog("B's delete", deleted); err != nil {
		t.Fatalf("B's delete: %v", err)
	}
	e.commit(txB)
	check := e.tm.Begin()
	if res, _, err := ix.Fetch(check, key(0).Val, EQ); err != nil || res.Found {
		t.Fatalf("key(0) after the delete: %+v, %v", res, err)
	}
	e.commit(check)
	e.checkTree(ix)
}

package recovery

import (
	"slices"
	"sync"
	"testing"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/storage"
)

// planOrder is the redo plan's page order for a log restarted with nothing
// flushed and no checkpoint: every page a redoable record names, in the
// order of its first such record.
func planOrder(e *env) []storage.PageID {
	var order []storage.PageID
	seen := map[storage.PageID]bool{}
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Redoable() && !seen[r.Page] {
			seen[r.Page] = true
			order = append(order, r.Page)
		}
	}
	return order
}

// RedoWorkers: N means N goroutines replaying pages, each walking its
// ShardHash partition of the plan one page at a time in first-redo order.
// With no foreground fixers and no losers, only the drain replays, so the
// replay gate sees every planned page once, each partition in plan order.
func TestDrainReplaysItsPartitionInOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		e := newEnv(t, core.Config{ID: 1})
		tx := e.tm.Begin()
		e.insertRange(tx, 0, 300)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.crash() // nothing was flushed: every page is in the redo plan
		order := planOrder(e)
		if len(order) < 16 {
			t.Fatalf("setup: a plan of %d pages", len(order))
		}
		e.buildVolatile()
		e.ix = e.im.OpenIndex(e.cfg, e.root)
		var mu sync.Mutex
		var got []storage.PageID
		gate := func(pid storage.PageID) {
			mu.Lock()
			got = append(got, pid)
			mu.Unlock()
		}
		o, err := StartOnline(e.log, e.pool, e.tm, e.locks, e.stats, nil,
			OnlineOpts{RestartOpts: RestartOpts{RedoWorkers: workers}, replayGate: gate})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := o.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rep.RedoWorkers != workers || rep.PagesOnDemand != 0 || rep.PagesDrained != len(order) {
			t.Fatalf("workers %d: report has %d workers, %d pages on demand, %d drained; want %d, 0, %d",
				workers, rep.RedoWorkers, rep.PagesOnDemand, rep.PagesDrained, workers, len(order))
		}
		if len(got) != len(order) {
			t.Fatalf("workers %d: %d replays for a plan of %d pages", workers, len(got), len(order))
		}
		for w := 0; w < workers; w++ {
			part := func(pages []storage.PageID) []storage.PageID {
				return slices.DeleteFunc(slices.Clone(pages), func(pid storage.PageID) bool {
					return int(buffer.ShardHash(pid)%uint64(workers)) != w
				})
			}
			if want, gotPart := part(order), part(got); !slices.Equal(gotPart, want) {
				t.Fatalf("workers %d, partition %d: replayed %v, plan order %v", workers, w, gotPart, want)
			}
		}
	}
}

// A page's replay can be started by anybody's Fix, and the drain must not
// count the page as recovered until that replay's frame is installed and
// dirty: the checkpoint the coordinator takes when the drain ends snapshots
// the pool's dirty page table, and a page it misses is redone too late, or
// not at all, after the next crash. Here a foreground Fix is parked inside
// the replay of the plan's last page while the drain does every other page.
func TestOnlineDrainWaitsOutForegroundReplay(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 300)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		want[i] = true
	}
	e.crash() // nothing was flushed: every page is in the redo plan

	// The drain walks the plan in first-redo order, so the plan's last page
	// is not the first page the drain fixes.
	order := planOrder(e)
	if len(order) < 2 {
		t.Fatalf("setup: a plan of %d pages", len(order))
	}
	target := order[len(order)-1]

	entered := make(chan struct{}) // the foreground replay of target has begun
	release := make(chan struct{})
	var once sync.Once
	gate := func(pid storage.PageID) {
		if pid != target {
			<-entered // hold the drain back until the foreground is inside
			return
		}
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	e.buildVolatile()
	e.ix = e.im.OpenIndex(e.cfg, e.root)
	o, err := StartOnline(e.log, e.pool, e.tm, e.locks, e.stats, nil,
		OnlineOpts{RestartOpts: RestartOpts{RedoWorkers: 1}, replayGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	fixed := make(chan error, 1)
	go func() {
		f, err := e.pool.Fix(target)
		if err == nil {
			e.pool.Unfix(f)
		}
		fixed <- err
	}()
	<-entered
	o.mu.Lock()
	_, planned := o.pending[target]
	o.mu.Unlock()
	if !planned {
		t.Error("the plan dropped a page whose replay is still in flight: the drain can end, and the checkpoint be taken, without it")
	}
	close(release)
	if err := <-fixed; err != nil {
		t.Fatal(err)
	}
	if _, err := o.Wait(); err != nil {
		t.Fatal(err)
	}
	o.mu.Lock()
	left := len(o.pending)
	o.mu.Unlock()
	if left != 0 {
		t.Errorf("%d plan entries left after recovery completed", left)
	}

	// The closing checkpoint bounds the next restart: everything must come
	// back from it.
	e.log.ForceAll()
	e.crash()
	e.restart()
	e.expectKeySet(want)
}

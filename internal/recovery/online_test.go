package recovery

import (
	"sync"
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/storage"
)

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

	// The plan's order is first-redo order; the drain prefetches it eight
	// pages at a time, so its last page is safely out of the first batch.
	var order []storage.PageID
	seen := map[storage.PageID]bool{}
	for _, r := range e.log.Records(1) {
		if r.Redoable() && !seen[r.Page] {
			seen[r.Page] = true
			order = append(order, r.Page)
		}
	}
	if len(order) <= 2*redoPrefetchBatch {
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
	o, err := StartOnline(e.log, e.pool, e.tm, e.locks, e.stats,
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

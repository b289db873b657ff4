package buffer

import (
	"sync"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// TestCleanPassFlushesDirtyFrames: one pass cleans every dirty unpinned
// frame — the DPT empties, the frames stay resident, the WAL is forced to
// cover the written pages, and the work is counted as cleaner writes.
func TestCleanPassFlushesDirtyFrames(t *testing.T) {
	d, l, p, st := newEnvCfg(Config{Capacity: 8, Shards: 2})
	var maxLSN wal.LSN
	for id := storage.PageID(2); id <= 7; id++ {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if lsn := update(t, p, l, f, byte(id)); lsn > maxLSN {
			maxLSN = lsn
		}
		p.Unfix(f)
	}
	if l.StableLSN() >= maxLSN {
		t.Fatal("log already stable before the cleaner ran")
	}

	// A single pass is capped at half of each shard (it must not starve
	// foreground fixers), so drain with repeated passes.
	cleaned, passes := 0, 0
	for n := p.CleanPass(DefaultCleanerBatch); n > 0; n = p.CleanPass(DefaultCleanerBatch) {
		cleaned += n
		passes++
	}
	if cleaned != 6 {
		t.Fatalf("clean passes flushed %d frames, want 6", cleaned)
	}
	if passes < 2 {
		t.Fatalf("one pass cleaned everything: the half-shard batch cap is gone")
	}
	if len(p.DPT()) != 0 {
		t.Fatalf("DPT after clean passes: %+v", p.DPT())
	}
	if l.StableLSN() < maxLSN {
		t.Fatalf("cleaner wrote pages without forcing WAL: stable=%d max page LSN=%d", l.StableLSN(), maxLSN)
	}
	if got := st.CleanerWrites.Load(); got != 6 {
		t.Fatalf("CleanerWrites = %d, want 6", got)
	}
	if got := st.CleanerPasses.Load(); got != uint64(passes)+1 {
		t.Fatalf("CleanerPasses = %d, want %d", got, passes+1)
	}
	// Frames stay resident: re-fixing every page is a pure hit.
	misses := st.PageMisses.Load()
	for id := storage.PageID(2); id <= 7; id++ {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f)
	}
	if st.PageMisses.Load() != misses {
		t.Fatal("cleaner evicted frames instead of cleaning them in place")
	}
	// And the contents hit the disk.
	buf := make([]byte, 512)
	if err := d.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if storage.PageFromBytes(buf).LSN() == 0 {
		t.Fatal("cleaned page not on disk")
	}
}

// TestCleanPassSkipsPinnedFrames: a pinned dirty frame is left alone.
func TestCleanPassSkipsPinnedFrames(t *testing.T) {
	_, l, p, _ := newEnvCfg(Config{Capacity: 4, Shards: 1})
	f, err := p.Fix(3)
	if err != nil {
		t.Fatal(err)
	}
	update(t, p, l, f, 0x33) // dirty and pinned
	g, err := p.Fix(4)
	if err != nil {
		t.Fatal(err)
	}
	update(t, p, l, g, 0x44)
	p.Unfix(g) // dirty and unpinned

	if cleaned := p.CleanPass(DefaultCleanerBatch); cleaned != 1 {
		t.Fatalf("CleanPass cleaned %d frames, want only the unpinned one", cleaned)
	}
	dpt := p.DPT()
	if len(dpt) != 1 || dpt[0].Page != 3 {
		t.Fatalf("DPT = %+v, want only the pinned page 3", dpt)
	}
	p.Unfix(f)
}

// TestCleanerMakesForegroundEvictionsClean: after a clean pass, a
// capacity-forced eviction finds a clean victim — no dirty steal on the
// foreground Fix path.
func TestCleanerMakesForegroundEvictionsClean(t *testing.T) {
	_, l, p, st := newEnvCfg(Config{Capacity: 2, Shards: 1})
	for id := storage.PageID(2); id <= 3; id++ {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		update(t, p, l, f, byte(id))
		p.Unfix(f)
	}
	for p.CleanPass(DefaultCleanerBatch) > 0 {
	}

	f, err := p.Fix(9) // forces an eviction in the full shard
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f)
	if st.PageEvicted.Load() == 0 {
		t.Fatal("fix of page 9 did not evict from the full pool")
	}
	if st.EvictionsDirty.Load() != 0 {
		t.Fatal("foreground eviction stole a dirty page despite the clean pass")
	}
}

// TestStartStopCleanerLifecycle covers idempotence and the crash fence:
// StartCleaner twice runs one loop, StopCleaner twice is safe, and Crash
// stops the cleaner synchronously.
func TestStartStopCleanerLifecycle(t *testing.T) {
	_, l, p, st := newEnvCfg(Config{Capacity: 8, Shards: 2})
	p.StartCleaner(time.Millisecond, 4)
	p.StartCleaner(time.Millisecond, 4) // no-op: already running
	p.StartCleaner(0, 4)                // no-op: non-positive interval

	f, err := p.Fix(5)
	if err != nil {
		t.Fatal(err)
	}
	update(t, p, l, f, 0x55)
	p.Unfix(f)
	// The cleaner counts a write after writeBack has taken the page out of
	// the DPT, so wait for the count and then require the DPT empty.
	await(t, "the background cleaner to flush the dirty frame", func() bool { return st.CleanerWrites.Load() > 0 })
	if dpt := p.DPT(); len(dpt) != 0 {
		t.Fatalf("cleaner write counted, DPT still %v", dpt)
	}

	// The loop closes done as it exits, after its last pass: StopCleaner and
	// Crash must not return before that.
	stopped := func(done chan struct{}) bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	done := p.cleanDone
	p.StopCleaner()
	p.StopCleaner() // idempotent
	if !stopped(done) {
		t.Fatal("cleaner still running after StopCleaner")
	}

	// Crash() on a pool with a live cleaner stops it before dropping frames.
	p.StartCleaner(time.Millisecond, 4)
	passes := st.CleanerPasses.Load()
	await(t, "the restarted cleaner's first pass", func() bool { return st.CleanerPasses.Load() > passes })
	done = p.cleanDone
	p.Crash()
	if !stopped(done) {
		t.Fatal("cleaner survived Crash")
	}
	if p.NumBuffered() != 0 {
		t.Fatal("frames survived Crash")
	}
}

// TestCleanerConcurrentWithTraffic races the cleaner against foreground
// updates and (48 pages over four 4-frame shards) continuous eviction: no
// pin leaks, no lost updates, no page in another's frame, and the pool
// drains clean.
func TestCleanerConcurrentWithTraffic(t *testing.T) {
	_, l, p, _ := newEnvCfg(Config{Capacity: 16, Shards: 4})
	p.StartCleaner(100*time.Microsecond, 4)
	defer p.StopCleaner()

	iters := 400
	if testing.Short() {
		iters = 150
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := storage.PageID((g*13+i*5)%48 + 2)
				f, err := p.Fix(id)
				if err != nil {
					continue // exhaustion under churn is acceptable here
				}
				f.Latch.Acquire(latch.S)
				if b := f.Page.Bytes()[100]; b != 0 && b != byte(id) {
					t.Errorf("page %d carries foreign fill byte %#x", id, b)
				}
				f.Latch.Release(latch.S)
				update(t, p, l, f, byte(id))
				p.Unfix(f)
			}
		}(g)
	}
	wg.Wait()
	p.StopCleaner()
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after cleaner traffic: %v", err)
	}
	if len(p.DPT()) != 0 {
		t.Fatal("DPT not empty after quiesce")
	}
}

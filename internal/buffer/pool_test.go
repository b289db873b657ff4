package buffer

import (
	"errors"
	"sync"
	"testing"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

func newEnv(capacity int) (*storage.Disk, *wal.Log, *Pool, *trace.Stats) {
	st := &trace.Stats{}
	d := storage.NewDisk(512)
	l := wal.NewLog(st)
	return d, l, NewPool(d, l, capacity, st), st
}

// newEnvCfg builds a pool with an explicit shard configuration, for tests
// whose eviction-order assertions need a single deterministic shard.
func newEnvCfg(cfg Config) (*storage.Disk, *wal.Log, *Pool, *trace.Stats) {
	st := &trace.Stats{}
	d := storage.NewDisk(512)
	l := wal.NewLog(st)
	return d, l, NewPoolWith(d, l, cfg, st), st
}

// update simulates a logged page mutation under the proper discipline.
func update(t *testing.T, p *Pool, l *wal.Log, f *Frame, fill byte) wal.LSN {
	t.Helper()
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	lsn := l.Append(&wal.Record{Type: wal.RecUpdate, TxID: 1, Page: f.ID(), Op: wal.OpIdxSetBits, Payload: []byte{fill}})
	f.Page.Bytes()[storage.DefaultPageSize%512+100] = fill // arbitrary body byte
	f.Page.SetLSN(uint64(lsn))
	p.MarkDirty(f, lsn)
	return lsn
}

func TestFixMissReadsDisk(t *testing.T) {
	d, _, p, st := newEnv(4)
	content := make([]byte, 512)
	content[100] = 0xEE
	_ = d.Write(7, content)
	f, err := p.Fix(7)
	if err != nil {
		t.Fatal(err)
	}
	if f.Page.Bytes()[100] != 0xEE {
		t.Fatal("fix did not read disk content")
	}
	p.Unfix(f)
	if st.PageMisses.Load() != 1 || st.PageFixes.Load() != 1 {
		t.Fatalf("stats: misses=%d fixes=%d", st.PageMisses.Load(), st.PageFixes.Load())
	}
	// Second fix hits.
	f2, _ := p.Fix(7)
	p.Unfix(f2)
	if st.PageMisses.Load() != 1 {
		t.Fatal("second fix missed")
	}
}

func TestFixInvalidPage(t *testing.T) {
	_, _, p, _ := newEnv(2)
	if _, err := p.Fix(storage.InvalidPageID); err == nil {
		t.Fatal("fix of page 0 succeeded")
	}
}

func TestUnfixWithoutPinPanics(t *testing.T) {
	_, _, p, _ := newEnv(2)
	f, _ := p.Fix(3)
	p.Unfix(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double unfix did not panic")
		}
	}()
	p.Unfix(f)
}

func TestEvictionRespectsWAL(t *testing.T) {
	d, l, p, _ := newEnv(1)
	f, _ := p.Fix(5)
	lsn := update(t, p, l, f, 0xAA)
	p.Unfix(f)
	if l.StableLSN() >= lsn {
		t.Fatal("log forced prematurely")
	}
	// Fixing another page evicts page 5; the steal must force the log.
	f2, err := p.Fix(6)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f2)
	if l.StableLSN() < lsn {
		t.Fatalf("WAL violated: stable=%d, page LSN=%d written to disk", l.StableLSN(), lsn)
	}
	buf := make([]byte, 512)
	_ = d.Read(5, buf)
	if storage.PageFromBytes(buf).LSN() != uint64(lsn) {
		t.Fatal("evicted page content not on disk")
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	_, _, p, _ := newEnv(1)
	f, _ := p.Fix(5)
	if _, err := p.Fix(6); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	p.Unfix(f)
	f2, err := p.Fix(6)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f2)
}

// TestClockSweepSecondChance pins down the per-shard clock replacement on
// a single two-frame shard. The hand builds the slots in order as they are
// first used (page 10 → slot 0, page 11 → slot 1) and is back at slot 0 when
// the shard is full, which makes every sweep below deterministic.
func TestClockSweepSecondChance(t *testing.T) {
	d, l, p, st := newEnvCfg(Config{Capacity: 2, Shards: 1})
	fa, _ := p.Fix(10)
	lsn := update(t, p, l, fa, 1) // page 10 is dirty
	p.Unfix(fa)
	fb, _ := p.Fix(11)
	p.Unfix(fb)

	// First eviction: both frames carry a reference bit, so the sweep
	// clears 10 (slot 0) and 11 (slot 1), laps back, passes the dirty 10 and
	// evicts 11 — the first clean cleared frame the hand re-reaches.
	fc, _ := p.Fix(12)
	p.Unfix(fc)
	if st.PageEvicted.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", st.PageEvicted.Load())
	}
	if st.EvictionsDirty.Load() != 0 {
		t.Fatal("first eviction should have found the clean victim")
	}
	misses := st.PageMisses.Load()
	fa2, _ := p.Fix(10)
	p.Unfix(fa2) // hit: 10 resident, and its reference bit is set again
	if st.PageMisses.Load() != misses {
		t.Fatal("clock evicted page 10 instead of the clean unreferenced 11")
	}

	// Second eviction: both survivors carry reference bits again, but the
	// sweep's clean-preference pass takes the clean 12 and leaves the dirty
	// 10 resident, deferring the steal writeback.
	fd, _ := p.Fix(13)
	p.Unfix(fd)
	if st.PageEvicted.Load() != 2 {
		t.Fatalf("evictions = %d, want 2", st.PageEvicted.Load())
	}
	if st.EvictionsDirty.Load() != 0 {
		t.Fatal("sweep stole the dirty 10 with the clean 12 available")
	}
	misses = st.PageMisses.Load()
	fa3, _ := p.Fix(10)
	p.Unfix(fa3)
	if st.PageMisses.Load() != misses {
		t.Fatal("clean-preference pass evicted the dirty 10 instead of 12")
	}

	// Third eviction: dirty 13 too, so every frame is dirty and the sweep
	// must fall back to a steal — page 10 at the hand — which forces the
	// WAL through the page's LSN before the write.
	fd, _ = p.Fix(13)
	update(t, p, l, fd, 3)
	p.Unfix(fd)
	fe, _ := p.Fix(14)
	p.Unfix(fe)
	if st.EvictionsDirty.Load() != 1 {
		t.Fatalf("EvictionsDirty = %d, want 1", st.EvictionsDirty.Load())
	}
	if l.StableLSN() < lsn {
		t.Fatalf("WAL violated: stable=%d < page LSN %d", l.StableLSN(), lsn)
	}
	buf := make([]byte, 512)
	_ = d.Read(10, buf)
	if storage.PageFromBytes(buf).LSN() != uint64(lsn) {
		t.Fatal("dirty victim's content not written back")
	}
	// 13 kept its residency (its reference bit shielded it).
	misses = st.PageMisses.Load()
	fd2, _ := p.Fix(13)
	p.Unfix(fd2)
	if st.PageMisses.Load() != misses {
		t.Fatal("page 13 lost residency despite its reference bit")
	}
}

func TestDPTTracksRecLSN(t *testing.T) {
	_, l, p, _ := newEnv(4)
	f, _ := p.Fix(5)
	first := update(t, p, l, f, 1)
	second := update(t, p, l, f, 2)
	if second <= first {
		t.Fatal("LSNs not increasing")
	}
	dpt := p.DPT()
	if len(dpt) != 1 || dpt[0].Page != 5 || dpt[0].RecLSN != first {
		t.Fatalf("DPT = %+v, want page 5 recLSN %d", dpt, first)
	}
	p.Unfix(f)
	if err := p.FlushPage(5); err != nil {
		t.Fatal(err)
	}
	if len(p.DPT()) != 0 {
		t.Fatal("DPT entry survived flush")
	}
}

func TestFlushAllAndCrash(t *testing.T) {
	d, l, p, _ := newEnv(8)
	for id := storage.PageID(2); id <= 5; id++ {
		f, _ := p.Fix(id)
		update(t, p, l, f, byte(id))
		p.Unfix(f)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(p.DPT()) != 0 {
		t.Fatal("dirty frames survived FlushAll")
	}
	if d.NumPages() != 4 {
		t.Fatalf("disk pages = %d, want 4", d.NumPages())
	}
	// Dirty a page, crash, verify the update is lost from the pool.
	f, _ := p.Fix(2)
	update(t, p, l, f, 0x77)
	p.Unfix(f)
	p.Crash()
	if p.NumBuffered() != 0 {
		t.Fatal("frames survived crash")
	}
	f2, _ := p.Fix(2)
	if f2.Page.Bytes()[100] == 0x77 {
		t.Fatal("unflushed update survived crash in pool")
	}
	p.Unfix(f2)
}

func TestPinnedPagesReport(t *testing.T) {
	_, _, p, _ := newEnv(4)
	f, _ := p.Fix(9)
	got := p.PinnedPages()
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("PinnedPages = %v", got)
	}
	p.Unfix(f)
	if len(p.PinnedPages()) != 0 {
		t.Fatal("pin leak reported")
	}
}

func TestConcurrentFixUnfix(t *testing.T) {
	_, l, p, _ := newEnv(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := storage.PageID(i%12 + 2)
				f, err := p.Fix(id)
				if err != nil {
					if errors.Is(err, ErrPoolExhausted) {
						continue
					}
					t.Errorf("fix: %v", err)
					return
				}
				if i%5 == 0 {
					f.Latch.Acquire(latch.X)
					lsn := l.Append(&wal.Record{Type: wal.RecUpdate, TxID: wal.TxID(g), Page: id, Op: wal.OpIdxSetBits})
					f.Page.SetLSN(uint64(lsn))
					p.MarkDirty(f, lsn)
					f.Latch.Release(latch.X)
				} else {
					f.Latch.Acquire(latch.S)
					_ = f.Page.LSN()
					f.Latch.Release(latch.S)
				}
				p.Unfix(f)
			}
		}(g)
	}
	wg.Wait()
	if got := p.PinnedPages(); len(got) != 0 {
		t.Fatalf("pins leaked: %v", got)
	}
}

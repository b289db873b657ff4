package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// TestShardStress hammers Fix/Unfix/MarkDirty/eviction across every shard
// from many goroutines, with a pin-leak and DPT-sanity invariant check
// after every quiesced round. Run under -race this exercises the lock-free
// Unfix/MarkDirty paths against concurrent sweeps and writebacks, and —
// each shard holding 4 frames for 12 pages, so it evicts all the time —
// every frame's rebinding against its last holder.
func TestShardStress(t *testing.T) {
	_, l, p, st := newEnvCfg(Config{Capacity: 32, Shards: 8})
	const (
		workers = 8
		pages   = 96 // 3x capacity: every round forces evictions
	)
	rounds, opsPerRound := 8, 400
	if testing.Short() {
		rounds, opsPerRound = 3, 150
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < opsPerRound; i++ {
					id := storage.PageID((g*31+i*7)%pages + 2)
					f, err := p.Fix(id)
					if err != nil {
						if errors.Is(err, ErrPoolExhausted) {
							continue
						}
						t.Errorf("fix %d: %v", id, err)
						return
					}
					if f.ID() != id {
						t.Errorf("fix %d returned frame for page %d", id, f.ID())
					}
					// Every page carries its own ID as a fill byte, so a frame
					// rebound under a holder, or a read landing in a buffer
					// another page owns, shows as a foreign byte (and under
					// -race as a data race on the page).
					if i%4 == 0 {
						f.Latch.Acquire(latch.X)
						lsn := l.Append(&wal.Record{Type: wal.RecUpdate, TxID: wal.TxID(g + 1), Page: id, Op: wal.OpIdxSetBits})
						f.Page.Bytes()[128] = byte(id)
						f.Page.SetLSN(uint64(lsn))
						p.MarkDirty(f, lsn)
						f.Latch.Release(latch.X)
					} else {
						f.Latch.Acquire(latch.S)
						if b := f.Page.Bytes()[128]; b != 0 && b != byte(id) {
							t.Errorf("page %d carries foreign fill byte %#x", id, b)
						}
						f.Latch.Release(latch.S)
					}
					p.Unfix(f)
				}
			}(g)
		}
		wg.Wait()
		// Quiesced invariants: no pin leaked, the pool respected its
		// budget, and every DPT entry is coherent (recLSN set, <= page LSN).
		if pinned := p.PinnedPages(); len(pinned) != 0 {
			t.Fatalf("round %d: pins leaked: %v", round, pinned)
		}
		if n := p.NumBuffered(); n > 32 {
			t.Fatalf("round %d: %d frames resident, capacity 32", round, n)
		}
		for _, e := range p.DPT() {
			if e.RecLSN == wal.NilLSN {
				t.Fatalf("round %d: dirty page %d with nil recLSN", round, e.Page)
			}
		}
	}
	if st.PageEvicted.Load() == 0 {
		t.Fatal("stress never evicted despite 3x-capacity page set")
	}
}

// TestMissStormSingleRead checks the I/O-in-progress frame state: N
// goroutines fixing the same uncached page must trigger exactly one disk
// read — the rest park on the frame and share the loader's result.
func TestMissStormSingleRead(t *testing.T) {
	d, _, p, _ := newEnvCfg(Config{Capacity: 8, Shards: 4})
	content := make([]byte, 512)
	content[100] = 0x5A
	if err := d.Write(77, content); err != nil {
		t.Fatal(err)
	}
	d.SetIODelay(2 * time.Millisecond) // widen the in-flight window
	reads0 := d.ReadCount()

	const n = 16
	frames := make([]*Frame, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := p.Fix(77)
			if err != nil {
				t.Errorf("fix: %v", err)
				return
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()
	if got := d.ReadCount() - reads0; got != 1 {
		t.Fatalf("miss storm issued %d disk reads, want exactly 1", got)
	}
	for i, f := range frames {
		if f == nil {
			t.Fatalf("fixer %d got no frame", i)
		}
		if f != frames[0] {
			t.Fatal("fixers got distinct frames for one page")
		}
		if f.Page.Bytes()[100] != 0x5A {
			t.Fatal("parked fixer saw wrong content")
		}
		p.Unfix(f)
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
}

// TestMissReadDoesNotBlockOtherPages verifies I/O runs outside the shard
// lock: while one fixer's miss read is parked inside the device, a fix of an
// already-resident page in the same shard must complete.
func TestMissReadDoesNotBlockOtherPages(t *testing.T) {
	d, _, p, _ := newEnvCfg(Config{Capacity: 8, Shards: 1})
	fa, err := p.Fix(5) // resident, hot
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(fa)

	g := newGate(6, false, nil)
	d.SetInjector(g)
	loader := fixAsync(p, 6) // the miss holds no shard lock while reading
	<-g.entered
	select {
	case r := <-fixAsync(p, 5):
		if r.err != nil {
			t.Fatal(r.err)
		}
		p.Unfix(r.f)
	case <-time.After(5 * time.Second):
		t.Fatal("hit stalled behind another page's miss read")
	}
	close(g.release)
	if r := <-loader; r.err != nil {
		t.Fatal(r.err)
	} else {
		p.Unfix(r.f)
	}
}

// TestFullPinBoundedRetry checks the transient-exhaustion path: a Fix that
// finds every frame pinned waits out the pin holder and succeeds instead
// of surfacing ErrPoolExhausted, counting the stall.
func TestFullPinBoundedRetry(t *testing.T) {
	_, _, p, st := newEnvCfg(Config{Capacity: 1, Shards: 1})
	f, err := p.Fix(5)
	if err != nil {
		t.Fatal(err)
	}
	waiter := fixAsync(p, 6) // retries while 5 is pinned, then wins the frame
	await(t, "the fix to stall on the pinned frame", func() bool { return st.EvictionStalls.Load() > 0 })
	p.Unfix(f)
	r := <-waiter
	if r.err != nil {
		t.Fatalf("fix did not ride out the transient full-pin: %v", r.err)
	}
	p.Unfix(r.f)
}

// TestFlushAllJoinedError checks that FlushAll attempts every dirty page
// and reports all failures joined, instead of aborting at the first bad
// page and leaving later pages unflushed.
func TestFlushAllJoinedError(t *testing.T) {
	d, l, p, _ := newEnvCfg(Config{Capacity: 4, Shards: 1})
	for _, id := range []storage.PageID{2, 3} {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		update(t, p, l, f, byte(id))
		p.Unfix(f)
	}
	// Page 2 flushes first (ascending order) and exhausts its write
	// retries; page 3's writes then succeed.
	d.SetInjector(&scripted{writes: failWrites(maxIORetries + 1)})

	err := p.FlushAll()
	if err == nil {
		t.Fatal("FlushAll reported success despite a failed page")
	}
	if !errors.Is(err, storage.ErrTransientIO) {
		t.Fatalf("joined error lost the cause: %v", err)
	}
	dpt := p.DPT()
	if len(dpt) != 1 || dpt[0].Page != 2 {
		t.Fatalf("DPT after partial FlushAll = %+v, want only page 2", dpt)
	}
	buf := make([]byte, 512)
	if rerr := d.Read(3, buf); rerr != nil {
		t.Fatal(rerr)
	}
	if storage.PageFromBytes(buf).LSN() == 0 {
		t.Fatal("page 3 was not flushed after page 2's failure")
	}
	// The fault schedule is drained; a retry completes the quiesce.
	if err := p.FlushAll(); err != nil {
		t.Fatalf("retry after joined failure: %v", err)
	}
	if len(p.DPT()) != 0 {
		t.Fatal("DPT not empty after successful FlushAll retry")
	}
}

// TestConcurrentSameShardMix drives fixes, flushes, and DPT snapshots at a
// single shard concurrently — the worst case for the shard mutex — and
// verifies content integrity via per-page fill bytes.
func TestConcurrentSameShardMix(t *testing.T) {
	_, l, p, _ := newEnvCfg(Config{Capacity: 4, Shards: 1})
	pages := []storage.PageID{2, 3, 4, 5, 6, 7}
	iters := 300
	if testing.Short() {
		iters = 100
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := pages[(g+i)%len(pages)]
				switch i % 3 {
				case 0:
					f, err := p.Fix(id)
					if err != nil {
						if errors.Is(err, ErrPoolExhausted) {
							continue
						}
						t.Errorf("fix: %v", err)
						return
					}
					f.Latch.Acquire(latch.X)
					lsn := l.Append(&wal.Record{Type: wal.RecUpdate, TxID: wal.TxID(g + 1), Page: id, Op: wal.OpIdxSetBits, Payload: []byte{byte(id)}})
					f.Page.Bytes()[128] = byte(id) // page-determined fill: any mix is self-consistent
					f.Page.SetLSN(uint64(lsn))
					p.MarkDirty(f, lsn)
					f.Latch.Release(latch.X)
					p.Unfix(f)
				case 1:
					if err := p.FlushPage(id); err != nil {
						t.Errorf("flush: %v", err)
						return
					}
				case 2:
					for _, e := range p.DPT() {
						if e.RecLSN == wal.NilLSN {
							t.Errorf("dirty page %d with nil recLSN", e.Page)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
	for _, id := range pages {
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if b := f.Page.Bytes()[128]; b != 0 && b != byte(id) {
			t.Fatalf("page %d carries foreign fill byte %#x", id, b)
		}
		p.Unfix(f)
	}
}

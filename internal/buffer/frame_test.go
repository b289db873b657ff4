package buffer

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
)

// The fixed frame table: a miss rebinds its victim's frame, page buffer and
// latch. These tests pin the count (nothing is allocated per miss) and the
// states the collector used to cover: a withdrawn frame with fixers still
// parked on it, a frame a Crash found pinned, and a steal that is abandoned.
// They are ordered by hooks inside the device, never by sleeping.

// await spins until cond holds. The conditions waited on are counters and
// channels another goroutine is about to move, so this is a handful of
// yields; the deadline turns a lost wakeup into a failure instead of a hang.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// gate is a FaultInjector that parks the first read (or, with onWrite, the
// first write) of one page inside the device until release is closed; a
// held read then reports readErr.
type gate struct {
	page    storage.PageID
	onWrite bool
	readErr error
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGate(page storage.PageID, onWrite bool, readErr error) *gate {
	g := &gate{page: page, onWrite: onWrite, readErr: readErr,
		entered: make(chan struct{}), release: make(chan struct{})}
	g.armed.Store(true)
	return g
}

func (g *gate) hold(id storage.PageID, write bool) bool {
	if write != g.onWrite || id != g.page || !g.armed.CompareAndSwap(true, false) {
		return false
	}
	close(g.entered)
	<-g.release
	return true
}

func (g *gate) ReadFault(id storage.PageID) error {
	if g.hold(id, false) {
		return g.readErr
	}
	return nil
}

func (g *gate) WriteFault(id storage.PageID, _ int) storage.WriteDecision {
	g.hold(id, true)
	return storage.WriteDecision{Fate: storage.WriteOK}
}

// frameOf returns the frame page id is bound to, unpinned (white box).
func frameOf(p *Pool, id storage.PageID) *Frame {
	s := p.shardOf(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames[id]
}

// writeFilled stores a page whose body byte 100 is fill.
func writeFilled(t *testing.T, d *storage.Disk, id storage.PageID, fill byte) {
	t.Helper()
	b := make([]byte, d.PageSize())
	b[100] = fill
	if err := d.Write(id, b); err != nil {
		t.Fatal(err)
	}
}

type fixResult struct {
	f   *Frame
	err error
}

func fixAsync(p *Pool, id storage.PageID) chan fixResult {
	out := make(chan fixResult, 1)
	go func() {
		f, err := p.Fix(id)
		out <- fixResult{f, err}
	}()
	return out
}

// TestMissPathAllocatesNothing is the count gate of the fixed frame table:
// once every slot has been used, a miss — victim, rebind, disk read — and a
// hit allocate nothing. The pool that built a Frame, a page buffer, a latch
// and a channel per miss reports 6 allocations and over 4 KiB here.
func TestMissPathAllocatesNothing(t *testing.T) {
	const frames, pages = 64, 8 * 64
	d, _, p, st := newEnvCfg(Config{Capacity: frames, Shards: 8})
	for i := 0; i < pages; i++ {
		writeFilled(t, d, storage.PageID(2+i), byte(i))
	}
	next := 0
	fixNext := func() {
		id := storage.PageID(2 + next%pages)
		next++
		f, err := p.Fix(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != id || f.Page.Bytes()[100] != byte(id-2) {
			t.Fatalf("fix of page %d returned page %d with fill %#x", id, f.ID(), f.Page.Bytes()[100])
		}
		p.Unfix(f)
	}
	for i := 0; i < pages; i++ { // warm: every slot's frame is built
		fixNext()
	}

	misses, evicted := st.PageMisses.Load(), st.PageEvicted.Load()
	const runs = 2 * pages
	if a := testing.AllocsPerRun(runs, fixNext); a != 0 {
		t.Errorf("a miss allocates %v times, want 0", a)
	}
	// AllocsPerRun calls once more than it counts, to warm up.
	if got := st.PageMisses.Load() - misses; got != runs+1 {
		t.Errorf("%d of %d page-order fixes missed: the walk is not the miss path", got, runs+1)
	}
	if got := st.PageEvicted.Load() - evicted; got != runs+1 {
		t.Errorf("%d of %d misses evicted a page", got, runs+1)
	}

	hot := storage.PageID(2)
	hit := func() {
		f, err := p.Fix(hot)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f)
	}
	hit()
	misses = st.PageMisses.Load()
	if a := testing.AllocsPerRun(runs, hit); a != 0 {
		t.Errorf("a hit allocates %v times, want 0", a)
	}
	if st.PageMisses.Load() != misses {
		t.Error("the hit loop missed")
	}
}

// TestFailedLoadKeepsFrameUntilPinsDrain: a load fails with two fixers
// parked on it. Both get the loader's error, the frame leaves the map at
// once — and is not rebound while a parked fixer still holds its pin, since
// that fixer has yet to read the error out of it.
func TestFailedLoadKeepsFrameUntilPinsDrain(t *testing.T) {
	d, _, p, st := newEnvCfg(Config{Capacity: 1, Shards: 1})
	writeFilled(t, d, 7, 0x77)
	boom := errors.New("device on fire")
	g := newGate(7, false, boom)
	d.SetInjector(g)

	loader := fixAsync(p, 7)
	<-g.entered
	f := frameOf(p, 7)
	parked := []chan fixResult{fixAsync(p, 7), fixAsync(p, 7)}
	await(t, "two parked fixers", func() bool { return st.FixParks.Load() == 2 })
	// A third parked fixer, one the scheduler has not woken yet when the
	// other two are done: the test holds its pin.
	f.pins.Add(1)
	close(g.release)

	for i, ch := range append(parked, loader) {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Fatalf("fixer %d: got (%v, %v), want the loader's error", i, r.f, r.err)
		}
	}
	if p.Contains(7) {
		t.Fatal("the withdrawn frame is still in the page table")
	}
	await(t, "the loader's and the parked fixers' pins to drop", func() bool { return f.pins.Load() == 1 })
	s := &p.shards[0]
	s.mu.Lock()
	_, err := p.victimLocked(s)
	s.mu.Unlock()
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("victim search with a fixer still parked on the withdrawn frame: %v, want ErrPoolExhausted", err)
	}

	f.pins.Add(-1)
	f8, err := p.Fix(8)
	if err != nil {
		t.Fatalf("fix after the pins drained: %v", err)
	}
	if f8 != f || f8.ID() != 8 {
		t.Fatalf("page 8 is in frame %p (page %d), want the withdrawn frame %p rebound", f8, f8.ID(), f)
	}
	p.Unfix(f8)
	f7, err := p.Fix(7) // the gate is spent: this read succeeds
	if err != nil {
		t.Fatalf("retry of the failed page: %v", err)
	}
	if f7.Page.Bytes()[100] != 0x77 {
		t.Fatal("retried load returned wrong content")
	}
	p.Unfix(f7)
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
}

// TestCrashDropsLoadingFrame: Crash while a loader is inside disk.Read. The
// frame it reads into is dropped from the table, so when the zombie's read
// lands — or fails — after the crash, the page fixed into that shard since
// is untouched, in bytes, in identity and in the page table.
func TestCrashDropsLoadingFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		readErr error
	}{{"zombie read lands", nil}, {"zombie read fails", errors.New("device gone")}} {
		t.Run(tc.name, func(t *testing.T) {
			d, l, p, _ := newEnvCfg(Config{Capacity: 1, Shards: 1})
			writeFilled(t, d, 7, 0x77)
			g := newGate(7, false, tc.readErr)
			d.SetInjector(g)
			zombie := fixAsync(p, 7)
			<-g.entered
			orphan := frameOf(p, 7)

			p.Crash()
			// The successor: the same page in the same one-slot shard, so a
			// zombie that kept its slot or its map entry would show.
			f, err := p.Fix(7)
			if err != nil {
				t.Fatal(err)
			}
			if f == orphan {
				t.Fatal("the successor was handed the frame a zombie loader is reading into")
			}
			update(t, p, l, f, 0x99)
			f.Latch.Acquire(latch.S)
			before := append([]byte(nil), f.Page.Bytes()...)
			f.Latch.Release(latch.S)

			close(g.release)
			r := <-zombie
			if tc.readErr == nil {
				if r.err != nil || r.f != orphan {
					t.Fatalf("zombie fix: (%p, %v), want its own orphaned frame %p", r.f, r.err, orphan)
				}
				p.Unfix(r.f)
			} else if !errors.Is(r.err, tc.readErr) {
				t.Fatalf("zombie fix: %v, want %v", r.err, tc.readErr)
			}

			f.Latch.Acquire(latch.S)
			if f.ID() != 7 || string(f.Page.Bytes()) != string(before) {
				t.Fatal("the zombie's read changed the successor's frame")
			}
			f.Latch.Release(latch.S)
			if frameOf(p, 7) != f {
				t.Fatal("the zombie's unwinding took the successor out of the page table")
			}
			p.Unfix(f)
			if pinned := p.PinnedPages(); len(pinned) != 0 {
				t.Fatalf("PinnedPages after the zombie finished: %v", pinned)
			}
			if n := p.NumBuffered(); n != 1 {
				t.Fatalf("NumBuffered = %d, want 1", n)
			}
		})
	}
}

// TestAbandonedStealKeepsFrameBound: a fixer re-pins a dirty victim while
// its steal write-back is inside the device. The write completes, the
// eviction does not: the frame stays bound to its page for the fixer.
func TestAbandonedStealKeepsFrameBound(t *testing.T) {
	d, l, p, st := newEnvCfg(Config{Capacity: 1, Shards: 1})
	f, err := p.Fix(5)
	if err != nil {
		t.Fatal(err)
	}
	lsn := update(t, p, l, f, 0x55)
	p.Unfix(f)
	g := newGate(5, true, nil)
	d.SetInjector(g)

	evictor := fixAsync(p, 6) // steals page 5: pins it, writes it back
	<-g.entered
	again, err := p.Fix(5) // a hit, mid write-back
	if err != nil {
		t.Fatal(err)
	}
	if again != f {
		t.Fatal("re-fix of the page being stolen returned another frame")
	}
	close(g.release)
	// The evictor found the pin, gave the steal up and has nothing else to
	// take in a one-frame shard.
	await(t, "the evictor to stall", func() bool { return st.EvictionStalls.Load() > 0 })
	if f.ID() != 5 || frameOf(p, 5) != f || f.Page.Bytes()[storage.DefaultPageSize%512+100] != 0x55 {
		t.Fatal("the abandoned steal unbound or overwrote the re-pinned frame")
	}
	if st.PageEvicted.Load() != 0 {
		t.Fatal("the abandoned steal was counted as an eviction")
	}
	if len(p.DPT()) != 0 {
		t.Fatal("the write-back completed but the frame is still dirty")
	}
	p.Unfix(again)

	// With the pin gone the evictor's retry wins the frame, unless it ran
	// out of retries first; then this fix does.
	r := <-evictor
	if r.err != nil && !errors.Is(r.err, ErrPoolExhausted) {
		t.Fatal(r.err)
	}
	if r.err != nil {
		if r.f, err = p.Fix(6); err != nil {
			t.Fatal(err)
		}
	}
	if r.f != f || r.f.ID() != 6 {
		t.Fatal("page 6 did not take over the one frame")
	}
	p.Unfix(r.f)
	buf := make([]byte, 512)
	if err := d.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if storage.PageFromBytes(buf).LSN() != uint64(lsn) {
		t.Fatal("the stolen page's content did not reach the disk")
	}
}

// TestMediaRecoveryReReadsIntoSameFrame: a checksum failure on the miss
// read is healed by media recovery while two fixers are parked; the re-read
// lands in the same frame and all three see the healed page.
func TestMediaRecoveryReReadsIntoSameFrame(t *testing.T) {
	d, _, p, st := newEnvCfg(Config{Capacity: 4, Shards: 1})
	writeFilled(t, d, 9, 0x42)
	d.CorruptBits(9, 200, 0xFF)
	entered, release := make(chan struct{}), make(chan struct{})
	p.SetMediaRecoverer(func(id storage.PageID) error {
		close(entered)
		<-release
		b := make([]byte, d.PageSize())
		b[100] = 0x42
		return d.Write(id, b)
	})
	reads := d.ReadCount()

	loader := fixAsync(p, 9)
	<-entered
	f := frameOf(p, 9)
	buf := &f.Page.Bytes()[0]
	parked := []chan fixResult{fixAsync(p, 9), fixAsync(p, 9)}
	await(t, "two parked fixers", func() bool { return st.FixParks.Load() == 2 })
	close(release)

	for i, ch := range append(parked, loader) {
		r := <-ch
		if r.err != nil {
			t.Fatalf("fixer %d: %v", i, r.err)
		}
		if r.f != f || &r.f.Page.Bytes()[0] != buf {
			t.Fatalf("fixer %d got another frame or another buffer", i)
		}
		if b := r.f.Page.Bytes(); b[100] != 0x42 || b[200] != 0 {
			t.Fatalf("fixer %d sees the corrupt page", i)
		}
		p.Unfix(r.f)
	}
	if got := d.ReadCount() - reads; got != 2 {
		t.Fatalf("%d disk reads, want the corrupt one and the healed one", got)
	}
	if pinned := p.PinnedPages(); len(pinned) != 0 {
		t.Fatalf("pins leaked: %v", pinned)
	}
}

// TestRebindOfLatchedFramePanics: a pin covers every latch hold. A caller
// that unfixes first and unlatches second would have its frame rebound under
// it; the pool panics at the rebind instead, as it does for a pinned victim.
func TestRebindOfLatchedFramePanics(t *testing.T) {
	for _, tc := range []struct {
		name          string
		hold, release func(*Pool, *Frame)
	}{
		{"latched", func(p *Pool, f *Frame) { f.Latch.Acquire(latch.S); p.Unfix(f) }, func(_ *Pool, f *Frame) { f.Latch.Release(latch.S) }},
		{"pinned", func(*Pool, *Frame) {}, func(p *Pool, f *Frame) { p.Unfix(f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, p, _ := newEnvCfg(Config{Capacity: 1, Shards: 1})
			f, err := p.Fix(5)
			if err != nil {
				t.Fatal(err)
			}
			tc.hold(p, f)
			defer tc.release(p, f)
			s := &p.shards[0]
			s.mu.Lock()
			defer s.mu.Unlock()
			defer func() {
				if recover() == nil {
					t.Fatal("rebind did not panic")
				}
			}()
			p.rebind(s, f, 6)
		})
	}
}

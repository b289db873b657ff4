// Package buffer implements the buffer pool: the volatile page cache
// between the index/record managers and the simulated disk.
//
// It enforces the two policies ARIES is designed around (paper §1.2):
//
//   - steal: a dirty page may be written to disk before its updating
//     transaction commits — but only after the log is forced up to the
//     page's page_LSN (the write-ahead-logging protocol);
//   - no-force: commit does not flush pages; it only forces the log.
//
// Frames carry the per-page latch (physical consistency) and the dirty
// page table entry (recLSN) that restart analysis/redo consume. Crash()
// unbinds every frame, modeling loss of volatile state.
//
// The frame table is fixed: a slot's Frame — struct, page buffer and latch —
// is built the first time the slot is used and kept for the life of the
// pool. A miss rebinds its victim's frame to the incoming page and reads
// into the same bytes, so nothing is allocated per miss. What makes that
// safe is one rule for every caller: a pin covers every latch hold and
// every read of Frame.Page, and nothing read from the page outlives it.
//
// The table is hash-sharded (Fibonacci multiplicative mixing, the
// same idiom as the lock manager) with per-shard clock-sweep replacement,
// so concurrent fixes of different pages touch independent mutexes. Three
// properties keep I/O out of every shard lock:
//
//   - miss reads run on a frame rebound in "loading" state: the reading
//     fixer holds only a pin, concurrent fixers of the same page park on
//     the frame's load state (exactly one disk read per miss storm), and
//     fixers of other pages proceed through the shard untouched;
//   - steal writebacks pin the victim and write outside the shard lock;
//     a fixer arriving mid-writeback simply re-pins the (still resident)
//     frame and the eviction is abandoned;
//   - Unfix and MarkDirty never take a shard lock at all: pin counts are
//     atomic and the dirty/recLSN pair sits under a per-frame mutex.
//
// An optional background page cleaner (cleaner.go) flushes dirty frames
// just ahead of the clock hand so foreground evictions almost always find
// clean victims and checkpoint DPT snapshots stay small.
package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// ErrPoolExhausted reports that every candidate frame stayed pinned across
// the bounded eviction retries; the pool cannot honor a new Fix. Engines
// size pools to their working set, so hitting this indicates a pin leak or
// a deliberately tiny test pool. Transient full-pin episodes are absorbed
// by Fix's wait-and-retry (counted as EvictionStalls) before this surfaces.
var ErrPoolExhausted = errors.New("buffer: all frames pinned")

// maxStallRetries caps the wait-and-retry rounds a Fix spends on a shard
// whose every frame is transiently pinned (concurrent traversals plus a
// cleaner batch can pin a small shard wall-to-wall for a few I/O times).
// The budget is deliberately larger than the I/O retry budget: with capped
// backoff it rides out several milliseconds of full-pin before surfacing
// ErrPoolExhausted, which then almost certainly means a pin leak or a pool
// far too small for the traversal footprint.
const maxStallRetries = 20

// maxStallBackoff caps the per-round stall wait.
const maxStallBackoff = 400 * time.Microsecond

// maxIORetries caps how many times a transient disk error is retried
// before the pool gives up and surfaces it. The same bound caps the
// full-pin eviction retries in Fix.
const maxIORetries = 6

// DefaultShards is the frame-table shard count NewPool uses: enough to
// spread a 16-worker benchmark's fixes across independent mutexes without
// bloating single-threaded engines. The effective count is clamped so
// every shard owns at least one frame.
const DefaultShards = 8

// minFramesPerShard is the smallest per-shard frame budget the default
// shard count will accept; tiny pools degrade toward a single shard so a
// burst of simultaneous pins cannot exhaust a sliver of the pool.
const minFramesPerShard = 8

// MediaRecoverer rebuilds a page on stable storage after its disk copy was
// found corrupt (checksum mismatch) or permanently unreadable. The engine
// installs one that restores from the latest image copy and rolls the page
// forward from the log.
type MediaRecoverer func(storage.PageID) error

// RecoveryHook is invoked after a miss read completes, before any parked
// fixer is released — the single-page redo point of online restart. The
// hook replays the page's log suffix in place and reports whether it
// changed the page (and from which LSN), so the pool can install the
// dirty/recLSN state itself; the hook must NOT call back into the pool
// (it runs inside the loading-frame protocol). A hook error
// withdraws the frame exactly like a failed read: parked fixers fail fast
// and a later Fix retries from scratch. Because the hook rides the
// loading-frame protocol, N concurrent fixers of one page cost exactly
// one replay.
type RecoveryHook func(id storage.PageID, p *storage.Page) (dirty bool, recLSN wal.LSN, err error)

// Frame is one slot of the frame table and the page currently bound to it:
// the page bytes, the page latch, and the pin / dirty / recLSN bookkeeping.
// Callers mutate Page only while holding Latch in X mode and must call
// MarkDirty before they log the change. A *Frame, its Page and every slice
// of the page's bytes are the caller's only until Unfix: the next miss may
// rebind all three to another page.
type Frame struct {
	Page  *storage.Page
	Latch *latch.Latch

	// id is the bound page, InvalidPageID while the frame is unbound (its
	// load failed, or a Crash dropped its page). Written only under the
	// owning shard's mutex with no pin holder able to read it.
	id storage.PageID

	// pins is the pin count. Increments happen only under the owning
	// shard's mutex (so an evictor that observes zero under that mutex
	// knows no pin can appear); decrements are lock-free.
	pins atomic.Int64
	// ref is the clock-sweep reference bit, set on every Unfix.
	ref atomic.Bool

	// loading is true from rebind until the miss read has finished; fixers
	// that arrive meanwhile park on loaded. loadErr is written before
	// loading goes false and is non-nil when the read failed (the frame
	// was withdrawn); it is read only under a pin.
	loading atomic.Bool
	loadErr error
	loaded  sync.Cond // on mu

	// mu guards dirty and recLSN, so MarkDirty and DPT snapshots never
	// touch a shard lock.
	mu     sync.Mutex
	dirty  bool
	recLSN wal.LSN
}

// ID returns the buffered page's ID.
func (f *Frame) ID() storage.PageID { return f.id }

// markClean transitions dirty→clean. Called under the frame's S latch
// right after a successful writeback, so no X-latch holder can interleave
// a MarkDirty between the write and the transition.
func (f *Frame) markClean() {
	f.mu.Lock()
	f.dirty = false
	f.recLSN = wal.NilLSN
	f.mu.Unlock()
}

func (f *Frame) isDirty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dirty
}

// awaitLoad parks until the frame's miss read has finished. The caller
// holds a pin, so the frame cannot go back to loading under it.
func (f *Frame) awaitLoad() {
	f.mu.Lock()
	for f.loading.Load() {
		f.loaded.Wait()
	}
	f.mu.Unlock()
}

// finishLoad publishes the outcome of the miss read and wakes the parked
// fixers.
func (f *Frame) finishLoad(err error) {
	f.mu.Lock()
	f.loadErr = err
	f.loading.Store(false)
	f.mu.Unlock()
	f.loaded.Broadcast()
}

// poolShard is one partition of the frame table: a fixed slot array the
// clock hand sweeps, plus the page→frame map of the bound frames.
type poolShard struct {
	mu     sync.Mutex
	frames map[storage.PageID]*Frame
	slots  []*Frame // len == shard capacity; nil until the slot is first used
	hand   int      // clock hand position in slots
}

// rebind evicts whatever page f holds and binds f, pinned once and loading,
// to id. Called with s.mu held on a victim victimLocked returned: the rule
// that a pin covers every latch hold is checked here, where breaking it
// would hand one goroutine another page's bytes.
func (p *Pool) rebind(s *poolShard, f *Frame, id storage.PageID) {
	if n := f.pins.Load(); n != 0 || f.Latch.Held() {
		panic(fmt.Sprintf("buffer: rebind of page %d's frame to page %d with %d pins or its latch held", f.id, id, n))
	}
	if f.id != storage.InvalidPageID {
		delete(s.frames, f.id)
		p.stats.PageEvicted.Add(1)
	}
	f.id = id
	f.loadErr = nil
	f.loading.Store(true)
	f.pins.Store(1)
	s.frames[id] = f
}

// Config configures a pool beyond the defaults.
type Config struct {
	// Capacity is the total frame budget across all shards (required).
	Capacity int
	// Shards is the frame-table shard count, rounded up to a power of two
	// and clamped so each shard holds at least one frame. Zero uses
	// DefaultShards; one reproduces a single-mutex pool.
	Shards int
}

// Pool is the buffer pool.
type Pool struct {
	disk     *storage.Disk
	log      *wal.Log
	stats    *trace.Stats
	capacity int

	shards []poolShard
	mask   uint64

	recoverMu sync.RWMutex
	recover   MediaRecoverer

	hookMu  sync.RWMutex
	recHook RecoveryHook

	// Background page cleaner (see cleaner.go).
	cleanMu   sync.Mutex
	cleanStop chan struct{}
	cleanDone chan struct{}
}

// NewPool creates a pool of at most capacity frames over disk with
// DefaultShards shards, forcing log as the WAL protocol requires on steal.
func NewPool(disk *storage.Disk, log *wal.Log, capacity int, stats *trace.Stats) *Pool {
	return NewPoolWith(disk, log, Config{Capacity: capacity}, stats)
}

// NewPoolWith creates a pool with explicit sharding configuration.
func NewPoolWith(disk *storage.Disk, log *wal.Log, cfg Config, stats *trace.Stats) *Pool {
	if cfg.Capacity < 1 {
		panic(fmt.Sprintf("buffer: capacity %d", cfg.Capacity))
	}
	n := 1
	if cfg.Shards > 0 {
		for n < cfg.Shards {
			n <<= 1
		}
		for n > cfg.Capacity {
			n >>= 1
		}
	} else {
		// Default sharding backs off on small pools: a shard with fewer
		// than minFramesPerShard frames can be exhausted by one
		// traversal's simultaneous pins, which a shared pool absorbs.
		n = DefaultShards
		for n > 1 && cfg.Capacity < n*minFramesPerShard {
			n >>= 1
		}
	}
	p := &Pool{
		disk:     disk,
		log:      log,
		stats:    trace.OrNew(stats),
		capacity: cfg.Capacity,
		shards:   make([]poolShard, n),
		mask:     uint64(n - 1),
	}
	base, extra := cfg.Capacity/n, cfg.Capacity%n
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		s := &p.shards[i]
		s.frames = make(map[storage.PageID]*Frame, c)
		s.slots = make([]*Frame, c)
	}
	return p
}

// ShardHash mixes a page ID with the Fibonacci multiplicative constant
// (the same idiom as the lock manager) so adjacent page IDs spread evenly
// across any power-of-two or modulo partitioning. Exported so other
// page-partitioned fan-outs — notably parallel restart redo — divide pages
// exactly the way the pool does.
func ShardHash(id storage.PageID) uint64 {
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// shardOf returns the shard owning page id.
func (p *Pool) shardOf(id storage.PageID) *poolShard {
	return &p.shards[ShardHash(id)&p.mask]
}

// NumShards returns the effective shard count (power of two, ≤ capacity).
func (p *Pool) NumShards() int { return len(p.shards) }

// PageSize returns the underlying disk's page size.
func (p *Pool) PageSize() int { return p.disk.PageSize() }

// SetMediaRecoverer installs the self-healing hook invoked when a page
// read fails its checksum or hits a permanent device error.
func (p *Pool) SetMediaRecoverer(r MediaRecoverer) {
	p.recoverMu.Lock()
	p.recover = r
	p.recoverMu.Unlock()
}

func (p *Pool) mediaRecoverer() MediaRecoverer {
	p.recoverMu.RLock()
	defer p.recoverMu.RUnlock()
	return p.recover
}

// SetRecoveryHook installs (or, with nil, removes) the on-demand redo hook
// run on every miss read. Installed before the engine opens for business
// and removed once the background drain has emptied the recovery plan.
func (p *Pool) SetRecoveryHook(h RecoveryHook) {
	p.hookMu.Lock()
	p.recHook = h
	p.hookMu.Unlock()
}

func (p *Pool) recoveryHook() RecoveryHook {
	p.hookMu.RLock()
	defer p.hookMu.RUnlock()
	return p.recHook
}

// runRecoveryHook applies the installed hook (if any) to a freshly read
// frame, installing the resulting dirty/recLSN state directly. No latch is
// needed: the frame is still loading, so no other fixer can hold it.
func (p *Pool) runRecoveryHook(f *Frame) error {
	hook := p.recoveryHook()
	if hook == nil {
		return nil
	}
	dirty, recLSN, err := hook(f.id, f.Page)
	if err != nil {
		return err
	}
	if dirty {
		f.mu.Lock()
		if !f.dirty {
			f.dirty = true
			f.recLSN = recLSN
		}
		f.mu.Unlock()
	}
	return nil
}

// backoff is the capped linear retry delay for transient I/O errors. Real
// engines wait out controller hiccups; the simulator keeps the shape (and
// the retry accounting) at microsecond scale.
func backoff(attempt int) time.Duration {
	return time.Duration(attempt+1) * 50 * time.Microsecond
}

// readPage reads page id with graceful degradation: transient errors are
// retried with capped backoff, and checksum or permanent failures trigger
// one automatic media recovery before the read is retried. Anything the
// pool cannot heal is returned to the caller.
func (p *Pool) readPage(id storage.PageID, buf []byte) error {
	recoveries := 0
	for attempt := 0; ; attempt++ {
		err := p.disk.Read(id, buf)
		if err == nil {
			return nil
		}
		switch {
		case errors.Is(err, storage.ErrTransientIO):
			if attempt >= maxIORetries {
				return err
			}
			p.stats.IORetries.Add(1)
			time.Sleep(backoff(attempt))
		case errors.Is(err, storage.ErrChecksum) || errors.Is(err, storage.ErrPermanentIO):
			p.stats.CorruptPages.Add(1)
			// Recovery's own rebuild write may be torn or flipped by the
			// same faulty device, so allow a few rounds; a fault injector
			// that caps consecutive faults guarantees convergence.
			recover := p.mediaRecoverer()
			if recover == nil || recoveries >= maxIORetries {
				return err
			}
			recoveries++
			if rerr := recover(id); rerr != nil {
				return fmt.Errorf("buffer: media recovery of page %d failed: %w", id, rerr)
			}
		default:
			return err
		}
	}
}

// writePage writes page id, retrying transient device errors with capped
// backoff. Non-transient errors surface immediately.
func (p *Pool) writePage(id storage.PageID, buf []byte) error {
	for attempt := 0; ; attempt++ {
		err := p.disk.Write(id, buf)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrTransientIO) || attempt >= maxIORetries {
			return err
		}
		p.stats.IORetries.Add(1)
		time.Sleep(backoff(attempt))
	}
}

// Fix pins page id in the pool, reading it from disk on a miss (a page
// never written reads as zeroes, which the caller will Format). The caller
// must Unfix the frame, and must latch Frame.Latch before touching bytes.
//
// Only the shard owning id is locked, and never across I/O: a miss read
// runs with the shard free, so fixers of other pages in the same shard
// proceed, and concurrent fixers of the same page park on the frame and
// share the single read.
func (p *Pool) Fix(id storage.PageID) (*Frame, error) {
	if id == storage.InvalidPageID {
		return nil, errors.New("buffer: fix of invalid page 0")
	}
	p.stats.PageFixes.Add(1)
	s := p.shardOf(id)
	for stalls := 0; ; {
		s.mu.Lock()
		if hit, ok := s.frames[id]; ok {
			hit.pins.Add(1)
			hit.ref.Store(true)
			s.mu.Unlock()
			// Park until the frame's read (if any) completes; on a loaded
			// frame this is a single atomic load.
			if hit.loading.Load() {
				p.stats.FixParks.Add(1)
				hit.awaitLoad()
			}
			if err := hit.loadErr; err != nil {
				// The loader withdrew the frame; surface its error. The
				// frame is not rebound before this pin is gone.
				hit.pins.Add(-1)
				return nil, err
			}
			return hit, nil
		}
		f, err := p.victimLocked(s)
		if err == nil {
			if _, ok := s.frames[id]; ok {
				// A steal write-back released the shard and another fixer
				// brought id in meanwhile; the victim keeps its page.
				s.mu.Unlock()
				continue
			}
			p.stats.PageMisses.Add(1)
			p.rebind(s, f, id)
			s.mu.Unlock()
			return p.load(s, f)
		}
		s.mu.Unlock()
		if !errors.Is(err, ErrPoolExhausted) || stalls >= maxStallRetries {
			return nil, err
		}
		// Transient full-pin: every candidate was pinned at this instant.
		// Wait out the pin holders and retry instead of failing the caller.
		p.stats.EvictionStalls.Add(1)
		wait := backoff(stalls)
		if wait > maxStallBackoff {
			wait = maxStallBackoff
		}
		time.Sleep(wait)
		stalls++
	}
}

// load runs the miss read into f, just rebound in s and pinned by the
// caller, and ends its loading state either way.
func (p *Pool) load(s *poolShard, f *Frame) (*Frame, error) {
	id := f.id
	err := p.readPage(id, f.Page.Bytes())
	if err == nil {
		err = p.runRecoveryHook(f)
	}
	if err != nil {
		// Withdraw the frame so parked fixers fail fast and a later Fix
		// retries the read from scratch. It stays in its slot, unbound, and
		// is rebound once the parked fixers' pins are gone. A frame that a
		// Crash dropped mid-read is in no map: id may be a successor's.
		s.mu.Lock()
		if s.frames[id] == f {
			delete(s.frames, id)
			f.id = storage.InvalidPageID
		}
		s.mu.Unlock()
		f.finishLoad(err)
		f.pins.Add(-1)
		return nil, err
	}
	f.finishLoad(nil)
	return f, nil
}

// Unfix releases one pin on the frame and grants it a clock second chance.
// Lock-free: it must never contend with other pages' fixes.
func (p *Pool) Unfix(f *Frame) {
	if f.pins.Add(-1) < 0 {
		panic(fmt.Sprintf("buffer: unfix of unpinned page %d", f.id))
	}
	f.ref.Store(true)
}

// MarkDirty records that the holder of the frame's X latch is applying an
// update logged at lsn or later. On a clean→dirty transition lsn becomes the
// frame's recLSN (the dirty page table entry ARIES redo starts from).
// Touches only the frame's own mutex.
func (p *Pool) MarkDirty(f *Frame, lsn wal.LSN) {
	f.mu.Lock()
	if !f.dirty {
		f.dirty = true
		f.recLSN = lsn
	}
	f.mu.Unlock()
}

// victimLocked picks the frame the next miss in s will be bound to, via a
// clock sweep. Called with s.mu held; returns with it held, the victim
// unpinned, clean and still bound to its old page (rebind evicts that). The
// sweep builds the frame of a slot never used, takes an unbound frame as it
// is, skips pinned frames and clears reference bits (second chance), and
// runs in two passes: the first accepts only CLEAN victims, so a dirty
// frame is stolen only when no clean unpinned frame exists in the shard —
// with the page cleaner running, the foreground Fix path almost never pays
// a steal writeback. A dirty victim (second pass) is pinned and written back
// with the shard lock RELEASED, so fixes of other pages in the shard
// proceed during the I/O. ErrPoolExhausted means every frame stayed pinned
// across all passes.
func (p *Pool) victimLocked(s *poolShard) (*Frame, error) {
	n := len(s.slots)
	for _, allowDirty := range [2]bool{false, true} {
		for i := 0; i < 2*n; i++ {
			slot := s.hand
			s.hand = (s.hand + 1) % n
			f := s.slots[slot]
			if f == nil {
				// First use of the slot: the only place a frame is built.
				f = &Frame{Page: storage.NewPage(p.disk.PageSize()), Latch: latch.New(p.stats)}
				f.loaded.L = &f.mu
				s.slots[slot] = f
				return f, nil
			}
			if f.pins.Load() != 0 {
				continue // in use, or withdrawn with fixers still parked on it
			}
			if f.id == storage.InvalidPageID {
				return f, nil
			}
			if f.ref.Swap(false) {
				continue // second chance
			}
			if !f.isDirty() {
				return f, nil
			}
			if !allowDirty {
				continue // clean-preference pass: leave the steal for later
			}
			// Dirty victim: pin it (under s.mu, so the zero pin count we saw
			// cannot change concurrently) and do the steal outside the lock.
			f.pins.Add(1)
			p.stats.EvictionsDirty.Add(1)
			s.mu.Unlock()
			err := p.writeBack(f)
			s.mu.Lock()
			f.pins.Add(-1)
			if err != nil {
				// The frame stays resident, dirty, and in the DPT: nothing is
				// lost, and a later evict or flush retries the write.
				return nil, err
			}
			if f.pins.Load() == 0 && !f.isDirty() && s.slots[slot] == f {
				return f, nil
			}
			// A fixer re-pinned (or re-dirtied) the frame mid-writeback, or a
			// Crash dropped it: the steal is abandoned, the frame keeps its
			// page, and the sweep goes on.
		}
	}
	return nil, ErrPoolExhausted
}

// writeBack forces the log to the frame's page_LSN and writes the page,
// transitioning it clean — the steal path. The caller must hold a pin.
// The S latch spans the LSN read, the write, and the clean transition, so
// no X-latch holder can slip an update between the write and markClean.
// A frame found already clean is a no-op.
func (p *Pool) writeBack(f *Frame) error {
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	if !f.isDirty() {
		return nil
	}
	// Steal: WAL demands the log be stable up to the page's LSN before the
	// page replaces its disk version. This goes through the group-commit
	// path, so an eviction storm coalesces with in-flight commit forces
	// instead of each paying a separate device flush.
	p.log.Force(wal.LSN(f.Page.LSN()))
	if err := p.writePage(f.id, f.Page.Bytes()); err != nil {
		return err
	}
	f.markClean()
	p.stats.PageWrites.Add(1)
	return nil
}

// FlushPage forces page id to disk if buffered and dirty (media recovery
// and tests; ordinary commits never flush). It briefly S-latches the frame
// for a consistent image.
func (p *Pool) FlushPage(id storage.PageID) error {
	s := p.shardOf(id)
	s.mu.Lock()
	f, ok := s.frames[id]
	if !ok {
		s.mu.Unlock()
		return nil
	}
	f.pins.Add(1) // hold the frame across the writeback
	s.mu.Unlock()
	f.awaitLoad()
	var err error
	if f.loadErr == nil {
		err = p.writeBack(f)
	}
	f.pins.Add(-1)
	return err
}

// FlushAll flushes every dirty frame (quiesce points and image copies).
// Every dirty page is attempted even after a failure; the errors are
// joined, so one bad page no longer blocks the flush of all later pages.
func (p *Pool) FlushAll() error {
	var ids []storage.PageID
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for id, f := range s.frames {
			if f.isDirty() {
				ids = append(ids, id)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var errs []error
	for _, id := range ids {
		if err := p.FlushPage(id); err != nil {
			errs = append(errs, fmt.Errorf("buffer: flush page %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// DPT snapshots the dirty page table for a fuzzy checkpoint: every dirty
// frame with its recLSN.
func (p *Pool) DPT() []wal.DPTEntry {
	var out []wal.DPTEntry
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for id, f := range s.frames {
			f.mu.Lock()
			if f.dirty {
				out = append(out, wal.DPTEntry{Page: id, RecLSN: f.recLSN})
			}
			f.mu.Unlock()
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// Crash discards every buffered page without writing anything: the volatile
// half of the failure model. Dirty pages whose updates were not stolen to
// disk are simply lost; restart redo brings them back from the log. The page
// cleaner is stopped first and waited for, so no cleaner write can land
// after Crash returns (the crash fence); the pool itself remains usable
// (restart recovery refills it). An unpinned frame stays in its slot,
// unbound. A pinned one — a loader still inside its read, a fixer or a
// steal that will finish after the crash — is dropped with its slot left
// to be built again: whatever its holder still reads or writes, it is not a
// buffer a successor page owns.
func (p *Pool) Crash() {
	p.StopCleaner()
	p.SetRecoveryHook(nil) // any pending recovery plan died with the volatile state
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		clear(s.frames)
		for j, f := range s.slots {
			switch {
			case f == nil:
			case f.pins.Load() != 0:
				s.slots[j] = nil
			default:
				f.id = storage.InvalidPageID
				f.markClean()
			}
		}
		s.hand = 0
		s.mu.Unlock()
	}
}

// Contains reports whether page id is currently resident (possibly still
// loading). Advisory: the answer can be stale by the time the caller acts
// on it.
func (p *Pool) Contains(id storage.PageID) bool {
	s := p.shardOf(id)
	s.mu.Lock()
	_, ok := s.frames[id]
	s.mu.Unlock()
	return ok
}

// NumBuffered returns the number of resident frames.
func (p *Pool) NumBuffered() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// PinnedPages returns the IDs of the frames pinned at one instant (leak and
// pin-bound assertions): a pin is taken only under its shard's mutex, and it
// holds them all while it reads.
func (p *Pool) PinnedPages() []storage.PageID {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	var out []storage.PageID
	for i := range p.shards {
		for id, f := range p.shards[i].frames {
			if f.pins.Load() > 0 {
				out = append(out, id)
			}
		}
	}
	for i := range p.shards {
		p.shards[i].mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

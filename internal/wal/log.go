package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/storage"
	"ariesim/internal/trace"
)

// ErrLogCrashed reports a commit whose record died with a crashed log epoch
// (Force returned false): it never reached stable storage and never will.
// Callers must not acknowledge anything that depended on it.
var ErrLogCrashed = errors.New("wal: log crashed during force")

// Log is the write-ahead log manager. Records live in a single virtual
// byte address space; a record's LSN is one plus its byte offset, so LSNs
// are monotonically increasing and directly comparable with page_LSNs. The
// log keeps each record as its encoded bytes at that offset (reserve.go);
// every *Record it hands out is a freshly decoded, read-only copy whose
// Payload may alias the stored bytes.
//
// The log models the volatile log buffer + stable log file split that
// ARIES depends on: Append places a record in the buffer, Force hardens
// every record up to an LSN, and Crash discards the unforced tail. The
// WAL protocol proper (force before writing a dirty page; force at commit)
// is enforced by the buffer pool and transaction manager, which call Force
// with the relevant LSNs.
//
// The append path is a lock-free reservation pipeline (see reserve.go):
// Append claims its byte range and ring ticket with one atomic fetch-add,
// publishes the record, and advances the contiguity watermark. Only the flush
// pipeline (group commit), the crash fence, and the marks (stable/master) are
// mutex-guarded — and every consumer of "the log's contents" (snapshots,
// archive, shipping, redo) reads the watermarked prefix, which is hole-free
// by construction.
type Log struct {
	// Reservation pipeline (lock-free append path; see reserve.go).
	resv   atomic.Uint64            // packed claim word: records mod 2^16 <<48 | bytes (cap 2^48)
	chunks atomic.Pointer[[]*chunk] // byte arena: record LSN n at offset n-1, grown by CAS
	ring   [ringSize]atomic.Uint64  // publish ring: entry t mod ringSize holds ticket t's LSN
	filled atomic.Uint64            // contiguity watermark, packed like resv: the published prefix

	// crashMu fences appends against crash truncation: appenders hold the
	// shared side (non-serializing among themselves) across claim+publish;
	// Crash, TruncateTo, and Clone hold it exclusively, so they only ever
	// observe a log with no reservation mid-fill — truncation happens at
	// the watermark, never mid-hole. Lock order: crashMu > mu.
	crashMu sync.RWMutex

	mu     sync.Mutex
	stable LSN // highest LSN whose record (entirely) is on stable storage
	master LSN // "master record": LSN of the last end-checkpoint, forced separately

	// Costed log device + group commit. forceDelay simulates the latency of
	// one physical flush (zero: instantaneous, the historical model).
	// While a flush is in flight (flushing == true, only possible with a
	// nonzero delay) the device is busy; concurrent Force callers park on
	// flushCond. A flush hardens up to flushWant — the max LSN requested by
	// every caller that arrived before the flush started — so parked callers
	// usually wake already satisfied (group commit).
	forceDelay time.Duration
	flushing   bool
	flushWant  LSN
	flushGen   atomic.Uint64 // bumped by crash (under mu) so in-flight flushes and watermark waits die with their epoch
	flushCond  *sync.Cond

	// notifyFn is the stable-notify doorbell (SetStableNotify), read under
	// mu by the force that advanced stable and rung after mu is released.
	notifyFn func()

	// publishGate, when non-nil, is called by reserveFill between the claim
	// and the publish with the claimed ticket. Test-only: it lets a
	// schedule-pinned test hold one reservation open inside the
	// claim→publish window while other appenders publish past it. Installed
	// before any appender starts (never mutated concurrently).
	publishGate func(ticket uint64)

	// damage records byte-level corruption planted in the stored image of
	// individual records (torn log writes, media rot). It is consulted by
	// the CRC sweep that every crash performs: the surviving log is the
	// prefix up to the first record that no longer decodes.
	damage map[LSN][]damageSpot

	stats *trace.Stats
}

// damageSpot is one corrupted byte in a record's stored image.
type damageSpot struct {
	off int // byte offset within the encoded record
	xor byte
}

// NewLog creates an empty log reporting into stats (a fresh sink if nil).
func NewLog(stats *trace.Stats) *Log {
	l := &Log{stats: trace.OrNew(stats), damage: make(map[LSN][]damageSpot)}
	l.chunks.Store(&[]*chunk{})
	l.flushCond = sync.NewCond(&l.mu)
	return l
}

// SetForceDelay configures the simulated latency of one physical log
// flush. Zero (the default) keeps forces instantaneous, so existing tests
// and single-threaded callers see no change.
func (l *Log) SetForceDelay(d time.Duration) {
	l.mu.Lock()
	l.forceDelay = d
	l.mu.Unlock()
}

// SetStableNotify installs (or, with nil, removes) the stable-notify
// doorbell: a Force, ForceAll or Receive whose force advanced the stable
// LSN rings it once the log mutex is released. This is the hook continuous
// log shipping rides on: the shipper wakes and ships whatever the stable
// mark now covers, which it reads itself (ShipFrom), so the doorbell
// carries no LSN and rings need not be ordered. A crash does not ring
// (stable only rewinds there), and a Clone does not inherit the doorbell:
// the successor log belongs to a new epoch the old shipper must never
// observe.
func (l *Log) SetStableNotify(fn func()) {
	l.mu.Lock()
	l.notifyFn = fn
	l.mu.Unlock()
}

// forceAndRing runs forceLocked under l.mu and then rings the doorbell if
// the stable mark moved past where it stood on entry.
func (l *Log) forceAndRing(lsn LSN) bool {
	l.mu.Lock()
	before := l.stable
	ok := l.forceLocked(lsn)
	ring := l.notifyFn
	if l.stable <= before {
		ring = nil
	}
	l.mu.Unlock()
	if ring != nil {
		ring()
	}
	return ok
}

// Append assigns the next LSN to r (setting r.LSN) and adds its encoding to
// the log buffer. The record is volatile until a Force covers it. Append
// returns the LSN. The log keeps r's bytes, not r: the caller may reuse r.
//
// This is the lock-free reservation path: one atomic fetch-add claims the
// byte range and ring ticket, and concurrent appenders never serialize (the
// ariesim-lint append-path check keeps exclusive mutexes off it).
func (l *Log) Append(r *Record) LSN {
	l.crashMu.RLock()
	r.LSN = l.reserveFill(r, nil, r.EncodedSize())
	l.crashMu.RUnlock()
	return r.LSN
}

// awaitFilled blocks until the contiguity watermark covers lsn — i.e. every
// reservation below lsn has been published — so that a force can never
// harden a prefix with a hole in it. Returns false if a crash fenced the
// wait (the target epoch is gone), true otherwise; if lsn lies beyond the
// claimed frontier there is nothing to wait for and the wait ends when the
// outstanding reservations drain. Lock-free: the stall spins on the
// watermark, counting one WatermarkStalls per stalled wait.
func (l *Log) awaitFilled(lsn LSN) bool {
	if l.filledEnd() >= uint64(lsn) {
		return true
	}
	gen := l.flushGen.Load()
	stalled := false
	for l.filledEnd() < uint64(lsn) {
		_, claimed := unpackResv(l.resv.Load())
		if l.filledEnd() >= claimed {
			// Every claimed reservation is published and the watermark is
			// still below lsn: the target is beyond the frontier (a force
			// of a not-yet-appended LSN). Nothing left to wait for.
			return true
		}
		if l.flushGen.Load() != gen {
			return false
		}
		if !stalled {
			stalled = true
			l.stats.WatermarkStalls.Add(1)
		}
		runtime.Gosched()
	}
	return true
}

// Force hardens the log up to and including lsn (a no-op if already
// stable). This is the synchronous log I/O that commit and the steal
// policy pay for. Concurrent callers group-commit: while one flush is in
// flight, later arrivals register the LSN they need and park; the next
// flush hardens up to the maximum registered LSN, so one device write
// satisfies every parked caller at once. Force first waits for the
// contiguity watermark to cover lsn, so the hardened prefix can never
// contain an unpublished reservation.
//
// Force reports whether lsn is stable on return; false means a crash
// fenced the wait and the records it covered are gone with their epoch.
// Callers that do not commit on the result may ignore it.
func (l *Log) Force(lsn LSN) bool {
	if !l.awaitFilled(lsn) {
		return false
	}
	return l.forceAndRing(lsn)
}

// ForceAll hardens the entire log. The claimed frontier is snapshotted at
// entry and the force waits for the watermark to reach it, so every record
// whose append began before the call is covered — there is no window for a
// concurrent append to slip a record between the snapshot and the flush
// start, and no hole below the flushed mark.
func (l *Log) ForceAll() {
	_, claimed := unpackResv(l.resv.Load())
	if claimed == 0 {
		return
	}
	gen := l.flushGen.Load()
	stalled := false
	for l.filledEnd() < claimed {
		if l.flushGen.Load() != gen {
			return
		}
		if !stalled {
			stalled = true
			l.stats.WatermarkStalls.Add(1)
		}
		runtime.Gosched()
	}
	l.forceAndRing(l.filledLSN())
}

// forceLocked hardens the log up to lsn. Caller holds l.mu and has already
// awaited the contiguity watermark; the lock is released only while a
// simulated flush is sleeping. The stable-LSN advance and the LogForces
// bump happen under the same critical section, keeping the counters
// consistent with the log state at every instant. Returns false if a crash
// fenced the force (the records it covered are gone with the epoch).
func (l *Log) forceLocked(lsn LSN) bool {
	entryGen := l.flushGen.Load()
	if lsn > l.flushWant {
		l.flushWant = lsn
	}
	waited, flushed := false, false
	for lsn > l.stable {
		if l.flushGen.Load() != entryGen {
			// The log was crashed while this force was parked or flushing:
			// the records it covered are gone with the epoch. Unwind; the
			// caller is a zombie and its commit must be refused.
			return false
		}
		if l.flushing {
			// Device busy: park until the in-flight flush completes.
			if !waited {
				waited = true
				l.stats.ForceWaiters.Add(1)
			}
			l.flushCond.Wait()
			continue
		}
		want := l.flushWant
		if l.forceDelay <= 0 {
			// Instantaneous device: no in-flight window to coalesce into.
			l.stable = want
			l.stats.LogForces.Add(1)
			flushed = true
			continue
		}
		l.flushing = true
		gen := l.flushGen.Load()
		delay := l.forceDelay
		l.mu.Unlock()
		storage.SpinWait(delay)
		l.mu.Lock()
		l.flushing = false
		if gen == l.flushGen.Load() { // a crash during the flush discards it
			if want > l.stable {
				l.stable = want
				l.stats.LogForces.Add(1)
				flushed = true
			}
		}
		l.flushCond.Broadcast()
	}
	if waited && !flushed {
		// Hardened entirely by someone else's flush: a group commit.
		l.stats.GroupCommits.Add(1)
	}
	return true
}

// StableLSN returns the highest forced LSN.
func (l *Log) StableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stable
}

// NextLSN returns the LSN the next appended record will receive: one past
// the claimed bytes.
func (l *Log) NextLSN() LSN {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	_, off := unpackResv(l.resv.Load())
	return LSN(off + 1)
}

// MaxLSN returns the LSN of the most recently appended record under the
// contiguity watermark (NilLSN if the log is empty).
func (l *Log) MaxLSN() LSN {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return l.filledLSN()
}

// Bytes returns the total bytes appended (volatile + stable), up to the
// contiguity watermark.
func (l *Log) Bytes() uint64 {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return l.filledEnd()
}

// NumRecords returns the number of appended records under the contiguity
// watermark.
func (l *Log) NumRecords() int {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return int(l.view().n)
}

// SetMaster durably stores the checkpoint anchor (the "master record" kept
// at a well-known disk location in real systems). Callers must have forced
// the checkpoint records first.
func (l *Log) SetMaster(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.stable {
		panic("wal: master record set before checkpoint was forced")
	}
	l.master = lsn
}

// Master returns the checkpoint anchor LSN (NilLSN if none).
func (l *Log) Master() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.master
}

// Read returns a freshly decoded copy of the record at lsn.
//
// Appends publish out of order: a record can sit published while an earlier
// reservation (another appender) is still inside its claim→publish window,
// which parks the contiguity watermark below it. A reader chasing an undo
// chain lands in exactly that window — the transaction's own just-appended
// record is published but not yet covered — so a watermark-capped search
// must not conclude "no such record" while the LSN lies below the claimed
// frontier. Read waits out the transient hole (mirroring awaitFilled): once
// the watermark covers the LSN it returns the record that starts there, and
// it reports absence at once for an LSN beyond every claim, and for one the
// watermark covers that no record starts at.
// The wait cannot deadlock or outlive the epoch: Read holds crashMu shared,
// so no crash truncates mid-wait, and every unpublished reservation it can
// wait on is owned by an appender that already holds crashMu shared too —
// the publish it waits for can never park behind a pending exclusive locker.
func (l *Log) Read(lsn LSN) (*Record, error) {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	for lsn != NilLSN {
		v := l.view()
		if off := uint64(lsn) - 1; off < v.end {
			if !v.isStart(off) {
				break
			}
			r := &Record{}
			decodeStored(r, v.stored(off), lsn)
			return r, nil
		}
		if _, claimed := unpackResv(l.resv.Load()); uint64(lsn) > claimed {
			break // beyond every claimed byte
		}
		runtime.Gosched()
	}
	return nil, fmt.Errorf("wal: no record at LSN %d", lsn)
}

// Scan invokes fn on every record with LSN >= from, in order, until fn
// returns false. It decodes one record at a time, each a fresh read-only
// copy like Read's, so stopping early decodes nothing past the stop. The
// records are those under the watermark at the call; fn may use the log.
func (l *Log) Scan(from LSN, fn func(*Record) bool) {
	v := l.snapshot()
	for off, _ := v.locate(uint64(max(from, 1)) - 1); off < v.end; {
		b := v.stored(off)
		r := &Record{}
		decodeStored(r, b, LSN(off+1))
		if !fn(r) {
			return
		}
		off += uint64(len(b))
	}
}

// SnapshotFrom returns every record with LSN >= from, in order, up to the
// contiguity watermark, decoded into one backing array — so ONE log scan can
// be fanned out across many consumers (restart redo workers) cheaply. The
// records are the caller's copies but read-only: their payloads may alias
// the log's stored bytes.
func (l *Log) SnapshotFrom(from LSN) []*Record {
	v := l.snapshot()
	return v.from(from)
}

// SnapshotStable returns every record with from <= LSN <= stable, decoded
// like SnapshotFrom, together with the stable and master LSNs — the same
// stable-prefix cut the archive and the log shipper copy as bytes. The
// stable mark can only cover watermarked records
// (Force awaits the watermark before advancing it), so the snapshot is
// hole-free by construction; concurrent appends and forces racing the call
// can only land strictly after the returned prefix.
func (l *Log) SnapshotStable(from LSN) (recs []*Record, stable, master LSN) {
	v, stable, master := l.stableView()
	return v.from(from), stable, master
}

// from decodes every record of v with LSN >= from.
func (v *view) from(from LSN) []*Record {
	off, ord := v.locate(uint64(max(from, 1)) - 1)
	return v.records(off, v.n-ord)
}

// stableView returns a view cut at the stable mark, with the stable and
// master LSNs captured in the same instant.
func (l *Log) stableView() (v view, stable, master LSN) {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	l.mu.Lock()
	stable, master = l.stable, l.master
	l.mu.Unlock()
	v = l.view()
	v.end, v.n = v.locate(uint64(stable))
	return v, stable, master
}

// Crash simulates loss of volatile state: every record after the stable
// LSN disappears, exactly as an unforced log buffer would. The master
// record survives only because SetMaster requires a prior force.
//
// Every crash also performs the CRC sweep a restart would run over the
// stable log: if any surviving record was corrupted (CorruptStored, or a
// torn tail from CrashWithTornTail), the log is truncated at the first
// record that fails its CRC — everything from there on is lost.
func (l *Log) Crash() {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashLocked(0, false)
}

// CrashWithTornTail crashes the log but lets up to extra unforced records
// reach stable storage — a real log device writes sequentially, so records
// past the last explicit force may survive a power cut — with the last
// survivor torn mid-record. The crash sweep detects the torn record by its
// CRC and truncates there, so the surviving log is the forced prefix plus
// extra-1 intact unforced records.
func (l *Log) CrashWithTornTail(extra int) {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashLocked(extra, true)
}

// TruncateTo is a failure-injection hook for crash-point testing: it
// rewinds BOTH the stable mark and the log contents to lsn, simulating a
// crash in a run whose last force reached exactly lsn. The rewind and the
// crash happen in ONE critical section — a concurrent append or force can
// never observe the rewound stable mark with the old contents (the window
// the old two-step implementation left open). It must only be used when no
// page with a higher page_LSN has reached the disk (the WAL protocol would
// forbid that state); tests assert this themselves.
func (l *Log) TruncateTo(lsn LSN) {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stable = lsn
	if l.master > lsn {
		l.master = NilLSN
	}
	l.crashLocked(0, false)
}

// crashLocked is the crash body. Caller holds crashMu exclusively and l.mu:
// no appender is between claim and publish, so the watermark can be dragged
// to the claimed frontier — the crash-truncation rule "truncate at the
// watermark, never mid-hole" holds by construction. Unfilled reservations
// cannot exist here; the survivors are the records up to the stable mark,
// found through the block index, records above them are discarded by cutting
// the arena at the new frontier (copy-on-write: a zombie's decoded records
// keep their bytes), and the reservation word is rewound so the address
// space continues from the survivor.
func (l *Log) crashLocked(extra int, tear bool) {
	l.advanceFilled()
	v := l.view()
	keep, _ := v.locate(uint64(l.stable))
	torn := uint64(0)
	for ; extra > 0 && keep < v.end; extra-- {
		torn = keep + 1
		keep += uint64(v.size(keep))
	}
	if tear && torn != 0 {
		// Tear the last survivor: its trailing half never hit the platter.
		l.damage[LSN(torn)] = append(l.damage[LSN(torn)], damageSpot{off: v.size(torn-1) / 2, xor: 0xA5})
	}
	end, n := v.locate(l.sweepDamaged(&v, keep))
	l.stable = l.install(&v, end, n)
	if l.master > l.stable {
		l.master = NilLSN
	}
	// Fence any in-flight or parked force and any watermark wait: their
	// epoch is gone. Parked waiters wake, observe the generation change,
	// and unwind.
	l.flushGen.Add(1)
	l.flushWant = l.stable
	if l.flushCond != nil {
		l.flushCond.Broadcast()
	}
}

// sweepDamaged re-reads every damaged record of v below offset keep the way
// a restart reads the stable log — stored bytes, with planted corruption
// applied — and returns the offset of the first record that fails to decode
// (keep if none does). It visits only the damaged LSNs.
func (l *Log) sweepDamaged(v *view, keep uint64) uint64 {
	cut := keep
	for lsn, spots := range l.damage {
		off := uint64(lsn) - 1
		if off >= cut || !v.isStart(off) {
			continue
		}
		b := append([]byte(nil), v.stored(off)...)
		for _, s := range spots {
			if s.off >= 0 && s.off < len(b) {
				b[s.off] ^= s.xor
			}
		}
		if _, _, err := DecodeRecord(b); err != nil {
			cut = off
		}
	}
	if cut == keep {
		return keep
	}
	for lsn := range l.damage {
		if off := uint64(lsn) - 1; off >= cut && off < keep && v.isStart(off) {
			delete(l.damage, lsn)
		}
	}
	l.stats.TornTailTruncations.Add(1)
	return cut
}

// CorruptStored plants byte-level corruption (XOR of mask at byte off) in
// the stored image of the record at lsn. The corruption takes effect at
// the next crash, when the CRC sweep re-reads the stable log: the log is
// truncated at the first record that no longer decodes.
func (l *Log) CorruptStored(lsn LSN, off int, mask byte) error {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	v := l.view()
	if lsn == NilLSN || !v.isStart(uint64(lsn)-1) {
		return fmt.Errorf("wal: no record at LSN %d", lsn)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.damage[lsn] = append(l.damage[lsn], damageSpot{off: off, xor: mask})
	return nil
}

// Clone copies the log's state into a new Log reporting into stats. Every
// arena chunk wholly below the frontier is shared (nothing there is ever
// rewritten); the frontier's own chunk, the marks, and planted damage are
// copied — O(chunks), not O(records). Clone holds the crash fence
// exclusively, so no reservation is mid-fill and the copy is hole-free. Used to fork an engine for crash-point sweeps without
// disturbing the original.
func (l *Log) Clone(stats *trace.Stats) *Log {
	l.crashMu.Lock()
	defer l.crashMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceFilled()
	out := NewLog(stats)
	v := l.view()
	out.install(&v, v.end, v.n)
	out.stable = l.stable
	out.master = l.master
	out.forceDelay = l.forceDelay
	for lsn, spots := range l.damage {
		out.damage[lsn] = append([]damageSpot(nil), spots...)
	}
	return out
}

// CodecRoundTrip checks every record under the watermark end to end: its
// stored bytes decode with their CRC intact, re-encoding the decoded record
// reproduces them byte for byte, every index block the next record starts
// in or beyond notes it as its first, and the records number what the
// watermark counts. Used by tests and the crash tool.
func (l *Log) CodecRoundTrip() error {
	v := l.snapshot()
	var i uint64
	for off := uint64(0); off < v.end; i++ {
		lsn, b := LSN(off+1), v.stored(off)
		got, n, err := DecodeRecord(b)
		if err != nil {
			return fmt.Errorf("LSN %d: %w", lsn, err)
		}
		got.LSN = lsn
		if enc := got.Encode(); n != len(b) || !bytes.Equal(enc, b) {
			return fmt.Errorf("LSN %d: stored %d bytes, decoded %d, re-encoded %d differ: %s", lsn, len(b), n, len(enc), got)
		}
		next := off + uint64(n)
		for k := off>>blockShift + 1; k <= next>>blockShift && k<<blockShift>>chunkShift < uint64(len(v.chunks)); k++ {
			if first, ord := v.entry(k).load(); first != next || ord != i+1 {
				return fmt.Errorf("block %d notes record %d at offset %d, want record %d at %d", k, ord, first, i+1, next)
			}
		}
		off = next
	}
	if i != v.n {
		return fmt.Errorf("%d records under the watermark, counted %d", i, v.n)
	}
	return nil
}

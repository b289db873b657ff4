package wal

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
)

// Lock-free LSN reservation pipeline over an LSN-addressed byte arena.
//
// Appenders claim their byte range and slot index with ONE atomic fetch-add
// on a packed reservation word, encode the record into the arena at its
// byte offset, publish its LSN into a slot directory, and fold their
// completion into the contiguity watermark ("filled-up-to"). Force, group
// commit, snapshots, and the stable-notify hook are all defined against the
// watermark — never against a mutex-guarded record list — so the hot append
// path takes no lock at all in the group-commit configuration.
//
// Layout of the reservation word (Log.resv):
//
//	bits 63..40  records claimed so far (= the next record's slot index)
//	bits 39..0   bytes claimed so far   (= the next record's LSN - 1)
//
// Packing both fields into one word is what makes the claim atomic: a single
// Add hands the caller a unique slot index AND the matching byte range, so
// slot order and LSN order can never disagree. The fields bound the log at
// ~16.7M records and 1 TiB of bytes; the claim panics well before either
// field can carry into the other.
//
// The log keeps records as their bytes: the record with LSN n is stored at
// byte offset n-1 of an append-only arena of fixed-size chunks (a record may
// span chunks), and slot i of the directory holds the LSN of the i-th record
// (NilLSN while unpublished). Publish order: the appender writes the bytes,
// then stores the slot; readers load the slot (or the watermark) first.
//
// Copy-on-write rule: bytes and slots below a log's frontier are never
// rewritten. A Clone or a crash rewind shares every chunk and slot segment
// wholly below the frontier and copies only the ones the frontier falls in,
// so a view of the published prefix (and a payload aliasing it) stays valid
// after the log has moved on — through further appends, crashes and clones.
//
// The watermark (Log.filled) is the count of contiguously published slots.
// Every record with slot index < filled is visible; a record may be published
// at index >= filled while an earlier reservation is still filling — that is
// the transient hole no consumer is allowed to see. The crash rule follows:
// a crash truncates to the stable prefix, and stable can only ever cover
// watermarked records (Force waits for the watermark before registering),
// so the surviving log is hole-free by construction.
const (
	segShift = 9
	segSize  = 1 << segShift
	segMask  = segSize - 1

	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	resvIdxShift = 40
	resvOffMask  = (uint64(1) << resvIdxShift) - 1

	maxResvRecords = (uint64(1) << (64 - resvIdxShift)) - 1
	maxResvBytes   = resvOffMask
)

// logSeg is one fixed-size block of the slot directory. Segments are only
// ever appended to the directory, and a slot is written exactly once per
// segment object, so readers can chase dir -> segment -> slot with three
// atomic loads.
type logSeg struct {
	slots [segSize]atomic.Uint64
}

// chunk is one fixed-size block of the byte arena.
type chunk [chunkSize]byte

func packResv(count uint64, off LSN) uint64 {
	return count<<resvIdxShift | uint64(off)
}

func unpackResv(w uint64) (count uint64, off LSN) {
	return w >> resvIdxShift, LSN(w & resvOffMask)
}

// grow returns the block at index i of the directory held by p, appending
// fresh blocks up to i if the directory is shorter. Growth copies only the
// slice of block pointers and installs it with a CAS; the blocks themselves
// are shared, so anything published through an older directory view stays
// reachable through every newer one.
func grow[T any](p *atomic.Pointer[[]*T], i uint64) *T {
	for {
		dp := p.Load()
		var d []*T
		if dp != nil {
			d = *dp
		}
		if i < uint64(len(d)) {
			return d[i]
		}
		nd := make([]*T, i+1)
		copy(nd, d)
		for j := len(d); j < len(nd); j++ {
			nd[j] = new(T)
		}
		if p.CompareAndSwap(dp, &nd) {
			return nd[i]
		}
	}
}

// slotAt returns the LSN published at slot i, or NilLSN if the slot is
// unpublished (a hole, the frontier, or beyond the directory).
func (l *Log) slotAt(i uint64) LSN {
	dp := l.dir.Load()
	if dp == nil {
		return NilLSN
	}
	d := *dp
	seg := i >> segShift
	if seg >= uint64(len(d)) {
		return NilLSN
	}
	return LSN(d[seg].slots[i&segMask].Load())
}

// fill stores r's encoding, enc bytes, at arena offset off. A record that
// fits its chunk is encoded in place; one that spans chunks is encoded once
// and copied across them.
func (l *Log) fill(r *Record, off uint64, enc int) {
	c := grow(&l.chunks, off>>chunkShift)
	lo := off & chunkMask
	if lo+uint64(enc) <= chunkSize {
		r.encodeTo(c[lo : lo+uint64(enc)])
		return
	}
	b := r.Encode()
	n := copy(c[lo:], b)
	for off += uint64(n); n < len(b); off += chunkSize {
		n += copy(grow(&l.chunks, off>>chunkShift)[:], b[n:])
	}
}

// advanceFilled folds published slots into the contiguity watermark: it
// walks the frontier forward while the next slot is published. The classic
// CAS-scan is stall-free: if this appender's CAS loses, the winner (or a
// later publisher) has already re-driven the scan past the same slot, and
// the loop re-reads from the current frontier, so the watermark can lag a
// published slot only while some goroutine is still inside this loop.
// Callers hold crashMu (shared or exclusive), so the frontier cannot be
// concurrently truncated out from under the scan.
func (l *Log) advanceFilled() {
	for {
		f := l.filled.Load()
		if l.slotAt(f) == NilLSN {
			return
		}
		l.filled.CompareAndSwap(f, f+1)
	}
}

// filledLSN returns the LSN of the last record under the contiguity
// watermark (NilLSN if none). Lock-free; callers racing a crash truncation
// may observe a value from just before the crash, which is the same answer
// a mutex acquired just before the crash would have produced.
func (l *Log) filledLSN() LSN {
	for {
		f := l.filled.Load()
		if f == 0 {
			return NilLSN
		}
		if lsn := l.slotAt(f - 1); lsn != NilLSN {
			return lsn
		}
		// Raced a crash truncation between the two loads; re-read.
	}
}

// reserveFill is the lock-free append: claim the byte range and slot with
// one fetch-add, encode the record into its bytes, publish its LSN, advance
// the watermark. Caller holds crashMu.RLock (shared — appenders never
// serialize on it) so a crash cannot truncate between the claim and the
// publish, which is exactly the window that would otherwise leave a
// permanent hole. The stats counters are bumped between claim and publish so
// an observer can never see the record list advanced while
// LogRecords/LogBytes lag.
func (l *Log) reserveFill(r *Record, enc int) LSN {
	w := l.resv.Add(uint64(1)<<resvIdxShift | uint64(enc))
	count, end := unpackResv(w)
	if count >= maxResvRecords || uint64(end) >= maxResvBytes-uint64(enc) {
		panic("wal: log reservation address space exhausted")
	}
	r.LSN = end - LSN(enc) + 1
	if l.stats != nil {
		l.stats.AppendReservations.Add(1)
		l.stats.LogRecords.Add(1)
		l.stats.LogBytes.Add(uint64(enc))
	}
	if l.publishGate != nil {
		l.publishGate(count - 1)
	}
	l.fill(r, uint64(r.LSN)-1, enc)
	grow(&l.dir, (count-1)>>segShift).slots[(count-1)&segMask].Store(uint64(r.LSN))
	l.advanceFilled()
	return r.LSN
}

// view is a snapshot of the published prefix: slots [0, n) and the arena
// chunks holding their bytes. The copy-on-write rule makes it immutable, so
// it stays readable after the crash fence is released.
type view struct {
	segs   []*logSeg
	chunks []*chunk
	n      uint64
}

// view snapshots the watermarked prefix. The watermark is loaded before the
// directories, so every chunk and segment a slot below it needs is in them.
// Caller holds crashMu (either side).
func (l *Log) view() view {
	v := view{n: l.filled.Load()}
	if dp := l.dir.Load(); dp != nil {
		v.segs = *dp
	}
	if cp := l.chunks.Load(); cp != nil {
		v.chunks = *cp
	}
	return v
}

// snapshot is view under the shared crash fence.
func (l *Log) snapshot() view {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return l.view()
}

// lsn returns the LSN of slot i < v.n.
func (v *view) lsn(i uint64) LSN {
	return LSN(v.segs[i>>segShift].slots[i&segMask].Load())
}

// search returns the first slot whose LSN is >= from (v.n if none).
func (v *view) search(from LSN) uint64 {
	return uint64(sort.Search(int(v.n), func(i int) bool { return v.lsn(uint64(i)) >= from }))
}

// copyOut copies len(dst) arena bytes starting at offset off into dst.
func (v *view) copyOut(dst []byte, off uint64) {
	for n := 0; n < len(dst); {
		k := copy(dst[n:], v.chunks[off>>chunkShift][off&chunkMask:])
		n += k
		off += uint64(k)
	}
}

// size returns the stored length of the record at lsn.
func (v *view) size(lsn LSN) int {
	var h [4]byte
	v.copyOut(h[:], uint64(lsn)-1)
	return int(binary.LittleEndian.Uint32(h[:]))
}

// stored returns the stored image of the record at lsn: a capped slice of
// its chunk when the record lies in one, otherwise a copy. Read-only.
func (v *view) stored(lsn LSN) []byte {
	off := uint64(lsn) - 1
	lo, size := off&chunkMask, uint64(v.size(lsn))
	if lo+size <= chunkSize {
		c := v.chunks[off>>chunkShift]
		return c[lo : lo+size : lo+size]
	}
	b := make([]byte, size)
	v.copyOut(b, off)
	return b
}

// end returns the arena offset just past the record in slot i-1 (0 if i is
// 0): the byte length of the first i records.
func (v *view) end(i uint64) uint64 {
	if i == 0 {
		return 0
	}
	lsn := v.lsn(i - 1)
	return uint64(lsn) - 1 + uint64(v.size(lsn))
}

// span returns the stored bytes of slots [lo, hi) as slices of the arena
// chunks, in order (empty, not nil, for an empty range).
func (v *view) span(lo, hi uint64) [][]byte {
	out := [][]byte{}
	off, end := v.end(lo), v.end(hi)
	for off < end {
		c := v.chunks[off>>chunkShift]
		n := min(end-off, chunkSize-off&chunkMask)
		out = append(out, c[off&chunkMask:off&chunkMask+n:off&chunkMask+n])
		off += n
	}
	return out
}

// records decodes slots [lo, hi) into one backing array.
func (v *view) records(lo, hi uint64) []*Record {
	backing := make([]Record, hi-lo)
	out := make([]*Record, hi-lo)
	for i := range backing {
		lsn := v.lsn(lo + uint64(i))
		decodeStored(&backing[i], v.stored(lsn), lsn)
		out[i] = &backing[i]
	}
	return out
}

// cut returns the directories of a log whose frontier is slot n at arena
// offset off: every segment and chunk wholly below the frontier is shared,
// the one the frontier falls in is copied up to it, and nothing above it is
// kept. Nothing a reader of v can see is ever written again.
func (v *view) cut(n, off uint64) (*[]*logSeg, *[]*chunk) {
	segs := append([]*logSeg(nil), v.segs[:n>>segShift]...)
	if n&segMask != 0 {
		s, old := new(logSeg), v.segs[n>>segShift]
		for i := uint64(0); i < n&segMask; i++ {
			s.slots[i].Store(old.slots[i].Load())
		}
		segs = append(segs, s)
	}
	chunks := append([]*chunk(nil), v.chunks[:off>>chunkShift]...)
	if off&chunkMask != 0 {
		c := new(chunk)
		copy(c[:off&chunkMask], v.chunks[off>>chunkShift][:])
		chunks = append(chunks, c)
	}
	return &segs, &chunks
}

package wal

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
)

// Lock-free LSN reservation pipeline over an LSN-addressed byte arena.
//
// Appenders claim their byte range with ONE atomic fetch-add on a packed
// reservation word, encode the record into the arena at its byte offset,
// publish its LSN through a small ring, and fold their completion into the
// contiguity watermark ("filled-up-to"). Force, group commit, snapshots, and
// the stable-notify hook are all defined against the watermark, so the hot
// append path takes no lock at all. The reservation word (Log.resv) and the
// watermark (Log.filled) are packed alike:
//
//	bits 63..48  records modulo 2^16 (a record's ticket: it names a ring entry)
//	bits 47..0   bytes               (= the next record's LSN - 1; cap 2^48)
//
// The log is its bytes: the record with LSN n is stored at byte offset n-1 of
// an append-only arena of fixed-size chunks (a record may span chunks) behind
// its 4-byte length, and nothing per record is kept beside them. The appender
// writes its bytes, then stores its LSN into ring[ticket mod ringSize];
// advanceFilled steps the watermark over the record at its byte end, by the
// record's stored length, once that record's entry holds exactly its LSN. An
// appender ringSize-1 or more tickets ahead of the watermark waits before it
// publishes (awaitRing); the earliest unpublished one never waits, so the
// wait cannot deadlock. A record published beyond the watermark while an
// earlier one is still filling is the transient hole no consumer may see.
//
// The index is one entry per 1 KiB block: the offset of the first record that
// starts at or after the block's base, and its ordinal, noted as the
// watermark crosses into the block. A reader finds a record by walking length
// prefixes from its block's first record, and the exact count under the
// watermark is that ordinal plus the watermark's count modulo 2^16.
//
// Copy-on-write rule: bytes and entries below a log's frontier are never
// rewritten. A Clone or a crash rewind shares every chunk wholly below the
// frontier and copies only the one the frontier falls in, so a view of the
// published prefix (and a payload aliasing it) stays valid after the log has
// moved on.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1

	blockShift = 10
	blockMask  = 1<<blockShift - 1

	countShift = 48
	offMask    = uint64(1)<<countShift - 1

	// ringSize divides 2^16, so a wrapping count names entries consistently.
	ringSize = 64
	ringMask = ringSize - 1
)

// chunk is one fixed-size piece of the byte arena and the index entries of
// its blocks.
type chunk struct {
	b   *[chunkSize]byte
	idx [chunkSize >> blockShift]entry
}

// entry notes the offset of the first record that starts at or after its
// block's base, and that record's ordinal (both zero for block 0).
type entry struct {
	first, ord atomic.Uint64
}

func (e *entry) load() (first, ord uint64) { return e.first.Load(), e.ord.Load() }
func (e *entry) store(first, ord uint64)   { e.first.Store(first); e.ord.Store(ord) }

func packResv(count, off uint64) uint64       { return count<<countShift | off }
func unpackResv(w uint64) (count, off uint64) { return w >> countShift, w & offMask }

// ordinal returns the record number at least base, and less than 2^16 above
// it, whose low 16 bits are count's.
func ordinal(base, count uint64) uint64 { return base + uint64(uint16(count-base)) }

// chunkAt returns chunk k, appending fresh chunks up to k if the arena is
// shorter. Growth copies only the slice of chunk pointers and installs it
// with a CAS; the chunks themselves are shared, so anything published through
// an older slice stays reachable through every newer one.
func (l *Log) chunkAt(k uint64) *chunk {
	for {
		cp := l.chunks.Load()
		cs := *cp
		if k < uint64(len(cs)) {
			return cs[k]
		}
		ncs := make([]*chunk, k+1)
		copy(ncs, cs)
		for j := len(cs); j < len(ncs); j++ {
			ncs[j] = &chunk{b: new([chunkSize]byte)}
		}
		if l.chunks.CompareAndSwap(cp, &ncs) {
			return ncs[k]
		}
	}
}

// fill stores a record's stored image, enc bytes, at arena offset off: b, a
// received record's bytes, or r's encoding when b is nil. A record r that
// fits its chunk is encoded in place; any other image is copied across the
// chunks it spans.
func (l *Log) fill(r *Record, b []byte, off uint64, enc int) {
	c := l.chunkAt(off >> chunkShift)
	lo := off & chunkMask
	if b == nil {
		if lo+uint64(enc) <= chunkSize {
			r.encodeTo(c.b[lo : lo+uint64(enc)])
			return
		}
		b = r.Encode()
	}
	n := copy(c.b[lo:], b)
	for off += uint64(n); n < len(b); off += chunkSize {
		n += copy(l.chunkAt(off >> chunkShift).b[:], b[n:])
	}
}

// advanceFilled folds published records into the contiguity watermark: it
// steps the watermark over the record at its byte end while that record's
// ring entry holds its LSN, noting the index entry of every block the step
// crosses into before the CAS that makes it visible. The classic CAS-scan is
// stall-free: if this appender's CAS loses, the winner (or a later
// publisher) has already re-driven the scan past the same record, so the
// watermark can lag a published record only while some goroutine is still
// inside this loop. Callers hold crashMu (shared or exclusive), so the
// frontier cannot be concurrently truncated out from under the scan.
func (l *Log) advanceFilled() {
	for {
		w := l.filled.Load()
		count, end := unpackResv(w)
		if l.ring[count&ringMask].Load() != end+1 {
			return
		}
		v := view{chunks: *l.chunks.Load()}
		next := end + uint64(v.size(end))
		if k := end >> blockShift; next>>blockShift > k {
			ord := ordinal(v.entry(k).ord.Load(), count) + 1
			for k++; k <= next>>blockShift; k++ {
				l.chunkAt(k << blockShift >> chunkShift).idx[k&(chunkMask>>blockShift)].store(next, ord)
			}
		}
		l.filled.CompareAndSwap(w, packResv(count+1, next))
	}
}

// filledEnd returns the arena offset the watermark covers up to.
func (l *Log) filledEnd() uint64 { return l.filled.Load() & offMask }

// filledLSN returns the LSN of the last record under the contiguity
// watermark (NilLSN if none): its ring entry, which no appender overwrites
// while the watermark stands there (awaitRing). Lock-free; callers racing a
// crash truncation may observe a value from just before the crash, which is
// the same answer a mutex acquired just before the crash would have produced.
func (l *Log) filledLSN() LSN {
	for {
		w := l.filled.Load()
		count, end := unpackResv(w)
		if end == 0 {
			return NilLSN
		}
		if lsn := l.ring[(count-1)&ringMask].Load(); lsn != 0 && l.filled.Load() == w {
			return LSN(lsn)
		}
		// Raced a crash truncation between the loads; re-read.
	}
}

// awaitRing is the publish ring's back-pressure: it holds the appender with
// ticket t until the watermark is fewer than ringSize-1 tickets behind it, so
// its entry's previous occupant has been folded and the last watermarked
// record's entry stays intact (filledLSN). The waiter folds published records
// itself, so the earliest unpublished appender never waits here.
func (l *Log) awaitRing(t uint64) {
	for stalled := false; ; stalled = true {
		if f, _ := unpackResv(l.filled.Load()); uint16(t-f) < ringSize-1 {
			return
		}
		if !stalled {
			l.stats.WatermarkStalls.Add(1)
		}
		l.advanceFilled()
		runtime.Gosched()
	}
}

// reserveFill is the lock-free append: claim the byte range and ticket with
// one fetch-add, store the record's image (fill's r or b) in its bytes,
// publish its LSN, advance the watermark, and return the LSN. Caller holds
// crashMu.RLock (shared — appenders never serialize on it) so a crash cannot
// truncate between the claim and the publish, which would leave a permanent
// hole. The stats counters are bumped before the publish, so they never lag
// the watermark.
func (l *Log) reserveFill(r *Record, b []byte, enc int) LSN {
	count, end := unpackResv(l.resv.Add(uint64(1)<<countShift | uint64(enc)))
	if end < uint64(enc) {
		panic("wal: log byte address space (2^48) exhausted")
	}
	t := (count - 1) & 0xFFFF
	off := end - uint64(enc)
	l.stats.AppendReservations.Add(1)
	l.stats.LogRecords.Add(1)
	l.stats.LogBytes.Add(uint64(enc))
	if l.publishGate != nil {
		l.publishGate(t)
	}
	l.fill(r, b, off, enc)
	l.awaitRing(t)
	l.ring[t&ringMask].Store(off + 1)
	l.advanceFilled()
	return LSN(off + 1)
}

// view is a snapshot of the published prefix: its n records, its end bytes
// and the arena chunks holding them. The copy-on-write rule makes it
// immutable, so it stays readable after the crash fence is released.
type view struct {
	chunks []*chunk
	end, n uint64
}

// view snapshots the watermarked prefix. The watermark is loaded before the
// chunks, so every chunk and index entry below it is in them. Caller holds
// crashMu (either side).
func (l *Log) view() view {
	count, end := unpackResv(l.filled.Load())
	v := view{chunks: *l.chunks.Load(), end: end}
	if end > 0 {
		v.n = ordinal(v.entry((end-1)>>blockShift).ord.Load(), count)
	}
	return v
}

// entry returns the index entry of block k.
func (v *view) entry(k uint64) *entry {
	return &v.chunks[k<<blockShift>>chunkShift].idx[k&(chunkMask>>blockShift)]
}

// snapshot is view under the shared crash fence.
func (l *Log) snapshot() view {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return l.view()
}

// locate returns the offset of the first record starting at or after off,
// and its ordinal: (end, n) if none starts below end.
func (v *view) locate(off uint64) (start, ord uint64) {
	if off >= v.end {
		return v.end, v.n
	}
	start, ord = v.entry(off >> blockShift).load()
	for c := v.chunks[off>>chunkShift].b; start < off; ord++ {
		if lo := start - off&^chunkMask; lo <= chunkSize-4 {
			start += uint64(binary.LittleEndian.Uint32(c[lo:])) // size, inlined
		} else {
			start += uint64(v.size(start))
		}
	}
	return start, ord
}

// isStart reports whether a record below end starts at off.
func (v *view) isStart(off uint64) bool {
	start, _ := v.locate(off)
	return off < v.end && start == off
}

// last returns the LSN of the last record starting below off (NilLSN if off
// is 0). Off must be a record boundary at or below end.
func (v *view) last(off uint64) LSN {
	if off == 0 {
		return NilLSN
	}
	k := (off - 1) >> blockShift
	for v.entry(k).first.Load() >= off {
		k-- // the record before off starts in an earlier block
	}
	start := v.entry(k).first.Load()
	for next := start + uint64(v.size(start)); next < off; next += uint64(v.size(next)) {
		start = next
	}
	return LSN(start + 1)
}

// copyOut copies len(dst) arena bytes starting at offset off into dst.
func (v *view) copyOut(dst []byte, off uint64) {
	for n := 0; n < len(dst); {
		k := copy(dst[n:], v.chunks[off>>chunkShift].b[off&chunkMask:])
		n += k
		off += uint64(k)
	}
}

// size returns the stored length of the record at offset off.
func (v *view) size(off uint64) int {
	if lo := off & chunkMask; lo <= chunkSize-4 {
		return int(binary.LittleEndian.Uint32(v.chunks[off>>chunkShift].b[lo:]))
	}
	var h [4]byte
	v.copyOut(h[:], off)
	return int(binary.LittleEndian.Uint32(h[:]))
}

// stored returns the stored image of the record at offset off: a capped
// slice of its chunk when the record lies in one, otherwise a copy.
// Read-only.
func (v *view) stored(off uint64) []byte {
	lo, size := off&chunkMask, uint64(v.size(off))
	if lo+size <= chunkSize {
		return v.chunks[off>>chunkShift].b[lo : lo+size : lo+size]
	}
	b := make([]byte, size)
	v.copyOut(b, off)
	return b
}

// records decodes the n records starting at offset off into one backing
// array.
func (v *view) records(off, n uint64) []*Record {
	backing := make([]Record, n)
	out := make([]*Record, n)
	for i := range backing {
		b := v.stored(off)
		decodeStored(&backing[i], b, LSN(off+1))
		out[i] = &backing[i]
		off += uint64(len(b))
	}
	return out
}

// install makes l the log whose frontier is record n at offset end of v, and
// returns the LSN of the record before it. Every chunk wholly below the
// frontier is shared, the one it falls in is copied up to it (noting the
// frontier as the first record of a block it starts), and nothing above it is
// kept, so nothing a reader of v can see is ever written again. The
// ring is cleared of every entry but the last record's, and the claim word and
// the watermark restart at the frontier. Caller holds crashMu exclusively.
func (l *Log) install(v *view, end, n uint64) LSN {
	k := end >> chunkShift
	cs := append([]*chunk(nil), v.chunks[:k]...)
	c, lo := &chunk{b: new([chunkSize]byte)}, end&chunkMask
	if lo != 0 {
		copy(c.b[:], v.chunks[k].b[:lo])
		for j := 0; j<<blockShift < int(lo); j++ {
			c.idx[j].store(v.chunks[k].idx[j].load())
		}
	}
	if end&blockMask == 0 {
		c.idx[lo>>blockShift].store(end, n)
	}
	cs = append(cs, c)
	l.chunks.Store(&cs)
	last := v.last(end)
	for i := range l.ring {
		l.ring[i].Store(0)
	}
	l.ring[(n-1)&ringMask].Store(uint64(last))
	l.filled.Store(packResv(n, end))
	l.resv.Store(packResv(n, end))
	return last
}

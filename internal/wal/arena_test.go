package wal

import (
	"bytes"
	"runtime"
	"testing"
)

// Tests of the byte arena the log keeps its records in (reserve.go): what it
// costs in memory and allocations, records that span chunks, and the
// copy-on-write rule that keeps decoded records valid after the log moves on.

// hotUpdateTxn returns fresh records of one hot-update transaction: one
// in-place update with a 16-byte payload, its commit and its end record.
func hotUpdateTxn() []*Record {
	return []*Record{
		{Type: RecUpdate, TxID: 7, Page: 42, Op: OpDataUpdate, Payload: make([]byte, 16)},
		{Type: RecCommit, TxID: 7, PrevLSN: 1},
		{Type: RecEnd, TxID: 7, PrevLSN: 2},
	}
}

// raceEnabled is set under the race detector (race_test.go). The two
// counting tests below skip there: they run one goroutine, so the detector
// has nothing to find, and its instrumentation makes them the slowest tests
// of the package's -count=20 race loop.
var raceEnabled bool

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLogRetainsEncodedBytes: after GC, the heap a log grows by per appended
// record is its encoded size, within 1 %, plus the record's share of the
// index: per 64 KiB chunk, its 1,032-byte header (64 block entries, in a
// 1,152-byte size class) and an 8-byte pointer. The records
// are fresh objects, as the engine's are, so a log that kept them (or their
// payloads) would be caught. The growth is measured between two sizes of
// the same log, so fixed heap (the log itself, whatever earlier tests left
// live) cancels out.
func TestLogRetainsEncodedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine count; skipped under the race detector")
	}
	const txns = 100_000
	enc := 0
	for _, r := range hotUpdateTxn() {
		enc += r.EncodedSize()
	}
	l := NewLog(nil)
	appendTxns := func() {
		for i := 0; i < txns; i++ {
			for _, r := range hotUpdateTxn() {
				l.Append(r)
			}
		}
	}
	appendTxns()
	before := liveHeap()
	appendTxns()
	grown := float64(liveHeap()) - float64(before)
	runtime.KeepAlive(l)
	n := float64(3 * txns)
	perRecord := grown / n
	index := (1152 + 8) * float64(enc) / 3 / chunkSize
	limit := float64(enc)/3*1.01 + index
	t.Logf("%.2f B retained per record (encoded %.2f B, index %.4f B; limit %.2f)", perRecord, float64(enc)/3, index, limit)
	if perRecord > limit {
		t.Fatalf("log retains %.2f B per record, want <= %.2f", perRecord, limit)
	}
}

// TestAppendAllocatesNothing: appending allocates only when an arena chunk
// fills, well under one allocation per hundred records.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine count; skipped under the race detector")
	}
	const perRun = 300
	l := NewLog(nil)
	recs := hotUpdateTxn()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < perRun; i++ {
			l.Append(recs[i%3])
		}
	})
	if per := allocs / perRun; per >= 0.01 {
		t.Fatalf("%.4f allocations per append, want < 0.01", per)
	}
}

// sameRecord fails unless got and want agree on every field but LSN, and
// got.LSN is lsn.
func sameRecord(t *testing.T, what string, got, want *Record, lsn LSN) {
	t.Helper()
	if got.LSN != lsn || got.Type != want.Type || got.TxID != want.TxID || got.PrevLSN != want.PrevLSN ||
		got.Page != want.Page || got.Op != want.Op || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("%s: got %v, want %v at LSN %d", what, got, want, lsn)
	}
}

// TestRecordsSpanningChunks: a record whose length field straddles a chunk
// boundary, one whose payload does, and one longer than two chunks read back
// intact through every reader, an archive and a segment.
func TestRecordsSpanningChunks(t *testing.T) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	first := &Record{Type: RecUpdate, TxID: 1, Page: 3, Op: OpIdxFormat}
	first.Payload = fill(chunkSize-2-first.EncodedSize(), 1) // ends 2 bytes short of the chunk
	want := []*Record{
		first,
		{Type: RecUpdate, TxID: 1, Page: 4, Op: OpDataInsert, Payload: fill(50, 2)}, // header straddles
		{Type: RecEndCkpt, Payload: fill(2*chunkSize+7, 3)},                         // spans three chunks
		{Type: RecCommit, TxID: 1},
	}
	l := NewLog(nil)
	var lsns []LSN
	for _, r := range want {
		c := *r
		lsns = append(lsns, l.Append(&c))
	}
	if lsns[1] != chunkSize-1 {
		t.Fatalf("second record at LSN %d, want %d (straddling the first chunk boundary)", lsns[1], chunkSize-1)
	}
	l.ForceAll()
	check := func(what string, got []*Record) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
		}
		for i := range want {
			sameRecord(t, what, got[i], want[i], lsns[i])
		}
	}
	for i, lsn := range lsns {
		r, err := l.Read(lsn)
		if err != nil {
			t.Fatal(err)
		}
		sameRecord(t, "Read", r, want[i], lsn)
	}
	check("SnapshotFrom", l.SnapshotFrom(1))
	stable, _, _ := l.SnapshotStable(1)
	check("SnapshotStable", stable)
	var scanned []*Record
	l.Scan(1, func(r *Record) bool { scanned = append(scanned, r); return true })
	check("Scan", scanned)
	if err := l.CodecRoundTrip(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if n, err := l.Archive(&buf); err != nil || n != len(want) {
		t.Fatalf("Archive = %d, %v", n, err)
	}
	archived := append([]byte(nil), buf.Bytes()...)
	restored, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadArchive", restored.SnapshotFrom(1))
	if err := restored.CodecRoundTrip(); err != nil {
		t.Fatal(err)
	}

	// The archive is the segment from LSN 1, so a suffix's body is the
	// archive's bytes from that record on.
	seg := l.ShipFrom(lsns[1])
	if !bytes.Equal(seg.Body, archived[segHeaderSize+lsns[1]-1:]) {
		t.Fatal("segment body differs from the log's stored bytes")
	}
	_, recs, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	check("DecodeSegment", append([]*Record{l.SnapshotFrom(1)[0]}, recs...))
}

// TestCloneThenAppendToBoth: a clone taken mid-chunk, and mid-way through the
// publish ring, shares the prefix with its original, and appends to either
// side never show in the other.
func TestCloneThenAppendToBoth(t *testing.T) {
	const many = 512
	l := NewLog(nil)
	for i := 0; i < many+10; i++ {
		l.Append(&Record{Type: RecUpdate, TxID: 1, Op: OpDataInsert, Page: 9, Payload: []byte{byte(i)}})
	}
	l.ForceAll()
	c := l.Clone(nil)
	prefix := l.NumRecords()
	for i := 0; i < 3*many; i++ {
		l.Append(&Record{Type: RecUpdate, TxID: 2, Payload: []byte("original")})
		c.Append(&Record{Type: RecUpdate, TxID: 3, Payload: []byte("the clone")})
	}
	for _, side := range []struct {
		log  *Log
		tx   TxID
		body string
	}{{l, 2, "original"}, {c, 3, "the clone"}} {
		recs := side.log.SnapshotFrom(1)
		if len(recs) != prefix+3*many {
			t.Fatalf("%s: %d records, want %d", side.body, len(recs), prefix+3*many)
		}
		for i, r := range recs {
			if i < prefix && (r.TxID != 1 || r.Payload[0] != byte(i)) {
				t.Fatalf("%s: shared record %d is %v", side.body, i, r)
			}
			if i >= prefix && (r.TxID != side.tx || string(r.Payload) != side.body) {
				t.Fatalf("%s: record %d is %v (%q)", side.body, i, r, r.Payload)
			}
		}
		if err := side.log.CodecRoundTrip(); err != nil {
			t.Fatalf("%s: %v", side.body, err)
		}
	}
}

// TestDecodedPayloadSurvivesCrashRewind: a record decoded before a crash —
// its payload aliasing the stored bytes — keeps its bytes after the crash
// discards it and the successor log appends different records at the same
// LSNs.
func TestDecodedPayloadSurvivesCrashRewind(t *testing.T) {
	l := NewLog(nil)
	l.Force(l.Append(&Record{Type: RecCommit, TxID: 1}))
	lsn := l.Append(&Record{Type: RecUpdate, TxID: 2, Payload: []byte("zombie payload")})
	zombie, err := l.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	scanned := l.SnapshotFrom(lsn)
	l.Crash()
	if got := l.Append(&Record{Type: RecUpdate, TxID: 3, Payload: []byte("successor bytes")}); got != lsn {
		t.Fatalf("successor appended at LSN %d, want %d", got, lsn)
	}
	l.Append(&Record{Type: RecUpdate, TxID: 3, Payload: []byte("more successor bytes")})
	for _, r := range []*Record{zombie, scanned[0]} {
		if r.TxID != 2 || string(r.Payload) != "zombie payload" {
			t.Fatalf("zombie's record changed under it: %v %q", r, r.Payload)
		}
	}
	r, err := l.Read(lsn)
	if err != nil || r.TxID != 3 || string(r.Payload) != "successor bytes" {
		t.Fatalf("successor's record at LSN %d: %v %v", lsn, r, err)
	}
}

// BenchmarkAppend prices one append of hot-update's record mix (update,
// commit, end): ns and allocations per record.
func BenchmarkAppend(b *testing.B) {
	recs := hotUpdateTxn()
	l := NewLog(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<20) == 0 {
			l = NewLog(nil) // keep the heap small
		}
		l.Append(recs[i%3])
	}
}

// BenchmarkScanFrom prices decoding a 400k-record suffix of hot-update's
// record mix, per record: Scan one fresh record at a time, SnapshotFrom into
// one backing array (what restart does).
func BenchmarkScanFrom(b *testing.B) {
	const suffix = 400_000
	l := NewLog(nil)
	recs := hotUpdateTxn()
	for i := 0; i < 1000; i++ {
		l.Append(recs[i%3])
	}
	from := l.NextLSN()
	for i := 0; i < suffix; i++ {
		l.Append(recs[i%3])
	}
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			l.Scan(from, func(*Record) bool { n++; return true })
			if n != suffix {
				b.Fatalf("scanned %d records, want %d", n, suffix)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suffix), "ns/record")
	})
	b.Run("SnapshotFrom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n := len(l.SnapshotFrom(from)); n != suffix {
				b.Fatalf("decoded %d records, want %d", n, suffix)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suffix), "ns/record")
	})
}

// BenchmarkRead prices Read of a record start in a log of hot-update's record
// mix, the undo path's fetch: ns per record read, the LSNs visited in order.
func BenchmarkRead(b *testing.B) {
	l := NewLog(nil)
	recs := hotUpdateTxn()
	lsns := make([]LSN, 100_000)
	for i := range lsns {
		lsns[i] = l.Append(recs[i%3])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Read(lsns[i%len(lsns)]); err != nil {
			b.Fatal(err)
		}
	}
}

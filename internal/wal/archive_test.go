package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ariesim/internal/storage"
)

func TestArchiveRoundTrip(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 100; i++ {
		prev = l.Append(upd(TxID(i%4+1), prev, storage.PageID(i%9), "archived payload"))
	}
	ckpt := l.Append(&Record{Type: RecEndCkpt, Payload: (&CheckpointData{}).Encode()})
	l.Force(ckpt)
	l.SetMaster(ckpt)
	// One unforced record: must NOT be archived.
	l.Append(upd(1, prev, 3, "volatile tail"))

	var buf bytes.Buffer
	n, err := l.Archive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 101 {
		t.Fatalf("archived %d records, want 101", n)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 101 {
		t.Fatalf("restored %d records", got.NumRecords())
	}
	if got.Master() != l.Master() {
		t.Fatalf("master %d, want %d", got.Master(), l.Master())
	}
	// Record-for-record equality, including LSNs (same address space).
	want := l.SnapshotFrom(1)[:101]
	have := got.SnapshotFrom(1)
	for i := range want {
		if want[i].String() != have[i].String() {
			t.Fatalf("record %d differs:\n  %s\n  %s", i, want[i], have[i])
		}
	}
	// The restored log accepts new appends at the right position.
	next := got.Append(upd(9, 0, 1, "post-restore"))
	if next <= want[len(want)-1].LSN {
		t.Fatalf("post-restore LSN %d not beyond archive end", next)
	}
}

func TestReadArchiveRejectsGarbage(t *testing.T) {
	if _, err := ReadArchive(bytes.NewReader([]byte("not an archive at all......"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadArchive(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// A truncated record body is a torn archive tail: recoverable. The
	// intact prefix comes back as a usable log, flagged ErrArchiveTorn so
	// callers who need the whole stream (a shipper) know the tail is gone.
	l := NewLog(nil)
	first := l.Append(upd(1, 0, 1, "intact"))
	last := l.Append(upd(2, 0, 1, "torn"))
	l.Force(last)
	var buf bytes.Buffer
	if _, err := l.Archive(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	got, err := ReadArchive(bytes.NewReader(trunc))
	if !errors.Is(err, ErrArchiveTorn) {
		t.Fatalf("torn archive tail: err = %v, want ErrArchiveTorn", err)
	}
	if got == nil {
		t.Fatal("torn archive tail must return the intact prefix")
	}
	if got.NumRecords() != 1 || got.MaxLSN() != first {
		t.Fatalf("want intact prefix of 1 record at LSN %d, got %d records max LSN %d",
			first, got.NumRecords(), got.MaxLSN())
	}
	if got.StableLSN() != first {
		t.Fatalf("stable mark not clamped to surviving tail: %d", got.StableLSN())
	}
}

func TestReadArchiveMidStreamCorruption(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 10; i++ {
		prev = l.Append(upd(1, prev, storage.PageID(i), "mid-stream corruption target"))
	}
	l.Force(prev)
	var buf bytes.Buffer
	if _, err := l.Archive(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte well inside the stream (not the last record):
	// unrecoverable — the whole stream must be rejected, no partial log.
	b := append([]byte(nil), buf.Bytes()...)
	b[len(b)/2] ^= 0x40
	got, err := ReadArchive(bytes.NewReader(b))
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("mid-stream corruption: err = %v, want ErrSegmentCorrupt", err)
	}
	if got != nil {
		t.Fatal("corrupt archive must not yield a partial log")
	}
	// Same flip on the FINAL record is indistinguishable from a torn tail
	// (nothing follows to prove the stream continued) — recoverable.
	b2 := append([]byte(nil), buf.Bytes()...)
	b2[len(b2)-3] ^= 0x40
	got2, err := ReadArchive(bytes.NewReader(b2))
	if !errors.Is(err, ErrArchiveTorn) {
		t.Fatalf("corrupt final record: err = %v, want ErrArchiveTorn", err)
	}
	if got2 == nil || got2.NumRecords() != 9 {
		t.Fatalf("corrupt final record: want 9-record prefix, got %v", got2)
	}
}

// TestArchiveMidBurst archives while a writer keeps appending and forcing.
// The archive must capture a consistent stable prefix — replaying it must
// be byte-identical to the primary's log up to the archived stable mark,
// with the header watermark matching the last archived record. Run with
// -race to check the snapshot path against concurrent appenders.
func TestArchiveMidBurst(t *testing.T) {
	l := NewLog(nil)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var prev LSN
		// Bounded: every archive round is O(log length), so an unbounded
		// writer on a starved box grows the log faster than the rounds finish.
		for i := 0; i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			prev = l.Append(upd(TxID(i%8+1), prev, storage.PageID(i%16), "burst payload for mid-archive snapshot"))
			if i%3 == 0 {
				l.Force(prev)
			}
		}
	}()
	for i := 0; i < 25; i++ {
		var buf bytes.Buffer
		n, err := l.Archive(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadArchive(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("archive %d: %v", i, err)
		}
		if got.NumRecords() != n {
			t.Fatalf("archive %d: wrote %d records, restored %d", i, n, got.NumRecords())
		}
		if n == 0 {
			continue
		}
		// The restored stable mark must equal the last archived record's
		// LSN, and every restored record must be byte-identical to the
		// primary's copy at the same LSN.
		have := got.SnapshotFrom(1)
		if got.StableLSN() != have[len(have)-1].LSN {
			t.Fatalf("archive %d: stable %d != last record LSN %d",
				i, got.StableLSN(), have[len(have)-1].LSN)
		}
		want := l.SnapshotFrom(1)[:n]
		for j := range want {
			if !bytes.Equal(want[j].Encode(), have[j].Encode()) {
				t.Fatalf("archive %d record %d: bytes differ", i, j)
			}
		}
	}
	close(stop)
	<-done
}

// TestSegmentRoundTrip: a segment's body is the arena's stored bytes from
// the first record at or after from — a from inside a record, as the
// shipper's acked+1 retransmit asks, starts at the next one — and the frame
// decodes back to the same header, body and records.
func TestSegmentRoundTrip(t *testing.T) {
	l := NewLog(nil)
	var lsns []LSN
	var prev LSN
	for i := 0; i < 20; i++ {
		prev = l.Append(upd(TxID(i%3+1), prev, storage.PageID(i%5), "segment payload"))
		lsns = append(lsns, prev)
	}
	l.Force(prev)
	l.SetMaster(lsns[5])
	// stored concatenates the stored images of the records from LSN from on.
	stored := func(from LSN) []byte {
		v := l.snapshot()
		var b []byte
		for off := uint64(from) - 1; off < v.end; off += uint64(v.size(off)) {
			b = append(b, v.stored(off)...)
		}
		return b
	}
	for _, c := range []struct {
		name        string
		from, first LSN
	}{
		{"whole log", NilLSN + 1, lsns[0]},
		{"suffix", lsns[10], lsns[10]},
		{"mid-record from", lsns[10] + 1, lsns[11]},
		{"heartbeat", l.StableLSN() + 1, l.NextLSN()},
	} {
		seg := l.ShipFrom(c.from)
		if seg.First != c.first || seg.Stable != l.StableLSN() || seg.Master != lsns[5] {
			t.Fatalf("%s: header %d/%d/%d, want first %d, stable %d, master %d",
				c.name, seg.First, seg.Stable, seg.Master, c.first, l.StableLSN(), lsns[5])
		}
		if !bytes.Equal(seg.Body, stored(c.first)) {
			t.Fatalf("%s: body differs from the log's stored bytes", c.name)
		}
		got, recs, err := DecodeSegment(seg.Encode())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Stable != seg.Stable || got.Master != seg.Master || got.First != seg.First || !bytes.Equal(got.Body, seg.Body) {
			t.Fatalf("%s: decoded %+v, shipped %+v", c.name, got, seg)
		}
		var want []LSN
		for _, lsn := range lsns {
			if lsn >= c.first {
				want = append(want, lsn)
			}
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, want %d", c.name, len(recs), len(want))
		}
		for i, r := range recs {
			if r.LSN != want[i] || !bytes.Equal(r.Encode(), stored(want[i])[:r.EncodedSize()]) {
				t.Fatalf("%s: record %d is %v, want the stored record at LSN %d", c.name, i, r, want[i])
			}
		}
	}
}

// TestReceive joins segments of a sender's log to receivers holding a prefix
// of it: a whole log, a suffix, an overlapping duplicate, a pure duplicate, a
// gapped segment (refused, the receiver unchanged) and a heartbeat. After
// each the receiver holds exactly the sender's bytes over what it holds, all
// stable, and the sender's master once its stable prefix covers it.
func TestReceive(t *testing.T) {
	sender := NewLog(nil)
	var lsns []LSN
	var prev LSN
	for i := 0; i < 30; i++ {
		payload := "received payload"
		if i == 20 { // spans a chunk boundary, so Receive copies across chunks
			payload = string(bytes.Repeat([]byte{byte(i)}, chunkSize+100))
		}
		prev = sender.Append(upd(TxID(i%3+1), prev, storage.PageID(i%5), payload))
		lsns = append(lsns, prev)
	}
	sender.Force(prev)
	sender.SetMaster(lsns[12])
	whole := sender.ShipFrom(NilLSN + 1)
	// holding returns a receiver that holds the sender's first k records and
	// no master.
	holding := func(k int) *Log {
		r := NewLog(nil)
		end := len(whole.Body)
		if k < len(lsns) {
			end = int(lsns[k]) - 1
		}
		if n, err := r.Receive(&Segment{First: 1, Body: whole.Body[:end]}); n != k || err != nil {
			t.Fatalf("prefix of %d records: appended %d, %v", k, n, err)
		}
		return r
	}
	for _, c := range []struct {
		name       string
		have       int      // records the receiver holds before
		seg        *Segment // what it receives
		n, hold    int      // records appended, and held after
		gap        bool
		masterHeld bool // the receiver adopts the sender's master
	}{
		{"whole log", 0, whole, 30, 30, false, true},
		{"suffix", 10, sender.ShipFrom(lsns[10]), 20, 30, false, true},
		{"overlapping duplicate", 10, sender.ShipFrom(lsns[5]), 20, 30, false, true},
		{"pure duplicate", 30, sender.ShipFrom(lsns[3]), 0, 30, false, true},
		{"gap", 5, sender.ShipFrom(lsns[10]), 0, 5, true, false},
		{"heartbeat", 30, sender.ShipFrom(sender.StableLSN() + 1), 0, 30, false, true},
		{"heartbeat beyond a short receiver", 5, sender.ShipFrom(sender.StableLSN() + 1), 0, 5, false, false},
	} {
		r := holding(c.have)
		n, err := r.Receive(c.seg)
		if n != c.n || errors.Is(err, ErrSegmentGap) != c.gap || err != nil && !c.gap {
			t.Fatalf("%s: appended %d, %v; want %d, gap %v", c.name, n, err, c.n, c.gap)
		}
		last, end := NilLSN, 0
		if c.hold > 0 {
			last, end = lsns[c.hold-1], len(whole.Body)
		}
		if c.hold < len(lsns) {
			end = int(lsns[c.hold]) - 1
		}
		master := NilLSN
		if c.masterHeld {
			master = lsns[12]
		}
		if got := r.ShipFrom(NilLSN + 1).Body; !bytes.Equal(got, whole.Body[:end]) {
			t.Fatalf("%s: receiver holds %d bytes that differ from the sender's %d", c.name, len(got), end)
		}
		if r.NumRecords() != c.hold || r.MaxLSN() != last || r.StableLSN() != last || r.Master() != master {
			t.Fatalf("%s: %d records, max %d, stable %d, master %d; want %d, %d, %d, %d",
				c.name, r.NumRecords(), r.MaxLSN(), r.StableLSN(), r.Master(), c.hold, last, last, master)
		}
		if err := r.CodecRoundTrip(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 8; i++ {
		prev = l.Append(upd(1, prev, storage.PageID(i), "corrupt-me"))
	}
	l.Force(prev)
	clean := l.ShipFrom(NilLSN + 1).Encode()
	// Every single-byte flip anywhere in the frame must be caught: one in
	// each header field (magic, stable, master, first, bodyLen, crc), then
	// the body.
	for _, pos := range []int{0, 5, 13, 21, 29, 33, segHeaderSize + 1, len(clean) / 2, len(clean) - 1} {
		b := append([]byte(nil), clean...)
		b[pos] ^= 0x01
		if _, _, err := DecodeSegment(b); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrSegmentCorrupt", pos, err)
		}
	}
	// Truncation too, and a byte past the frame.
	for _, b := range [][]byte{clean[:0], clean[:3], clean[:segHeaderSize-1], clean[:len(clean)-1], append(clean[:len(clean):len(clean)], 0)} {
		if _, _, err := DecodeSegment(b); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("%d-byte frame: err = %v, want ErrSegmentCorrupt", len(b), err)
		}
	}
	if _, _, err := DecodeSegment(clean); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
}

func TestArchiveEmptyLog(t *testing.T) {
	l := NewLog(nil)
	var buf bytes.Buffer
	n, err := l.Archive(&buf)
	if err != nil || n != 0 {
		t.Fatalf("Archive empty: %d, %v", n, err)
	}
	got, err := ReadArchive(&buf)
	if err != nil || got.NumRecords() != 0 {
		t.Fatalf("ReadArchive empty: %d records, %v", got.NumRecords(), err)
	}
}

// sealFrame returns a copy of b, at least a frame header long, with the
// header's body length and CRC made to match the bytes after it.
func sealFrame(b []byte) []byte {
	s := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(s[28:32], uint32(len(s)-segHeaderSize))
	binary.LittleEndian.PutUint32(s[segCRCOff:], frameCRC(s, s[segHeaderSize:]))
	return s
}

// FuzzDecodeSegment: on any bytes, raw or sealed with a matching length and
// CRC, DecodeSegment errors or returns records whose encodings, concatenated,
// are the body, each at First plus its offset; and ReadArchive never panics
// and returns only logs whose records pass CodecRoundTrip.
//
//	go test -run '^$' -fuzz FuzzDecodeSegment -fuzztime 10s ./internal/wal
func FuzzDecodeSegment(f *testing.F) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 4; i++ {
		prev = l.Append(upd(TxID(i+1), prev, storage.PageID(i+2), "fuzz"))
	}
	l.Force(prev)
	clean := l.ShipFrom(NilLSN + 1).Encode()
	f.Add(clean)
	f.Add(l.ShipFrom(l.StableLSN() + 1).Encode()) // a heartbeat
	f.Add(clean[:len(clean)-5])                   // a truncated frame
	f.Fuzz(func(t *testing.T, b []byte) {
		inputs := [][]byte{b}
		if len(b) >= segHeaderSize {
			inputs = append(inputs, sealFrame(b))
		}
		for _, in := range inputs {
			if seg, recs, err := DecodeSegment(in); err == nil {
				var body []byte
				for _, r := range recs {
					if r.LSN != seg.First+LSN(len(body)) {
						t.Fatalf("record %v at body offset %d of a segment from %d", r, len(body), seg.First)
					}
					body = append(body, r.Encode()...)
				}
				if !bytes.Equal(body, seg.Body) {
					t.Fatalf("records re-encode to %x, body is %x", body, seg.Body)
				}
			}
			if got, _ := ReadArchive(bytes.NewReader(in)); got != nil {
				if err := got.CodecRoundTrip(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

package wal

import (
	"bytes"
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
	want := l.Records(1)[:101]
	have := got.Records(1)
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
	if !errors.Is(err, ErrArchiveCorrupt) {
		t.Fatalf("mid-stream corruption: err = %v, want ErrArchiveCorrupt", err)
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
		have := got.Records(1)
		if got.StableLSN() != have[len(have)-1].LSN {
			t.Fatalf("archive %d: stable %d != last record LSN %d",
				i, got.StableLSN(), have[len(have)-1].LSN)
		}
		want := l.Records(1)[:n]
		for j := range want {
			if !bytes.Equal(want[j].Encode(), have[j].Encode()) {
				t.Fatalf("archive %d record %d: bytes differ", i, j)
			}
		}
	}
	close(stop)
	<-done
}

func TestSegmentRoundTrip(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 20; i++ {
		prev = l.Append(upd(TxID(i%3+1), prev, storage.PageID(i%5), "segment payload"))
	}
	l.Force(prev)
	seg := l.ShipFrom(NilLSN+1, 7)
	if last := seg.Records[len(seg.Records)-1].LSN; last != l.StableLSN() {
		t.Fatalf("segment tail %d != stable %d", last, l.StableLSN())
	}
	got, err := DecodeSegment(seg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.Stable != seg.Stable || got.Master != seg.Master {
		t.Fatalf("header mismatch: %+v vs %+v", got, seg)
	}
	if len(got.Records) != len(seg.Records) {
		t.Fatalf("%d records, want %d", len(got.Records), len(seg.Records))
	}
	for i := range seg.Records {
		if got.Records[i].LSN != seg.Records[i].LSN ||
			got.Records[i].String() != seg.Records[i].String() {
			t.Fatalf("record %d differs:\n  %s\n  %s", i, seg.Records[i], got.Records[i])
		}
	}
	// Resumable: ship only the suffix after an already-applied point.
	mid := seg.Records[10].LSN
	suffix := l.ShipFrom(mid, 7)
	if len(suffix.Records) != 10 || suffix.Records[0].LSN != mid {
		t.Fatalf("suffix ships %d records, want 10 from %d", len(suffix.Records), mid)
	}
	if got, err := DecodeSegment(suffix.Encode()); err != nil || got.Records[0].LSN != mid {
		t.Fatalf("suffix decodes: %v", err)
	}
	// Empty segment (heartbeat) round-trips too.
	hb := l.ShipFrom(l.StableLSN()+1, 7)
	if len(hb.Records) != 0 {
		t.Fatalf("heartbeat: %d records", len(hb.Records))
	}
	if _, err := DecodeSegment(hb.Encode()); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 8; i++ {
		prev = l.Append(upd(1, prev, storage.PageID(i), "corrupt-me"))
	}
	l.Force(prev)
	clean := l.ShipFrom(NilLSN+1, 3).Encode()
	// Every single-byte flip anywhere in the frame must be caught: one in
	// each header field, then the body.
	for _, pos := range []int{0, 5, 13, 21, 29, 37, 41, 45, segHeaderSize + 1, len(clean) / 2, len(clean) - 1} {
		b := append([]byte(nil), clean...)
		b[pos] ^= 0x01
		if _, err := DecodeSegment(b); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrSegmentCorrupt", pos, err)
		}
	}
	// Truncation too.
	for _, cut := range []int{0, 3, segHeaderSize - 1, len(clean) - 1} {
		if _, err := DecodeSegment(clean[:cut]); !errors.Is(err, ErrSegmentCorrupt) {
			t.Fatalf("cut to %d: err = %v, want ErrSegmentCorrupt", cut, err)
		}
	}
	if _, err := DecodeSegment(clean); err != nil {
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

package wal

import (
	"errors"
	"testing"

	"ariesim/internal/trace"
)

func TestRecordCRCDetectsCorruption(t *testing.T) {
	r := upd(3, NilLSN, 9, "payload-under-test")
	b := r.Encode()
	if _, _, err := DecodeRecord(b); err != nil {
		t.Fatalf("clean record does not decode: %v", err)
	}
	// Flip one byte anywhere past the length prefix; the CRC must catch it.
	for _, off := range []int{4, 8, 12, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[off] ^= 0x10
		if _, _, err := DecodeRecord(c); !errors.Is(err, ErrBadRecordCRC) {
			t.Fatalf("corruption at byte %d: got %v, want ErrBadRecordCRC", off, err)
		}
	}
}

// TestCrashWithTornTailTruncates simulates a power cut mid log write: the
// forced prefix plus some unforced records survive, but the last survivor
// is torn. The crash-time CRC sweep must truncate at the torn record.
func TestCrashWithTornTailTruncates(t *testing.T) {
	st := &trace.Stats{}
	l := NewLog(st)
	var lsns []LSN
	var prev LSN
	for i := 0; i < 6; i++ {
		prev = l.Append(upd(1, prev, 5, "rec"))
		lsns = append(lsns, prev)
	}
	l.Force(lsns[2]) // records 0..2 explicitly forced

	l.CrashWithTornTail(2) // records 3 and 4 hit the platter; 4 is torn

	if got := l.NumRecords(); got != 4 {
		t.Fatalf("%d records survive, want 4 (forced 3 + 1 intact unforced)", got)
	}
	if l.StableLSN() != lsns[3] {
		t.Fatalf("stable = %d, want %d", l.StableLSN(), lsns[3])
	}
	if _, err := l.Read(lsns[4]); err == nil {
		t.Fatal("torn record still readable")
	}
	if got := st.TornTailTruncations.Load(); got != 1 {
		t.Fatalf("truncations = %d, want 1", got)
	}

	// The log must accept new appends after the truncation, with LSNs
	// continuing from the surviving prefix.
	next := l.Append(upd(2, NilLSN, 6, "after"))
	if next != lsns[4] {
		t.Fatalf("post-truncation append at LSN %d, want %d (reusing the torn slot)", next, lsns[4])
	}
}

// TestCorruptStoredMidLogTruncatesSuffix plants corruption in the middle
// of the stable log: the crash sweep must truncate at the first bad-CRC
// record, dropping even intact records after it — recovery can only trust
// a prefix, never records beyond a gap.
func TestCorruptStoredMidLogTruncatesSuffix(t *testing.T) {
	l := NewLog(nil)
	var lsns []LSN
	var prev LSN
	for i := 0; i < 5; i++ {
		prev = l.Append(upd(1, prev, 5, "rec"))
		lsns = append(lsns, prev)
	}
	l.ForceAll()
	if err := l.CorruptStored(lsns[2], 10, 0x80); err != nil {
		t.Fatal(err)
	}
	if err := l.CorruptStored(lsns[2]+999, 0, 1); err == nil {
		t.Fatal("CorruptStored accepted a nonexistent LSN")
	}

	// Damage is latent until a crash re-reads the stable log.
	if l.NumRecords() != 5 {
		t.Fatal("damage took effect before the crash")
	}
	l.Crash()
	if got := l.NumRecords(); got != 2 {
		t.Fatalf("%d records survive, want 2 (truncated at first bad CRC)", got)
	}
	if l.StableLSN() != lsns[1] {
		t.Fatalf("stable = %d, want %d", l.StableLSN(), lsns[1])
	}
}

// TestTornTailCannotOutliveMaster verifies that a master record pointing
// past a torn-away checkpoint is discarded with the tail.
func TestTornTailCannotOutliveMaster(t *testing.T) {
	l := NewLog(nil)
	a := l.Append(upd(1, NilLSN, 5, "a"))
	l.Force(a)
	begin := l.Append(&Record{Type: RecBeginCkpt})
	end := l.Append(&Record{Type: RecEndCkpt, PrevLSN: begin})
	l.Force(end)
	l.SetMaster(begin)
	if err := l.CorruptStored(begin, 9, 0xFF); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if l.NumRecords() != 1 {
		t.Fatalf("%d records survive, want 1", l.NumRecords())
	}
	if l.Master() != NilLSN {
		t.Fatalf("master = %d still points into the truncated tail", l.Master())
	}
}

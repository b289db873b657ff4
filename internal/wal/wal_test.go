package wal

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ariesim/internal/storage"
	"ariesim/internal/trace"
)

func upd(tx TxID, prev LSN, page storage.PageID, payload string) *Record {
	return &Record{
		Type: RecUpdate, TxID: tx, PrevLSN: prev,
		Page: page, Op: OpIdxInsertKey, Payload: []byte(payload),
	}
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l := NewLog(nil)
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn := l.Append(upd(1, prev, 5, "x"))
		if lsn <= prev {
			t.Fatalf("LSN %d not greater than %d", lsn, prev)
		}
		prev = lsn
	}
	if l.NumRecords() != 100 {
		t.Fatalf("NumRecords = %d", l.NumRecords())
	}
	// LSN spacing equals encoded size.
	recs := l.SnapshotFrom(1)
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+LSN(recs[i-1].EncodedSize()) {
			t.Fatalf("LSN %d does not follow %d by encoded size %d",
				recs[i].LSN, recs[i-1].LSN, recs[i-1].EncodedSize())
		}
	}
}

func TestReadAndScan(t *testing.T) {
	l := NewLog(nil)
	l1 := l.Append(upd(1, NilLSN, 5, "a"))
	l2 := l.Append(upd(1, l1, 6, "b"))
	l3 := l.Append(upd(2, NilLSN, 7, "c"))
	r, err := l.Read(l2)
	if err != nil || string(r.Payload) != "b" {
		t.Fatalf("Read(l2) = %v, %v", r, err)
	}
	if _, err := l.Read(l2 + 1); err == nil {
		t.Fatal("Read of non-record LSN succeeded")
	}
	var got []LSN
	l.Scan(l2, func(r *Record) bool { got = append(got, r.LSN); return true })
	if len(got) != 2 || got[0] != l2 || got[1] != l3 {
		t.Fatalf("Scan from l2 = %v", got)
	}
	// Early termination.
	n := 0
	l.Scan(NilLSN+1, func(r *Record) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Scan did not stop: %d", n)
	}
}

func TestCrashDropsUnforcedTail(t *testing.T) {
	l := NewLog(nil)
	l1 := l.Append(upd(1, NilLSN, 5, "keep"))
	l.Force(l1)
	l2 := l.Append(upd(1, l1, 5, "lose"))
	_ = l2
	l.Crash()
	if l.NumRecords() != 1 {
		t.Fatalf("records after crash = %d, want 1", l.NumRecords())
	}
	// New appends continue at the same address space position.
	l3 := l.Append(upd(2, NilLSN, 5, "post-crash"))
	if l3 != l2 {
		t.Fatalf("post-crash LSN %d, want reuse of %d", l3, l2)
	}
}

func TestCrashKeepsForcedEverything(t *testing.T) {
	l := NewLog(nil)
	for i := 0; i < 10; i++ {
		l.Append(upd(1, NilLSN, 5, "r"))
	}
	l.ForceAll()
	l.Crash()
	if l.NumRecords() != 10 {
		t.Fatalf("records after crash = %d, want 10", l.NumRecords())
	}
}

func TestMasterRequiresForce(t *testing.T) {
	l := NewLog(nil)
	lsn := l.Append(&Record{Type: RecEndCkpt, Payload: (&CheckpointData{}).Encode()})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetMaster of unforced LSN did not panic")
			}
		}()
		l.SetMaster(lsn)
	}()
	l.Force(lsn)
	l.SetMaster(lsn)
	if l.Master() != lsn {
		t.Fatalf("Master = %d, want %d", l.Master(), lsn)
	}
	l.Crash()
	if l.Master() != lsn {
		t.Fatal("master record lost despite force")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	r := &Record{
		Type: RecCLR, TxID: 77, PrevLSN: 1234, UndoNxtLSN: 999,
		Page: 42, Op: OpIdxDeleteKey, RedoOnly: true, Payload: []byte("payload"),
	}
	got, n, err := DecodeRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if n != r.EncodedSize() {
		t.Fatalf("consumed %d, want %d", n, r.EncodedSize())
	}
	if got.Type != r.Type || got.TxID != r.TxID || got.PrevLSN != r.PrevLSN ||
		got.UndoNxtLSN != r.UndoNxtLSN || got.Page != r.Page || got.Op != r.Op ||
		!got.RedoOnly || string(got.Payload) != "payload" {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordCodecErrors(t *testing.T) {
	if _, _, err := DecodeRecord([]byte{1, 2}); err == nil {
		t.Error("short buffer decoded")
	}
	r := upd(1, NilLSN, 1, "abc")
	enc := r.Encode()
	enc[0] = 255 // absurd length
	if _, _, err := DecodeRecord(enc); err == nil {
		t.Error("overlong record decoded")
	}
}

func TestQuickRecordCodec(t *testing.T) {
	f := func(typ uint8, tx uint32, prev, undo uint64, page uint32, op uint16, redoOnly bool, payload []byte) bool {
		r := &Record{
			Type: RecType(typ%uint8(RecEndCkpt) + 1), TxID: TxID(tx), PrevLSN: LSN(prev),
			UndoNxtLSN: LSN(undo), Page: storage.PageID(page),
			Op: OpCode(op % 16), RedoOnly: redoOnly, Payload: payload,
		}
		got, n, err := DecodeRecord(r.Encode())
		if err != nil || n != r.EncodedSize() {
			return false
		}
		got.LSN = r.LSN
		return got.String() == r.String() && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordPredicates(t *testing.T) {
	u := upd(1, NilLSN, 5, "x")
	if !u.Redoable() || !u.Undoable() || u.IsCLR() {
		t.Error("update predicates wrong")
	}
	redoOnly := &Record{Type: RecUpdate, Page: 5, Op: OpIdxSetBits, RedoOnly: true}
	if redoOnly.Undoable() {
		t.Error("redo-only update claims undoable")
	}
	clr := &Record{Type: RecCLR, Page: 5, Op: OpIdxDeleteKey}
	if !clr.Redoable() || clr.Undoable() || !clr.IsCLR() {
		t.Error("CLR predicates wrong")
	}
	dummy := &Record{Type: RecDummyCLR, UndoNxtLSN: 3}
	if dummy.Redoable() || dummy.Undoable() || !dummy.IsCLR() {
		t.Error("dummy CLR predicates wrong")
	}
	commit := &Record{Type: RecCommit}
	if commit.Redoable() || commit.Undoable() {
		t.Error("commit predicates wrong")
	}
}

func TestCheckpointDataRoundTrip(t *testing.T) {
	// One transaction in every state.
	c := &CheckpointData{
		Txs: []TxTableEntry{
			{TxID: 1, State: TxActive, LastLSN: 100, UndoNxtLSN: 90},
			{TxID: 2, State: TxCommitted, LastLSN: 200, UndoNxtLSN: 200},
			{TxID: 3, State: TxRollingBack, LastLSN: 300, UndoNxtLSN: 120},
		},
		DPT: []DPTEntry{{Page: 5, RecLSN: 50}, {Page: 9, RecLSN: 77}},
	}
	for st := TxActive; st <= TxRollingBack; st++ {
		if !slices.ContainsFunc(c.Txs, func(e TxTableEntry) bool { return e.State == st }) {
			t.Errorf("no checkpoint entry in state %s", st)
		}
	}
	got, err := DecodeCheckpointData(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeCheckpointData([]byte{1}); err == nil {
		t.Error("truncated checkpoint decoded")
	}
	empty, err := DecodeCheckpointData((&CheckpointData{}).Encode())
	if err != nil || len(empty.Txs) != 0 || len(empty.DPT) != 0 {
		t.Fatalf("empty checkpoint round trip: %+v, %v", empty, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := &trace.Stats{}
	l := NewLog(st)
	lsn := l.Append(upd(1, NilLSN, 5, "x"))
	l.Force(lsn)
	l.Force(lsn) // second force is a no-op
	if st.LogRecords.Load() != 1 || st.LogForces.Load() != 1 {
		t.Fatalf("stats: records=%d forces=%d", st.LogRecords.Load(), st.LogForces.Load())
	}
	if st.LogBytes.Load() == 0 || st.LogBytes.Load() != l.Bytes() {
		t.Fatalf("byte accounting mismatch: %d vs %d", st.LogBytes.Load(), l.Bytes())
	}
}

func TestCodecRoundTripSweep(t *testing.T) {
	l := NewLog(nil)
	prev := NilLSN
	for i := 0; i < 50; i++ {
		prev = l.Append(upd(TxID(i%3+1), prev, storage.PageID(i), "payload"))
	}
	l.Append(&Record{Type: RecCommit, TxID: 1, PrevLSN: prev})
	l.ForceAll()
	if err := l.CodecRoundTrip(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendThenForce(t *testing.T) {
	l := NewLog(&trace.Stats{})
	done := make(chan LSN, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var last LSN
			for i := 0; i < 500; i++ {
				last = l.Append(upd(TxID(g+1), last, storage.PageID(i%7), "concurrent"))
				if i%50 == 0 {
					l.Force(last)
				}
			}
			done <- last
		}(g)
	}
	seen := map[LSN]bool{}
	for g := 0; g < 8; g++ {
		lsn := <-done
		if seen[lsn] {
			t.Fatal("duplicate LSN across goroutines")
		}
		seen[lsn] = true
	}
	if l.NumRecords() != 4000 {
		t.Fatalf("NumRecords = %d, want 4000", l.NumRecords())
	}
	// All LSNs unique and ordered.
	recs := l.SnapshotFrom(1)
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatal("LSNs not strictly increasing")
		}
	}
}

package data

import (
	"bytes"
	"testing"

	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// redoPage is a formatted data page holding a live record in slot 0 and a
// ghost in slot 1.
func redoPage(t testing.TB) *storage.Page {
	t.Helper()
	p := storage.NewPage(512)
	p.Format(7, storage.PageTypeData, 0)
	ghost := wrapRecord([]byte("ghost"))
	ghost[0] |= cellGhost
	if err := p.AddCellAt(0, wrapRecord([]byte("live"))); err != nil {
		t.Fatal(err)
	}
	if err := p.AddCellAt(1, ghost); err != nil {
		t.Fatal(err)
	}
	return p
}

// Redo of a slot-only delete or revive, and of a forward insert, checks the
// slot it lands on: a log that does not match the page is an error, never a
// silent change.
func TestDataRedoIsStrict(t *testing.T) {
	slot := func(s uint16) []byte { return slotPayload{Slot: s}.encode() }
	for _, c := range []struct {
		name string
		rec  wal.Record
		ok   bool
	}{
		{"delete of a live record", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataDelete, Payload: slot(0)}, true},
		{"delete of a ghost", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataDelete, Payload: slot(1)}, false},
		{"delete of an empty slot", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataDelete, Payload: slot(5)}, false},
		{"delete carrying a row", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataDelete,
			Payload: insertPayload{Slot: 0, Record: []byte("live")}.encode()}, false},
		{"revive of a ghost", wal.Record{Type: wal.RecCLR, Op: wal.OpDataInsert, Payload: slot(1)}, true},
		{"revive of a live record", wal.Record{Type: wal.RecCLR, Op: wal.OpDataInsert, Payload: slot(0)}, false},
		{"revive of an empty slot", wal.Record{Type: wal.RecCLR, Op: wal.OpDataInsert, Payload: slot(5)}, false},
		{"revive carrying a row", wal.Record{Type: wal.RecCLR, Op: wal.OpDataInsert,
			Payload: insertPayload{Slot: 1, Record: []byte("ghost")}.encode()}, false},
		{"insert into an empty slot", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataInsert,
			Payload: insertPayload{Slot: 5, Record: []byte("new")}.encode()}, true},
		{"insert onto a ghost", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataInsert,
			Payload: insertPayload{Slot: 1, Record: []byte("new")}.encode()}, false},
		{"insert onto a live record", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataInsert,
			Payload: insertPayload{Slot: 0, Record: []byte("new")}.encode()}, false},
	} {
		p := redoPage(t)
		before := bytes.Clone(p.Bytes())
		c.rec.Page = 7
		err := ApplyRedo(p, &c.rec)
		if (err == nil) != c.ok {
			t.Errorf("%s: ApplyRedo = %v", c.name, err)
		}
		if err != nil && !bytes.Equal(p.Bytes(), before) {
			t.Errorf("%s: a refused redo changed the page", c.name)
		}
	}
}

// Redo of any op and payload, forward or as a CLR, onto a data page holding a
// live record and a ghost returns an error or leaves a well-formed page; it
// never panics.
func FuzzDataApplyRedo(f *testing.F) {
	slot := func(s uint16) []byte { return slotPayload{Slot: s}.encode() }
	for _, s := range []struct {
		op      wal.OpCode
		clr     bool
		payload []byte
	}{
		{wal.OpDataFormat, false, formatPayload{Prev: 3, Next: 9}.encode()},
		{wal.OpDataInsert, false, insertPayload{Slot: 2, Record: []byte("row")}.encode()},
		{wal.OpDataInsert, true, slot(1)},
		{wal.OpDataDelete, false, slot(0)},
		{wal.OpDataUpdate, false, diffUpdate(0, []byte("live"), []byte("lived")).encode()},
		{wal.OpDataPurge, false, slot(1)},
		{wal.OpDataChainFix, false, chainFixPayload{Next: true, Old: 0, New: 8}.encode()},
		{wal.OpDataFree, true, nil},
	} {
		f.Add(uint16(s.op), s.clr, s.payload)
	}
	f.Fuzz(func(t *testing.T, op uint16, clr bool, payload []byte) {
		p := redoPage(t)
		rec := &wal.Record{Type: wal.RecUpdate, Page: 7, Op: wal.OpCode(op), Payload: payload}
		if clr {
			rec.Type = wal.RecCLR
		}
		if ApplyRedo(p, rec) != nil {
			return
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("redo of %s left a malformed page: %v", rec, err)
		}
	})
}

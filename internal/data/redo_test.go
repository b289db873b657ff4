package data

import (
	"bytes"
	"testing"

	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// redoPage is a formatted data page holding a live record in slot 0, ghosts
// in slots 1 and 2, and an emptied slot 3.
func redoPage(t testing.TB) *storage.Page {
	t.Helper()
	p := storage.NewPage(512)
	p.Format(7, storage.PageTypeData, 0)
	ghost := func(rec string) []byte {
		c := wrapRecord([]byte(rec))
		c[0] |= cellGhost
		return c
	}
	for slot, cell := range [][]byte{wrapRecord([]byte("live")), ghost("ghost"), ghost("ghost2"), wrapRecord([]byte("gone"))} {
		if err := p.AddCellAt(uint16(slot), cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RemoveCell(3); err != nil {
		t.Fatal(err)
	}
	return p
}

// purgeList is an OpDataPurge payload listing slots as given.
func purgeList(slots ...uint16) []byte {
	var b []byte
	for _, s := range slots {
		b = appendPurgeSlot(b, s)
	}
	return b
}

// Redo of a slot-only delete or revive, of a forward insert and of a purge
// list checks the slots it lands on: a log that does not match the page is an
// error, never a silent change, and a purge list is one no pass writes
// unless it is non-empty and strictly ascending.
func TestDataRedoIsStrict(t *testing.T) {
	slot := func(s uint16) []byte { return slotPayload{Slot: s}.encode() }
	purge := func(b []byte) wal.Record { return wal.Record{Type: wal.RecUpdate, Op: wal.OpDataPurge, Payload: b} }
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
		{"insert into an emptied slot", wal.Record{Type: wal.RecUpdate, Op: wal.OpDataInsert,
			Payload: insertPayload{Slot: 3, Record: []byte("new")}.encode()}, true},
		{"purge of one ghost", purge(purgeList(1)), true},
		{"purge of two ghosts", purge(purgeList(1, 2)), true},
		{"purge of three slots", purge(purgeList(0, 1, 2)), true},
		{"undo of an insert", wal.Record{Type: wal.RecCLR, Op: wal.OpDataPurge, Payload: purgeList(0)}, true},
		{"purge of no slot", purge(nil), false},
		{"purge list of odd length", purge(append(purgeList(1, 2), 0)), false},
		{"purge list out of order", purge(purgeList(2, 1)), false},
		{"purge list repeating a slot", purge(purgeList(1, 1)), false},
		{"purge of an emptied slot", purge(purgeList(1, 3)), false},
		{"purge past the last slot", purge(purgeList(1, 2, 9)), false},
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
		if err == nil && c.rec.Op == wal.OpDataPurge {
			for i := 0; i < len(c.rec.Payload)/2; i++ {
				if _, ok := p.Cell(int(purgeSlot(c.rec.Payload, i))); ok {
					t.Errorf("%s: slot %d survived its purge", c.name, purgeSlot(c.rec.Payload, i))
				}
			}
			if got, want := p.LiveCells(), 3-len(c.rec.Payload)/2; got != want {
				t.Errorf("%s: %d cells left, want %d", c.name, got, want)
			}
		}
	}
}

// Redo of any op and payload, forward or as a CLR, onto a data page holding a
// live record, two ghosts and an emptied slot returns an error or leaves a
// well-formed page; it never panics.
func FuzzDataApplyRedo(f *testing.F) {
	slot := func(s uint16) []byte { return slotPayload{Slot: s}.encode() }
	for _, s := range []struct {
		op      wal.OpCode
		clr     bool
		payload []byte
	}{
		{wal.OpDataFormat, false, formatPayload{Prev: 3, Next: 9}.encode()},
		{wal.OpDataInsert, false, insertPayload{Slot: 3, Record: []byte("row")}.encode()},
		{wal.OpDataInsert, true, slot(1)},
		{wal.OpDataDelete, false, slot(0)},
		{wal.OpDataUpdate, false, diffUpdate(0, []byte("live"), []byte("lived")).encode()},
		{wal.OpDataPurge, false, purgeList(1)},
		{wal.OpDataPurge, false, purgeList(1, 2)},
		{wal.OpDataPurge, false, purgeList(0, 1, 2)},
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

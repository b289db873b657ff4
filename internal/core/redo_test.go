package core

import (
	"bytes"
	"fmt"
	"testing"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Unit tests of ApplyRedo for each opcode and its inverse: apply the
// forward action to a page, apply the inverse, and require the original
// logical state back (header fields and live cells; physical layout may
// differ through garbage and compaction).

func freshLeaf(t *testing.T) *storage.Page {
	t.Helper()
	p := storage.NewPage(512)
	p.Format(7, storage.PageTypeIndex, 0)
	for i, v := range []string{"aa", "cc", "ee"} {
		cell := storage.EncodeLeafCell(storage.Key{Val: []byte(v), RID: storage.RID{Page: storage.PageID(i + 1), Slot: 1}})
		if err := p.InsertCellAt(i, cell); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// logicalState captures everything redo must reproduce: the header fields
// and the ordered live cells. Physical layout (garbage from deletions,
// compaction state) legitimately differs between histories.
func logicalState(t *testing.T, p *storage.Page) string {
	t.Helper()
	out := fmt.Sprintf("id=%d type=%v level=%d flags=%x prev=%d next=%d rm=%d n=%d|",
		p.ID(), p.Type(), p.Level(), p.Flags(), p.Prev(), p.Next(), p.Rightmost(), p.NSlots())
	for i := 0; i < p.NSlots(); i++ {
		c, ok := p.Cell(i)
		out += fmt.Sprintf("%d:%v=%x|", i, ok, c)
	}
	return out
}

func apply(t *testing.T, p *storage.Page, op wal.OpCode, payload []byte) {
	t.Helper()
	if err := ApplyRedo(p, &wal.Record{Op: op, Page: p.ID(), Payload: payload}); err != nil {
		t.Fatalf("redo %s: %v", op, err)
	}
}

func TestRedoInsertDeleteKeyInverse(t *testing.T) {
	p := freshLeaf(t)
	orig := logicalState(t, p)
	cell := storage.EncodeLeafCell(storage.Key{Val: []byte("bb"), RID: storage.RID{Page: 9, Slot: 9}})
	pl := keyOpPayload{Index: 1, Pos: 1, PreFlags: 0, PostFlags: 0, Cell: cell}
	apply(t, p, wal.OpIdxInsertKey, pl.encode())
	if p.NSlots() != 4 {
		t.Fatalf("nslots = %d", p.NSlots())
	}
	apply(t, p, wal.OpIdxDeleteKey, pl.encode())
	if logicalState(t, p) != orig {
		t.Fatal("insert+delete did not round-trip the page bytes")
	}
}

// splitRollbackRoundTrip formats page 700 as left describes and commits it,
// then splits it at from as splitLocked does — the new page 755 formatted
// with the upper cells, the split-left record logged on page 700 — and rolls
// that transaction back. The split-left record must carry no cell (only a
// nonleaf's promoted key), its redo must cut the page, and its undo must
// read the moved cells back from page 755 and give page 700 its header and
// cell bytes back, through an unsplit-left CLR that carries the cells.
func splitRollbackRoundTrip(t *testing.T, left formatPayload, from int) {
	t.Helper()
	const leftID, newID = storage.PageID(700), storage.PageID(755)
	e := newEnv(t, 512, 16)
	ix := e.createIndex(Config{ID: 1})
	logged := func(tx *txn.Tx, pid storage.PageID, op wal.OpCode, payload []byte) {
		t.Helper()
		f, err := ix.fixLatched(pid, latch.X)
		if err != nil {
			t.Fatal(err)
		}
		tx.ApplyUpdate(e.pool, f, ApplyRedo, op, payload, false)
		ix.unfixLatched(f, latch.X)
	}
	page := func(pid storage.PageID, check func(p *storage.Page)) {
		t.Helper()
		f, err := ix.fixLatched(pid, latch.S)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.unfixLatched(f, latch.S)
		check(f.Page)
	}

	setup := e.tm.Begin()
	logged(setup, leftID, wal.OpIdxFormat, left.encode())
	e.commit(setup)
	var orig string
	page(leftID, func(p *storage.Page) { orig = logicalState(t, p) })

	pl := splitLeftPayload{
		Index: 1, From: uint16(from), PreFlags: left.Flags, PostFlags: left.Flags | storage.FlagSMBit,
		OldNext: left.Next, NewNext: newID, OldRightmost: left.Rightmost,
	}
	right := formatPayload{Index: 1, Level: left.Level, Flags: storage.FlagSMBit}
	if left.Level == 0 {
		right.Prev, right.Next, right.Cells = leftID, left.Next, left.Cells[from:]
	} else {
		hk, child, err := storage.DecodeNodeCell(left.Cells[from])
		if err != nil {
			t.Fatal(err)
		}
		pl.NewRightmost, pl.Promoted = child, storage.EncodeLeafCell(hk)
		right.Rightmost, right.Cells = left.Rightmost, left.Cells[from+1:]
	}
	tx := e.tm.Begin()
	logged(tx, newID, wal.OpIdxFormat, right.encode())
	logged(tx, leftID, wal.OpIdxSplitLeft, pl.encode())
	page(leftID, func(p *storage.Page) {
		if p.NSlots() != from || !p.SMBit() {
			t.Fatalf("split-left state: nslots=%d sm=%v", p.NSlots(), p.SMBit())
		}
		if left.Level == 0 && p.Next() != newID || left.Level > 0 && p.Rightmost() != pl.NewRightmost {
			t.Fatalf("split-left pointers: next=%d rightmost=%d", p.Next(), p.Rightmost())
		}
	})
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Op == wal.OpIdxSplitLeft && len(r.Payload) != 26+len(pl.Promoted) {
			t.Fatalf("a %d-byte split-left payload for a %d-byte promoted key: it carries cells", len(r.Payload), len(pl.Promoted))
		}
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	page(leftID, func(p *storage.Page) {
		if got := logicalState(t, p); got != orig {
			t.Fatalf("split + rollback did not round-trip page %d:\n got %s\nwant %s", leftID, got, orig)
		}
	})
	page(newID, func(p *storage.Page) {
		if p.Type() != storage.PageTypeFree {
			t.Fatalf("the new page is %v after the rollback, want free", p.Type())
		}
	})
	clrs := 0
	for _, r := range e.log.SnapshotFrom(1) {
		if r.IsCLR() && r.Op == wal.OpIdxUnsplitLeft {
			clrs++
			u, err := decodeUnsplitLeft(r.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%x", u.Moved) != fmt.Sprintf("%x", left.Cells[from:]) {
				t.Fatalf("unsplit-left CLR moves %x back, want %x", u.Moved, left.Cells[from:])
			}
		}
	}
	if clrs != 1 {
		t.Fatalf("%d unsplit-left CLRs, want 1", clrs)
	}
}

func TestRedoSplitLeftAndUnsplit(t *testing.T) {
	p := freshLeaf(t)
	splitRollbackRoundTrip(t, formatPayload{Index: 1, Next: 99, Cells: pageCells(p)}, 1)
}

func TestRedoSplitLeftNonleafRightmost(t *testing.T) {
	var cells [][]byte
	for i, v := range []string{"gg", "pp", "tt"} {
		cells = append(cells, storage.EncodeNodeCell(storage.Key{Val: []byte(v), RID: storage.RID{Page: 5, Slot: uint16(i)}}, storage.PageID(30+i)))
	}
	splitRollbackRoundTrip(t, formatPayload{Index: 1, Level: 1, Rightmost: 40, Cells: cells}, 1)
}

// A split-left record is strict about the page's level: a leaf's carries no
// promoted key and a nonleaf's must.
func TestRedoSplitLeftChecksPromotedKey(t *testing.T) {
	leaf := freshLeaf(t)
	pl := splitLeftPayload{Index: 1, From: 1, NewNext: 55, Promoted: storage.EncodeLeafCell(storage.Key{Val: []byte("cc")})}
	if err := ApplyRedo(leaf, &wal.Record{Op: wal.OpIdxSplitLeft, Page: leaf.ID(), Payload: pl.encode()}); err == nil {
		t.Fatal("a leaf split-left with a promoted key applied")
	}
	node := storage.NewPage(512)
	node.Format(8, storage.PageTypeIndex, 1)
	pl.Promoted = nil
	if err := ApplyRedo(node, &wal.Record{Op: wal.OpIdxSplitLeft, Page: node.ID(), Payload: pl.encode()}); err == nil {
		t.Fatal("a nonleaf split-left without a promoted key applied")
	}
}

func TestRedoChainFixSelfInverse(t *testing.T) {
	p := freshLeaf(t)
	p.SetPrev(11)
	orig := logicalState(t, p)
	pl := chainFixPayload{Index: 1, NextField: false, Old: 11, New: 22,
		PreFlags: p.Flags(), PostFlags: p.Flags()}
	apply(t, p, wal.OpIdxChainFix, pl.encode())
	if p.Prev() != 22 {
		t.Fatalf("prev = %d", p.Prev())
	}
	inv := chainFixPayload{Index: 1, NextField: false, Old: 22, New: 11,
		PreFlags: pl.PostFlags, PostFlags: pl.PreFlags}
	apply(t, p, wal.OpIdxChainFix, inv.encode())
	if logicalState(t, p) != orig {
		t.Fatal("chain fix round-trip failed")
	}
}

func TestRedoSplitParentAndUnsplit(t *testing.T) {
	p := storage.NewPage(512)
	p.Format(9, storage.PageTypeIndex, 1)
	cell := storage.EncodeNodeCell(storage.Key{Val: []byte("mm")}, 50)
	if err := p.InsertCellAt(0, cell); err != nil {
		t.Fatal(err)
	}
	p.SetRightmost(60)
	orig := logicalState(t, p)

	// Middle post: child 50 split into 50 + 55 with separator "hh".
	sep := storage.EncodeNodeCell(storage.Key{Val: []byte("hh")}, 50)
	pl := splitParentPayload{Index: 1, Pos: 0, AtRightmost: false,
		PreFlags: 0, PostFlags: storage.FlagSMBit, Right: 55, SepCell: sep}
	apply(t, p, wal.OpIdxSplitParent, pl.encode())
	if p.NSlots() != 2 {
		t.Fatalf("nslots = %d", p.NSlots())
	}
	_, child1, _ := storage.DecodeNodeCell(p.MustCell(1))
	if child1 != 55 {
		t.Fatalf("patched child = %d, want 55", child1)
	}
	apply(t, p, wal.OpIdxUnsplitParent, pl.encode())
	if logicalState(t, p) != orig {
		t.Fatal("middle parent post round-trip failed")
	}

	// Rightmost post: rightmost child 60 split into 60 + 70, separator "zz".
	sep2 := storage.EncodeNodeCell(storage.Key{Val: []byte("zz")}, 60)
	pl2 := splitParentPayload{Index: 1, Pos: 1, AtRightmost: true,
		PreFlags: 0, PostFlags: storage.FlagSMBit, Right: 70, SepCell: sep2}
	apply(t, p, wal.OpIdxSplitParent, pl2.encode())
	if p.Rightmost() != 70 || p.NSlots() != 2 {
		t.Fatalf("rightmost post: rm=%d nslots=%d", p.Rightmost(), p.NSlots())
	}
	apply(t, p, wal.OpIdxUnsplitParent, pl2.encode())
	if logicalState(t, p) != orig {
		t.Fatal("rightmost parent post round-trip failed")
	}
}

func TestRedoDeleteChildAndUndelete(t *testing.T) {
	p := storage.NewPage(512)
	p.Format(9, storage.PageTypeIndex, 1)
	for i, v := range []string{"dd", "mm"} {
		if err := p.InsertCellAt(i, storage.EncodeNodeCell(storage.Key{Val: []byte(v)}, storage.PageID(70+i))); err != nil {
			t.Fatal(err)
		}
	}
	p.SetRightmost(80)
	orig := logicalState(t, p)

	// Remove a middle child.
	pl := deleteChildPayload{Index: 1, Pos: 0, WasRightmost: false,
		PreFlags: 0, PostFlags: storage.FlagSMBit,
		OldRightmost: 80, NewRightmost: 80,
		Removed: append([]byte(nil), p.MustCell(0)...)}
	apply(t, p, wal.OpIdxDeleteChild, pl.encode())
	if p.NSlots() != 1 {
		t.Fatalf("nslots = %d", p.NSlots())
	}
	apply(t, p, wal.OpIdxUndeleteChild, pl.encode())
	if logicalState(t, p) != orig {
		t.Fatal("delete-child round-trip failed")
	}

	// Remove the rightmost child: last separator promoted.
	pl2 := deleteChildPayload{Index: 1, Pos: 1, WasRightmost: true,
		PreFlags: 0, PostFlags: storage.FlagSMBit,
		OldRightmost: 80, NewRightmost: 71,
		Removed: append([]byte(nil), p.MustCell(1)...)}
	apply(t, p, wal.OpIdxDeleteChild, pl2.encode())
	if p.Rightmost() != 71 || p.NSlots() != 1 {
		t.Fatalf("rightmost removal: rm=%d nslots=%d", p.Rightmost(), p.NSlots())
	}
	apply(t, p, wal.OpIdxUndeleteChild, pl2.encode())
	if logicalState(t, p) != orig {
		t.Fatal("rightmost delete-child round-trip failed")
	}
}

// A free record names what the page held; its undo is a format CLR with the
// same payload, which gives a root collapse's child its cells back.
func TestRedoFreeUnfreePage(t *testing.T) {
	p := freshLeaf(t)
	p.SetPrev(3)
	p.SetNext(4)
	orig := logicalState(t, p)
	pl := formatPayload{Index: 1, Level: 0, Flags: p.Flags(), Prev: 3, Next: 4, Cells: pageCells(p)}
	apply(t, p, wal.OpIdxFreePage, pl.encode())
	if p.Type() != storage.PageTypeFree || p.NSlots() != 0 {
		t.Fatalf("type = %v, %d cells", p.Type(), p.NSlots())
	}
	apply(t, p, wal.OpIdxFormat, pl.encode())
	if got := logicalState(t, p); got != orig {
		t.Fatalf("free + format did not round-trip:\n got %s\nwant %s", got, orig)
	}
}

// TestRedoPushDownRoundTrip pushes a root leaf down and rolls the push-down
// back. The root-format record carries no cell, its redo leaves the root a
// zero-separator nonleaf over the child, and its undo reads the cells back
// from the child and gives the root its header and cell bytes back. An undo
// whose child is not the push-down's formatted child is refused.
func TestRedoPushDownRoundTrip(t *testing.T) {
	e := newEnv(t, 512, 16)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 5; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)
	page := func(pid storage.PageID) *storage.Page {
		t.Helper()
		f, err := ix.fixLatched(pid, latch.S)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.unfixLatched(f, latch.S)
		return f.Page.Clone()
	}
	before := page(ix.root)
	orig := logicalState(t, before)

	tx := e.tm.Begin()
	f, err := ix.fixLatched(ix.root, latch.X)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ix.pushDown(tx, &smoCtx{}, f)
	if err != nil {
		t.Fatal(err)
	}
	child := cf.ID()
	ix.unfixLatched(cf, latch.X)
	root := page(ix.root)
	if root.Level() != 1 || root.NSlots() != 0 || root.Rightmost() != child || !root.SMBit() {
		t.Fatalf("pushed-down root: level %d, %d cells, rightmost %d (child %d)", root.Level(), root.NSlots(), root.Rightmost(), child)
	}
	if got, want := fmt.Sprintf("%x", pageCells(page(child))), fmt.Sprintf("%x", pageCells(before)); got != want {
		t.Fatalf("the child holds %s, want the root's %s", got, want)
	}
	var fwd *wal.Record
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Op == wal.OpIdxFormatRoot {
			fwd = r
		}
	}
	if fwd == nil || len(fwd.Payload) != 30 {
		t.Fatalf("root-format record %v: want a 30-byte payload with no cell", fwd)
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := logicalState(t, page(ix.root)); got != orig {
		t.Fatalf("push-down + rollback did not round-trip the root:\n got %s\nwant %s", got, orig)
	}
	if p := page(child); p.Type() != storage.PageTypeFree {
		t.Fatalf("the child is %v after the rollback, want free", p.Type())
	}

	// The child is free now: undoing the push-down again must refuse it.
	if err := ix.undoFormatRoot(e.tm.Begin(), fwd); err == nil {
		t.Fatal("undo of a push-down read its cells from a free page")
	}
}

func TestRedoSetBits(t *testing.T) {
	p := freshLeaf(t)
	pl := setBitsPayload{Index: 1, Flags: storage.FlagSMBit | storage.FlagDeleteBit}
	apply(t, p, wal.OpIdxSetBits, pl.encode())
	if !p.SMBit() || !p.DeleteBit() {
		t.Fatal("set-bits redo failed")
	}
}

func TestRedoRejectsForeignAndCorrupt(t *testing.T) {
	p := freshLeaf(t)
	if err := ApplyRedo(p, &wal.Record{Op: wal.OpDataInsert, Page: 7}); err == nil {
		t.Fatal("data op applied by index redo")
	}
	if err := ApplyRedo(p, &wal.Record{Op: wal.OpIdxInsertKey, Page: 7, Payload: []byte{1, 2}}); err == nil {
		t.Fatal("corrupt payload applied")
	}
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	cases := []struct {
		op  wal.OpCode
		enc []byte
	}{
		{wal.OpIdxInsertKey, keyOpPayload{Index: 3, Pos: 7, PreFlags: 1, PostFlags: 2, Cell: []byte("cell")}.encode()},
		{wal.OpIdxFormat, formatPayload{Index: 3, Level: 2, Flags: 1, Prev: 4, Next: 5, Rightmost: 6, Cells: [][]byte{[]byte("a"), []byte("bb")}}.encode()},
		{wal.OpIdxSplitLeft, splitLeftPayload{Index: 3, From: 2, OldNext: 9, NewNext: 10, OldRightmost: 11, NewRightmost: 12, Promoted: []byte("k")}.encode()},
		{wal.OpIdxUnsplitLeft, splitLeftPayload{Index: 3, From: 2, OldNext: 9, NewNext: 10, OldRightmost: 11, NewRightmost: 12, Moved: [][]byte{[]byte("m")}}.encodeUnsplit()},
		{wal.OpIdxChainFix, chainFixPayload{Index: 3, NextField: true, Old: 1, New: 2, PreFlags: 3, PostFlags: 4}.encode()},
		{wal.OpIdxSplitParent, splitParentPayload{Index: 3, Pos: 1, AtRightmost: true, Right: 8, SepCell: []byte("sep")}.encode()},
		{wal.OpIdxDeleteChild, deleteChildPayload{Index: 3, Pos: 1, WasRightmost: true, OldRightmost: 7, NewRightmost: 8, Removed: []byte("rm")}.encode()},
		{wal.OpIdxFormatRoot, rootFormatPayload{formatPayload: formatPayload{Index: 3, Level: 1, Rightmost: 6}, PriorFlags: 1, PriorRightmost: 2, Child: 6}.encode()},
		{wal.OpIdxSetBits, setBitsPayload{Index: 3, Flags: 3}.encode()},
	}
	for _, c := range cases {
		id, err := indexIDOf(c.enc)
		if err != nil || id != 3 {
			t.Fatalf("%s: indexIDOf = %d, %v", c.op, id, err)
		}
		// Truncated payloads must be rejected, never mis-decoded.
		for cut := 0; cut < len(c.enc); cut++ {
			var derr error
			switch c.op {
			case wal.OpIdxInsertKey:
				_, derr = decodeKeyOp(c.enc[:cut])
			case wal.OpIdxFormat:
				_, derr = decodeFormat(c.enc[:cut])
			case wal.OpIdxSplitLeft:
				_, derr = decodeSplitLeft(c.enc[:cut])
			case wal.OpIdxUnsplitLeft:
				_, derr = decodeUnsplitLeft(c.enc[:cut])
			case wal.OpIdxChainFix:
				_, derr = decodeChainFix(c.enc[:cut])
			case wal.OpIdxSplitParent:
				_, derr = decodeSplitParent(c.enc[:cut])
			case wal.OpIdxDeleteChild:
				_, derr = decodeDeleteChild(c.enc[:cut])
			case wal.OpIdxFormatRoot:
				_, derr = decodeRootFormat(c.enc[:cut])
			case wal.OpIdxSetBits:
				_, derr = decodeSetBits(c.enc[:cut])
			}
			if derr == nil {
				t.Fatalf("%s: truncation at %d of %d accepted", c.op, cut, len(c.enc))
			}
		}
	}
}

// FuzzIndexApplyRedo applies any index op and payload, forward or as a CLR,
// to a formatted leaf, a nonleaf and a pushed-down root: no input panics
// ApplyRedo.
func FuzzIndexApplyRedo(f *testing.F) {
	node := storage.EncodeNodeCell(storage.Key{Val: []byte("mm")}, 31)
	leaf := storage.EncodeLeafCell(storage.Key{Val: []byte("bb"), RID: storage.RID{Page: 9, Slot: 9}})
	for _, s := range []struct {
		op      wal.OpCode
		payload []byte
	}{
		{wal.OpIdxInsertKey, keyOpPayload{Index: 1, Pos: 1, Cell: leaf}.encode()},
		{wal.OpIdxDeleteKey, keyOpPayload{Index: 1, Pos: 0, Cell: leaf}.encode()},
		{wal.OpIdxFormat, formatPayload{Index: 1, Level: 1, Rightmost: 40, Cells: [][]byte{node}}.encode()},
		{wal.OpIdxFormatRoot, rootFormatPayload{formatPayload: formatPayload{Index: 1, Level: 1, Rightmost: 8}, Child: 8}.encode()},
		{wal.OpIdxSplitLeft, splitLeftPayload{Index: 1, From: 1, NewNext: 55}.encode()},
		{wal.OpIdxSplitLeft, splitLeftPayload{Index: 1, From: 0, NewNext: 55, NewRightmost: 31, Promoted: leaf}.encode()},
		{wal.OpIdxUnsplitLeft, splitLeftPayload{Index: 1, From: 1, Moved: [][]byte{leaf}}.encodeUnsplit()},
		{wal.OpIdxChainFix, chainFixPayload{Index: 1, NextField: true, New: 8}.encode()},
		{wal.OpIdxSplitParent, splitParentPayload{Index: 1, Pos: 0, AtRightmost: true, Right: 9, SepCell: node}.encode()},
		{wal.OpIdxUnsplitParent, splitParentPayload{Index: 1, Pos: 0, AtRightmost: true, Right: 9, SepCell: node}.encode()},
		{wal.OpIdxDeleteChild, deleteChildPayload{Index: 1, Pos: 0, Removed: node}.encode()},
		{wal.OpIdxUndeleteChild, deleteChildPayload{Index: 1, Pos: 0, Removed: node}.encode()},
		{wal.OpIdxFreePage, formatPayload{Index: 1}.encode()},
		{wal.OpIdxSetBits, setBitsPayload{Index: 1, Flags: storage.FlagSMBit}.encode()},
	} {
		for kind := uint8(0); kind < 3; kind++ {
			f.Add(kind, uint16(s.op), false, s.payload)
		}
	}
	f.Add(uint8(1), uint16(wal.OpIdxFormatRoot), true, rootFormatPayload{formatPayload: formatPayload{Index: 1, Cells: [][]byte{leaf}}}.encode())
	f.Fuzz(func(t *testing.T, kind uint8, op uint16, clr bool, payload []byte) {
		p := fuzzPage(t, kind)
		rec := &wal.Record{Type: wal.RecUpdate, Page: p.ID(), Op: wal.OpCode(op), Payload: payload}
		if clr {
			rec.Type = wal.RecCLR
		}
		_ = ApplyRedo(p, rec)
	})
}

// fuzzPage is the page FuzzIndexApplyRedo applies its record to: by kind
// modulo 3, a three-key leaf, a nonleaf with one node cell (child 31) and
// rightmost 40, or a pushed-down root (no cells, rightmost 8, SM_Bit set).
func fuzzPage(t *testing.T, kind uint8) *storage.Page {
	t.Helper()
	switch kind % 3 {
	case 0:
		return freshLeaf(t)
	case 1:
		p := storage.NewPage(512)
		p.Format(8, storage.PageTypeIndex, 1)
		p.SetRightmost(40)
		if err := p.InsertCellAt(0, storage.EncodeNodeCell(storage.Key{Val: []byte("mm")}, 31)); err != nil {
			t.Fatal(err)
		}
		return p
	default:
		p := storage.NewPage(512)
		p.Format(2, storage.PageTypeIndex, 1)
		p.SetFlags(storage.FlagSMBit)
		p.SetRightmost(8)
		return p
	}
}

// TestRedoSplitParentFailureLeavesPageUnchanged replays the kept fuzz input
// testdata/fuzz/FuzzIndexApplyRedo/6f4c83d2c5b9e83f: a split-parent at
// position 1 of a one-cell nonleaf, where no node cell follows the
// separator to take the new child. Redo must fail before it inserts the
// separator, leaving every byte of the page as it was.
func TestRedoSplitParentFailureLeavesPageUnchanged(t *testing.T) {
	p := fuzzPage(t, '(')
	before := append([]byte(nil), p.Bytes()...)
	rec := &wal.Record{Type: wal.RecUpdate, Page: p.ID(), Op: wal.OpIdxSplitParent, Payload: []byte("0000\x01\x000000000\x00\x00")}
	if pl, err := decodeSplitParent(rec.Payload); err != nil || pl.Pos != 1 || pl.AtRightmost {
		t.Fatalf("seed decodes to %+v, %v; want a split-parent at position 1", pl, err)
	}
	if err := ApplyRedo(p, rec); err == nil {
		t.Fatal("split-parent with no cell to patch applied")
	}
	if !bytes.Equal(p.Bytes(), before) {
		t.Fatalf("failed redo changed the page: %d slots, had 1", p.NSlots())
	}
}

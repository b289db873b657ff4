package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageFormatHeader(t *testing.T) {
	p := NewPage(DefaultPageSize)
	p.Format(7, PageTypeIndex, 2)
	if p.ID() != 7 {
		t.Errorf("ID = %d, want 7", p.ID())
	}
	if p.Type() != PageTypeIndex {
		t.Errorf("Type = %v, want index", p.Type())
	}
	if p.Level() != 2 || p.IsLeaf() {
		t.Errorf("Level = %d, IsLeaf = %v", p.Level(), p.IsLeaf())
	}
	if p.NSlots() != 0 {
		t.Errorf("NSlots = %d, want 0", p.NSlots())
	}
	if p.LSN() != 0 {
		t.Errorf("LSN = %d, want 0", p.LSN())
	}
	if p.SMBit() || p.DeleteBit() {
		t.Error("fresh page has warning bits set")
	}
}

func TestPageHeaderRoundTrip(t *testing.T) {
	p := NewPage(DefaultPageSize)
	p.Format(3, PageTypeIndex, 0)
	p.SetLSN(0xDEADBEEF01)
	p.SetPrev(11)
	p.SetNext(12)
	p.SetRightmost(13)
	p.SetSMBit(true)
	p.SetDeleteBit(true)
	if p.LSN() != 0xDEADBEEF01 || p.Prev() != 11 || p.Next() != 12 || p.Rightmost() != 13 {
		t.Fatalf("header fields did not round-trip: lsn=%x prev=%d next=%d rm=%d",
			p.LSN(), p.Prev(), p.Next(), p.Rightmost())
	}
	if !p.SMBit() || !p.DeleteBit() {
		t.Fatal("flag bits did not round-trip")
	}
	p.SetSMBit(false)
	if p.SMBit() || !p.DeleteBit() {
		t.Fatal("clearing SM_Bit disturbed Delete_Bit")
	}
}

func TestPageFlagsSurviveBytesCopy(t *testing.T) {
	p := NewPage(512)
	p.Format(2, PageTypeIndex, 0)
	p.SetSMBit(true)
	q := PageFromBytes(append([]byte(nil), p.Bytes()...))
	if !q.SMBit() {
		t.Fatal("SM_Bit lost across byte copy")
	}
}

func TestDenseInsertDeleteOrdering(t *testing.T) {
	p := NewPage(512)
	p.Format(1, PageTypeIndex, 0)
	// Insert c, a, b at sorted positions.
	mustInsert := func(i int, s string) {
		t.Helper()
		if err := p.InsertCellAt(i, []byte(s)); err != nil {
			t.Fatalf("InsertCellAt(%d, %q): %v", i, s, err)
		}
	}
	mustInsert(0, "ccc")
	mustInsert(0, "aaa")
	mustInsert(1, "bbb")
	want := []string{"aaa", "bbb", "ccc"}
	for i, w := range want {
		if got := string(p.MustCell(i)); got != w {
			t.Errorf("cell %d = %q, want %q", i, got, w)
		}
	}
	if got := string(p.MustCell(1)); got != "bbb" {
		t.Fatalf("cell 1 = %q before its delete", got)
	}
	if err := p.DeleteCellAt(1); err != nil {
		t.Fatalf("DeleteCellAt(1): %v", err)
	}
	if p.NSlots() != 2 || string(p.MustCell(1)) != "ccc" {
		t.Fatalf("after delete: nslots=%d cell1=%q", p.NSlots(), p.MustCell(1))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDensePageFullAndCompaction(t *testing.T) {
	p := NewPage(256)
	p.Format(1, PageTypeIndex, 0)
	cell := bytes.Repeat([]byte{'x'}, 40)
	n := 0
	for p.InsertCellAt(n, cell) == nil {
		n++
	}
	if n == 0 {
		t.Fatal("no cells fit at all")
	}
	// Delete one, insert again: must succeed via garbage reclamation.
	if err := p.DeleteCellAt(0); err != nil {
		t.Fatal(err)
	}
	if err := p.InsertCellAt(0, cell); err != nil {
		t.Fatalf("reinsert after delete failed: %v", err)
	}
	if err := p.InsertCellAt(0, cell); err != ErrPageFull {
		t.Fatalf("expected ErrPageFull, got %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStableSlotsPreserveRIDs(t *testing.T) {
	p := NewPage(512)
	p.Format(9, PageTypeData, 0)
	s0, err := p.AddCell([]byte("rec0"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.AddCell([]byte("rec1"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.AddCell([]byte("rec2"))
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 || s1 != 1 || s2 != 2 {
		t.Fatalf("slots = %d,%d,%d", s0, s1, s2)
	}
	if err := p.RemoveCell(s1); err != nil {
		t.Fatal(err)
	}
	// rec2 must still be reachable at its original slot.
	c, ok := p.Cell(int(s2))
	if !ok || string(c) != "rec2" {
		t.Fatalf("cell %d = %q, %v after removal of slot 1", s2, c, ok)
	}
	if _, ok := p.Cell(int(s1)); ok {
		t.Fatal("freed slot still readable")
	}
	// Reuse of the freed slot.
	s3, err := p.AddCell([]byte("rec3"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("AddCell reused slot %d, want %d", s3, s1)
	}
	if p.LiveCells() != 3 {
		t.Fatalf("LiveCells = %d, want 3", p.LiveCells())
	}
}

func TestAddCellAtReproducesSlots(t *testing.T) {
	p := NewPage(512)
	p.Format(9, PageTypeData, 0)
	if err := p.AddCellAt(3, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if p.NSlots() != 4 {
		t.Fatalf("NSlots = %d, want 4", p.NSlots())
	}
	for i := 0; i < 3; i++ {
		if _, ok := p.Cell(i); ok {
			t.Fatalf("intermediate slot %d should be free", i)
		}
	}
	c, ok := p.Cell(3)
	if !ok || string(c) != "late" {
		t.Fatalf("Cell(3) = %q, %v", c, ok)
	}
	if err := p.AddCellAt(3, []byte("dup")); err == nil {
		t.Fatal("AddCellAt over occupied slot succeeded")
	}
	if err := p.AddCellAt(1, []byte("fill")); err != nil {
		t.Fatal(err)
	}
	if c, ok := p.Cell(1); !ok || string(c) != "fill" {
		t.Fatalf("Cell(1) = %q, %v", c, ok)
	}
}

func TestStableCompactionKeepsSlots(t *testing.T) {
	p := NewPage(256)
	p.Format(9, PageTypeData, 0)
	var slots []uint16
	for {
		s, err := p.AddCell(bytes.Repeat([]byte{'a' + byte(len(slots))}, 20))
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 3 {
		t.Fatalf("only %d cells fit", len(slots))
	}
	// Free every other cell, then add a big one forcing compaction.
	for i := 0; i < len(slots); i += 2 {
		if err := p.RemoveCell(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddCell(bytes.Repeat([]byte{'Z'}, 30)); err != nil {
		t.Fatalf("AddCell after frees: %v", err)
	}
	for i := 1; i < len(slots); i += 2 {
		c, ok := p.Cell(int(slots[i]))
		if !ok || c[0] != 'a'+byte(i) {
			t.Fatalf("slot %d corrupted by compaction: %q %v", slots[i], c, ok)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafCellRoundTrip(t *testing.T) {
	k := Key{Val: []byte("hello"), RID: RID{Page: 42, Slot: 7}}
	got, err := DecodeLeafCell(EncodeLeafCell(k))
	if err != nil {
		t.Fatal(err)
	}
	if got.Compare(k) != 0 {
		t.Fatalf("round trip: got %v want %v", got, k)
	}
}

func TestNodeCellRoundTrip(t *testing.T) {
	k := Key{Val: []byte("high"), RID: RID{Page: 1, Slot: 2}}
	gk, child, err := DecodeNodeCell(EncodeNodeCell(k, 99))
	if err != nil {
		t.Fatal(err)
	}
	if gk.Compare(k) != 0 || child != 99 {
		t.Fatalf("round trip: got %v/%d want %v/99", gk, child, k)
	}
}

func TestCellDecodeErrors(t *testing.T) {
	if _, err := DecodeLeafCell([]byte{1}); err == nil {
		t.Error("short leaf cell decoded")
	}
	if _, _, err := DecodeNodeCell([]byte{9, 0, 'x'}); err == nil {
		t.Error("truncated node cell decoded")
	}
	// valLen claims more than available
	bad := EncodeLeafCell(Key{Val: []byte("abcd")})
	bad[0] = 200
	if _, err := DecodeLeafCell(bad); err == nil {
		t.Error("oversized valLen decoded")
	}
}

func TestKeyCompare(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{Val: []byte("a")}, Key{Val: []byte("b")}, -1},
		{Key{Val: []byte("b")}, Key{Val: []byte("a")}, 1},
		{Key{Val: []byte("a"), RID: RID{1, 1}}, Key{Val: []byte("a"), RID: RID{1, 2}}, -1},
		{Key{Val: []byte("a"), RID: RID{2, 0}}, Key{Val: []byte("a"), RID: RID{1, 9}}, 1},
		{Key{Val: []byte("a"), RID: RID{1, 1}}, Key{Val: []byte("a"), RID: RID{1, 1}}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if MinKeyFor([]byte("k")).Compare(MaxKeyFor([]byte("k"))) >= 0 {
		t.Error("MinKeyFor >= MaxKeyFor")
	}
}

func TestKeyCloneIndependence(t *testing.T) {
	src := []byte("mutable")
	k := Key{Val: src, RID: RID{1, 1}}
	c := k.Clone()
	src[0] = 'X'
	if c.Val[0] == 'X' {
		t.Fatal("Clone aliases source buffer")
	}
}

// quickCell is a quick.Generator-friendly cell payload.
func TestQuickLeafCellRoundTrip(t *testing.T) {
	f := func(val []byte, page uint32, slot uint16) bool {
		if len(val) > 1000 {
			val = val[:1000]
		}
		k := Key{Val: val, RID: RID{Page: PageID(page), Slot: slot}}
		got, err := DecodeLeafCell(EncodeLeafCell(k))
		return err == nil && got.Compare(k) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDensePageModel drives a dense page against a slice model with
// random inserts/deletes and checks full equivalence plus invariants.
func TestQuickDensePageModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPage(1024)
	p.Format(5, PageTypeIndex, 0)
	var model [][]byte
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			cell := make([]byte, rng.Intn(60)+1)
			for i := range cell {
				cell[i] = byte(rng.Intn(256))
			}
			pos := rng.Intn(len(model) + 1)
			err := p.InsertCellAt(pos, cell)
			if err == ErrPageFull {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			model = append(model, nil)
			copy(model[pos+1:], model[pos:])
			model[pos] = cell
		} else {
			pos := rng.Intn(len(model))
			if got := p.MustCell(pos); !bytes.Equal(got, model[pos]) {
				t.Fatalf("step %d: deleting %x, model %x", step, got, model[pos])
			}
			if err := p.DeleteCellAt(pos); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			model = append(model[:pos], model[pos+1:]...)
		}
		if p.NSlots() != len(model) {
			t.Fatalf("step %d: nslots %d != model %d", step, p.NSlots(), len(model))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for i, want := range model {
		if got := p.MustCell(i); !bytes.Equal(got, want) {
			t.Fatalf("final cell %d mismatch", i)
		}
	}
}

// TestQuickStableSlotModel does the same for stable-slot (data) pages.
func TestQuickStableSlotModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPage(1024)
	p.Format(6, PageTypeData, 0)
	model := map[uint16][]byte{}
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			cell := make([]byte, rng.Intn(60)+1)
			rng.Read(cell)
			slot, err := p.AddCell(cell)
			if err == ErrPageFull {
				continue
			}
			if err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			if _, dup := model[slot]; dup {
				t.Fatalf("step %d: slot %d double-allocated", step, slot)
			}
			model[slot] = cell
		} else {
			var victim uint16
			for s := range model {
				victim = s
				break
			}
			if got, ok := p.Cell(int(victim)); !ok || !bytes.Equal(got, model[victim]) {
				t.Fatalf("step %d: removing the wrong payload", step)
			}
			if err := p.RemoveCell(victim); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			delete(model, victim)
		}
		if p.LiveCells() != len(model) {
			t.Fatalf("step %d: live %d != model %d", step, p.LiveCells(), len(model))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for slot, want := range model {
		got, ok := p.Cell(int(slot))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("final slot %d mismatch", slot)
		}
	}
}

func TestFSMAllocateFreeCycle(t *testing.T) {
	p := NewPage(DefaultPageSize)
	FormatFSM(p)
	bit, err := FSMFindFree(p)
	if err != nil || bit != 0 {
		t.Fatalf("first free bit = %d, %v", bit, err)
	}
	if err := FSMSet(p, bit, true); err != nil {
		t.Fatal(err)
	}
	if !FSMIsSet(p, 0) {
		t.Fatal("bit 0 not set")
	}
	bit2, err := FSMFindFree(p)
	if err != nil || bit2 != 1 {
		t.Fatalf("second free bit = %d, %v", bit2, err)
	}
	if err := FSMSet(p, 0, false); err != nil {
		t.Fatal(err)
	}
	bit3, _ := FSMFindFree(p)
	if bit3 != 0 {
		t.Fatalf("freed bit not reused: got %d", bit3)
	}
	if got := FSMPageForBit(5); got != FirstAllocatablePageID+5 {
		t.Fatalf("FSMPageForBit(5) = %d", got)
	}
	b, err := FSMBitForPage(FirstAllocatablePageID + 5)
	if err != nil || b != 5 {
		t.Fatalf("FSMBitForPage = %d, %v", b, err)
	}
	if _, err := FSMBitForPage(0); err == nil {
		t.Fatal("FSMBitForPage(0) should fail")
	}
}

func TestFSMExhaustion(t *testing.T) {
	p := NewPage(256) // tiny FSM: (256-36)*8 = 1760 bits
	FormatFSM(p)
	cap := FSMCapacity(256)
	for i := 0; i < cap; i++ {
		if err := FSMSet(p, i, true); err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
	}
	if _, err := FSMFindFree(p); err != ErrDiskFull {
		t.Fatalf("want ErrDiskFull, got %v", err)
	}
	if got := FSMCountAllocated(p); got != cap {
		t.Fatalf("allocated count = %d, want %d", got, cap)
	}
	if err := FSMSet(p, cap+100, true); err != ErrDiskFull {
		t.Fatalf("out-of-range set: want ErrDiskFull, got %v", err)
	}
}

func TestDiskReadWriteCorrupt(t *testing.T) {
	d := NewDisk(512)
	buf := make([]byte, 512)
	if err := d.Read(9, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten page not zeroed")
		}
	}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := d.Write(9, data); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's buffer must not affect the disk copy.
	data[0] = 0
	if err := d.Read(9, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("disk aliased the writer's buffer")
	}
	if !d.Exists(9) || d.Exists(10) {
		t.Fatal("Exists wrong")
	}
	d.Corrupt(9)
	if d.Exists(9) {
		t.Fatal("Corrupt did not destroy page")
	}
	if err := d.Write(9, make([]byte, 100)); err == nil {
		t.Fatal("short write accepted")
	}
	if err := d.Read(9, make([]byte, 100)); err == nil {
		t.Fatal("short read accepted")
	}
}

func TestDiskSnapshotRestore(t *testing.T) {
	d := NewDisk(512)
	pg := bytes.Repeat([]byte{1}, 512)
	_ = d.Write(3, pg)
	snap := d.Snapshot()
	_ = d.Write(3, bytes.Repeat([]byte{2}, 512))
	_ = d.Write(4, bytes.Repeat([]byte{3}, 512))
	d.Restore(3, snap)
	buf := make([]byte, 512)
	_ = d.Read(3, buf)
	if buf[0] != 1 {
		t.Fatal("Restore did not bring back snapshot content")
	}
	d.Restore(4, snap) // page 4 absent at dump time
	if d.Exists(4) {
		t.Fatal("Restore of page absent from snapshot should remove it")
	}
}

func TestDiskConcurrentAccess(t *testing.T) {
	d := NewDisk(512)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			buf := make([]byte, 512)
			for i := 0; i < 200; i++ {
				id := PageID(i % 10)
				if g%2 == 0 {
					page := bytes.Repeat([]byte{byte(g)}, 512)
					if err := d.Write(id, page); err != nil {
						done <- err
						return
					}
				} else if err := d.Read(id, buf); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d.ReadCount() == 0 || d.WriteCount() == 0 {
		t.Fatal("I/O counters not advancing")
	}
}

func ExampleEncodeLeafCell() {
	k := Key{Val: []byte("alice"), RID: RID{Page: 12, Slot: 3}}
	cell := EncodeLeafCell(k)
	back, _ := DecodeLeafCell(cell)
	fmt.Println(back.String())
	// Output: "alice"(12.3)
}

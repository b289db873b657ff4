package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// checkAgainst compares every slot of p with the model: the same slots
// live, the same bytes in each.
func checkAgainst(t *testing.T, step int, p *Page, model [][]byte) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if p.NSlots() != len(model) {
		t.Fatalf("step %d: %d slots, model has %d", step, p.NSlots(), len(model))
	}
	for i, want := range model {
		got, ok := p.Cell(i)
		if ok != (want != nil) || !bytes.Equal(got, want) {
			t.Fatalf("step %d: slot %d = %x (live %v), model %x", step, i, got, ok, want)
		}
	}
}

// Random stable-slot traffic on a page kept nearly full, so that most adds
// compact first: slot numbers and cell bytes must survive every step.
func TestCompactStableSlotsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPage(512)
		p.Format(9, PageTypeData, 0)
		var model [][]byte // nil = freed slot
		compactions := 0
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 {
				slot := uint16(rng.Intn(len(model) + 1))
				for s, c := range model { // prefer a freed slot, as the record manager does
					if c == nil {
						slot = uint16(s)
						break
					}
				}
				if int(slot) < len(model) && model[slot] != nil {
					continue
				}
				cell := make([]byte, rng.Intn(40)+1)
				rng.Read(cell)
				if !p.HasRoomFor(len(cell)) {
					continue
				}
				garbage := p.garbage()
				if err := p.AddCellAt(slot, cell); err != nil {
					t.Fatalf("seed %d step %d: AddCellAt(%d): %v", seed, step, slot, err)
				}
				if garbage > 0 && p.garbage() == 0 {
					compactions++
				}
				for int(slot) >= len(model) {
					model = append(model, nil)
				}
				model[slot] = cell
			} else if len(model) > 0 {
				slot := rng.Intn(len(model))
				if model[slot] == nil {
					continue
				}
				got, _ := p.Cell(slot)
				if err := p.RemoveCell(uint16(slot)); err != nil || !bytes.Equal(got, model[slot]) {
					t.Fatalf("seed %d step %d: RemoveCell(%d) of %x: %v", seed, step, slot, got, err)
				}
				model[slot] = nil
			}
			checkAgainst(t, step, p, model)
		}
		if compactions < 50 {
			t.Fatalf("seed %d: only %d compactions; the sequence does not exercise compact", seed, compactions)
		}
	}
}

// ReplaceCell among adds and removes on a nearly full page: the slot keeps its
// number, every other cell its bytes, and the page's free space is exactly
// what the model's cells leave — a shrink gives its bytes back as garbage, a
// grow that needs them compacts, and one that does not fit changes nothing.
func TestReplaceCellAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPage(512)
		p.Format(9, PageTypeData, 0)
		var model [][]byte // nil = freed slot
		grows, shrinks, refused := 0, 0, 0
		for step := 0; step < 6000; step++ {
			slot := rng.Intn(len(model) + 1)
			cell := make([]byte, rng.Intn(60)+1)
			rng.Read(cell)
			switch {
			case slot == len(model) || model[slot] == nil:
				if !p.HasRoomFor(len(cell)) {
					continue
				}
				if err := p.AddCellAt(uint16(slot), cell); err != nil {
					t.Fatalf("seed %d step %d: AddCellAt(%d): %v", seed, step, slot, err)
				}
				if slot == len(model) {
					model = append(model, nil)
				}
				model[slot] = cell
			case rng.Intn(4) == 0:
				if err := p.RemoveCell(uint16(slot)); err != nil {
					t.Fatalf("seed %d step %d: RemoveCell(%d): %v", seed, step, slot, err)
				}
				model[slot] = nil
			default:
				old := model[slot]
				fits := p.contiguous()+p.garbage()+len(old) >= len(cell)
				err := p.ReplaceCell(uint16(slot), cell)
				switch {
				case !fits:
					if !errors.Is(err, ErrPageFull) {
						t.Fatalf("seed %d step %d: replace of %d bytes by %d with %d free: %v",
							seed, step, len(old), len(cell), p.FreeSpace(), err)
					}
					refused++
				case err != nil:
					t.Fatalf("seed %d step %d: ReplaceCell(%d): %v", seed, step, slot, err)
				default:
					if len(cell) > len(old) {
						grows++
					} else if len(cell) < len(old) {
						shrinks++
					}
					model[slot] = cell
				}
			}
			checkAgainst(t, step, p, model)
			used := headerSize + 2*len(model)
			for _, c := range model {
				if c != nil {
					used += 2 + len(c)
				}
			}
			if want := max(0, len(p.b)-used-2); p.FreeSpace() != want {
				t.Fatalf("seed %d step %d: FreeSpace %d, the cells leave %d", seed, step, p.FreeSpace(), want)
			}
		}
		if grows < 100 || shrinks < 100 || refused < 100 {
			t.Fatalf("seed %d: %d grows, %d shrinks, %d refused; the sequence does not exercise ReplaceCell", seed, grows, shrinks, refused)
		}
	}
	p := NewPage(512)
	p.Format(9, PageTypeData, 0)
	_ = p.AddCellAt(1, []byte("x"))
	for _, slot := range []uint16{0, 2} {
		if err := p.ReplaceCell(slot, []byte("y")); !errors.Is(err, ErrBadSlot) {
			t.Fatalf("ReplaceCell of slot %d (freed / out of range): %v", slot, err)
		}
	}
}

// The same for dense slots, where positions shift on every insert and delete.
func TestCompactDenseSlotsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPage(512)
		p.Format(9, PageTypeIndex, 0)
		var model [][]byte
		compactions := 0
		for step := 0; step < 4000; step++ {
			if rng.Intn(3) > 0 {
				at := rng.Intn(len(model) + 1)
				cell := make([]byte, rng.Intn(40)+1)
				rng.Read(cell)
				garbage := p.garbage()
				err := p.InsertCellAt(at, cell)
				if errors.Is(err, ErrPageFull) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d step %d: InsertCellAt(%d): %v", seed, step, at, err)
				}
				if garbage > 0 && p.garbage() == 0 {
					compactions++
				}
				model = append(model, nil)
				copy(model[at+1:], model[at:])
				model[at] = cell
			} else if len(model) > 0 {
				at := rng.Intn(len(model))
				got := p.MustCell(at)
				if err := p.DeleteCellAt(at); err != nil || !bytes.Equal(got, model[at]) {
					t.Fatalf("seed %d step %d: DeleteCellAt(%d) of %x: %v", seed, step, at, got, err)
				}
				model = append(model[:at], model[at+1:]...)
			}
			checkAgainst(t, step, p, model)
		}
		if compactions < 50 {
			t.Fatalf("seed %d: only %d compactions; the sequence does not exercise compact", seed, compactions)
		}
	}
}

func TestCompactDoesNotAllocate(t *testing.T) {
	p := NewPage(DefaultPageSize)
	p.Format(9, PageTypeData, 0)
	cell := bytes.Repeat([]byte{'c'}, 100)
	for p.HasRoomFor(len(cell)) {
		if _, err := p.AddCell(cell); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RemoveCell(3); err != nil {
		t.Fatal(err)
	}
	p.compact() // the first call may fill the scratch pool
	if n := testing.AllocsPerRun(100, p.compact); n != 0 {
		t.Fatalf("compact allocates %v times per run, want 0", n)
	}
}

package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// PageType distinguishes the on-disk page kinds.
type PageType uint8

const (
	PageTypeFree  PageType = 0 // never-written or deallocated page
	PageTypeIndex PageType = 1
	PageTypeData  PageType = 2
	PageTypeFSM   PageType = 3
)

func (t PageType) String() string {
	switch t {
	case PageTypeFree:
		return "free"
	case PageTypeIndex:
		return "index"
	case PageTypeData:
		return "data"
	case PageTypeFSM:
		return "fsm"
	default:
		return fmt.Sprintf("type%d", uint8(t))
	}
}

// Page flag bits (paper §2.1, §3). SM_Bit warns traversers that the page
// participated in a structure modification operation that may not have
// completed; Delete_Bit records that a key delete freed space on a leaf and
// forces a point of structural consistency before that space is consumed.
const (
	FlagSMBit     uint8 = 0x01
	FlagDeleteBit uint8 = 0x02
)

// Page header layout. Every page carries a page_LSN as required by ARIES:
// the LSN of the log record describing the most recent update to the page.
// The checksum covers the whole page except the checksum field itself; it is
// stamped by the disk at write time and verified at read time, making torn
// writes and bit flips detectable (ARIES' "detectable via CRCs" assumption).
const (
	offPageID    = 0  // u32
	offPageLSN   = 4  // u64
	offType      = 12 // u8
	offFlags     = 13 // u8
	offLevel     = 14 // u8 (0 = leaf)
	offNSlots    = 16 // u16
	offCellStart = 18 // u16: lowest byte offset occupied by cell content
	offPrev      = 20 // u32: left sibling (leaf chain)
	offNext      = 24 // u32: right sibling (leaf chain)
	offRightmost = 28 // u32: rightmost child (nonleaf only)
	offGarbage   = 32 // u16: dead cell bytes reclaimable by compaction
	offChecksum  = 36 // u32: CRC32-C of the page excluding this field
	headerSize   = 40
)

// freeSlotMarker flags a stable-slot directory entry whose record was
// removed; the slot number stays valid for reuse so RIDs remain stable.
const freeSlotMarker uint16 = 0xFFFF

// MaxPageSize bounds page sizes so offsets fit in the u16 header fields.
const MaxPageSize = 32 * 1024

// DefaultPageSize matches the common 4 KiB database page.
const DefaultPageSize = 4096

// ErrPageFull reports that a cell does not fit even after compaction; the
// caller must run a structure modification operation (page split).
var ErrPageFull = errors.New("storage: page full")

// ErrBadSlot reports an out-of-range or freed slot reference.
var ErrBadSlot = errors.New("storage: bad slot")

// Page is a fixed-size byte buffer with slotted-page accessors. Index pages
// use dense slots (positions shift on insert/delete, keeping cells sorted);
// data pages use stable slots (slot numbers survive removals so RIDs stay
// valid). Physical consistency of a Page is the caller's responsibility and
// is provided by page latches in the buffer pool.
type Page struct {
	b []byte
}

// NewPage allocates a zeroed page buffer of the given size.
func NewPage(size int) *Page {
	if size < headerSize+64 || size > MaxPageSize {
		panic(fmt.Sprintf("storage: invalid page size %d", size))
	}
	return &Page{b: make([]byte, size)}
}

// PageFromBytes wraps an existing buffer (e.g. read from disk) as a Page.
// The buffer is aliased, not copied.
func PageFromBytes(b []byte) *Page { return &Page{b: b} }

// Bytes exposes the raw page buffer (for disk writes and physical logging).
func (p *Page) Bytes() []byte { return p.b }

// Size returns the page size in bytes.
func (p *Page) Size() int { return len(p.b) }

// Clone deep-copies the page.
func (p *Page) Clone() *Page {
	b := make([]byte, len(p.b))
	copy(b, p.b)
	return &Page{b: b}
}

// Format initializes the header for a fresh page of the given type. All
// slots are cleared and the cell area reset.
func (p *Page) Format(id PageID, typ PageType, level uint8) {
	for i := range p.b {
		p.b[i] = 0
	}
	p.setU32(offPageID, uint32(id))
	p.b[offType] = uint8(typ)
	p.b[offLevel] = level
	p.setU16(offCellStart, uint16(len(p.b)))
}

func (p *Page) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.b[off:]) }
func (p *Page) u32(off int) uint32       { return binary.LittleEndian.Uint32(p.b[off:]) }
func (p *Page) u64(off int) uint64       { return binary.LittleEndian.Uint64(p.b[off:]) }
func (p *Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.b[off:], v) }
func (p *Page) setU32(off int, v uint32) { binary.LittleEndian.PutUint32(p.b[off:], v) }
func (p *Page) setU64(off int, v uint64) { binary.LittleEndian.PutUint64(p.b[off:], v) }

// ID returns the page's own ID as recorded in its header.
func (p *Page) ID() PageID { return PageID(p.u32(offPageID)) }

// LSN returns the page_LSN: the LSN of the log record for the most recent
// update applied to this page (ARIES §"page_LSN").
func (p *Page) LSN() uint64 { return p.u64(offPageLSN) }

// SetLSN records the LSN of the update just applied.
func (p *Page) SetLSN(lsn uint64) { p.setU64(offPageLSN, lsn) }

// castagnoli is the CRC32-C polynomial table (the variant hardware-CRC
// instructions implement, and what real engines use for page checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the stored page checksum.
func (p *Page) Checksum() uint32 { return p.u32(offChecksum) }

// ComputeChecksum computes the CRC32-C over the page contents, excluding
// the checksum field itself.
func (p *Page) ComputeChecksum() uint32 {
	c := crc32.Update(0, castagnoli, p.b[:offChecksum])
	return crc32.Update(c, castagnoli, p.b[offChecksum+4:])
}

// UpdateChecksum recomputes and stores the page checksum. The disk calls
// this on the copy it persists; in-memory (buffer pool) pages carry stale
// checksums, which is fine because verification happens only at the disk
// read boundary.
func (p *Page) UpdateChecksum() { p.setU32(offChecksum, p.ComputeChecksum()) }

// VerifyChecksum reports whether the stored checksum matches the contents.
func (p *Page) VerifyChecksum() bool { return p.Checksum() == p.ComputeChecksum() }

// Type returns the page type.
func (p *Page) Type() PageType { return PageType(p.b[offType]) }

// Level returns the page's height in the tree; 0 means leaf.
func (p *Page) Level() uint8 { return p.b[offLevel] }

// IsLeaf reports whether an index page is at the leaf level.
func (p *Page) IsLeaf() bool { return p.b[offLevel] == 0 }

// SMBit reports the structure-modification warning bit (paper §2.1).
func (p *Page) SMBit() bool { return p.b[offFlags]&FlagSMBit != 0 }

// SetSMBit sets or clears the SM_Bit.
func (p *Page) SetSMBit(on bool) { p.setFlag(FlagSMBit, on) }

// DeleteBit reports the freed-space warning bit (paper §3, Figure 11).
func (p *Page) DeleteBit() bool { return p.b[offFlags]&FlagDeleteBit != 0 }

// SetDeleteBit sets or clears the Delete_Bit.
func (p *Page) SetDeleteBit(on bool) { p.setFlag(FlagDeleteBit, on) }

func (p *Page) setFlag(f uint8, on bool) {
	if on {
		p.b[offFlags] |= f
	} else {
		p.b[offFlags] &^= f
	}
}

// Flags returns the raw flag byte (for physical logging of flag state).
func (p *Page) Flags() uint8 { return p.b[offFlags] }

// SetFlags overwrites the raw flag byte.
func (p *Page) SetFlags(f uint8) { p.b[offFlags] = f }

// Prev returns the left sibling in the doubly linked leaf chain.
func (p *Page) Prev() PageID { return PageID(p.u32(offPrev)) }

// SetPrev links the left sibling.
func (p *Page) SetPrev(id PageID) { p.setU32(offPrev, uint32(id)) }

// Next returns the right sibling in the doubly linked leaf chain.
func (p *Page) Next() PageID { return PageID(p.u32(offNext)) }

// SetNext links the right sibling.
func (p *Page) SetNext(id PageID) { p.setU32(offNext, uint32(id)) }

// Rightmost returns a nonleaf page's rightmost child: the one child that
// has no associated high key (paper §1.1).
func (p *Page) Rightmost() PageID { return PageID(p.u32(offRightmost)) }

// SetRightmost sets the rightmost child pointer.
func (p *Page) SetRightmost(id PageID) { p.setU32(offRightmost, uint32(id)) }

// NSlots returns the number of slot-directory entries, including freed
// stable slots.
func (p *Page) NSlots() int { return int(p.u16(offNSlots)) }

func (p *Page) setNSlots(n int) { p.setU16(offNSlots, uint16(n)) }

func (p *Page) cellStart() int     { return int(p.u16(offCellStart)) }
func (p *Page) setCellStart(v int) { p.setU16(offCellStart, uint16(v)) }

func (p *Page) garbage() int     { return int(p.u16(offGarbage)) }
func (p *Page) setGarbage(v int) { p.setU16(offGarbage, uint16(v)) }

func (p *Page) slotOff(i int) int { return headerSize + 2*i }

func (p *Page) slot(i int) uint16       { return p.u16(p.slotOff(i)) }
func (p *Page) setSlot(i int, v uint16) { p.setU16(p.slotOff(i), v) }

// contiguous returns the free bytes between the end of the slot directory
// and the lowest cell.
func (p *Page) contiguous() int {
	return p.cellStart() - (headerSize + 2*p.NSlots())
}

// FreeSpace returns the bytes reclaimable for new cells assuming one new
// slot-directory entry: contiguous space plus compactable garbage, minus
// the slot entry itself.
func (p *Page) FreeSpace() int {
	f := p.contiguous() + p.garbage() - 2
	if f < 0 {
		return 0
	}
	return f
}

// HasRoomFor reports whether a payload of n bytes fits (with its length
// prefix and a new slot entry), possibly after compaction.
func (p *Page) HasRoomFor(n int) bool { return p.FreeSpace() >= n+2 }

// PageCapacity returns the largest cell payload an empty page of the given
// size can hold (one slot entry and the cell length prefix accounted for).
func PageCapacity(pageSize int) int { return pageSize - headerSize - 2 - 2 }

// Cell returns the payload of slot i. ok is false for freed stable slots.
// The returned slice aliases the page buffer.
func (p *Page) Cell(i int) (payload []byte, ok bool) {
	if i < 0 || i >= p.NSlots() {
		return nil, false
	}
	off := p.slot(i)
	if off == freeSlotMarker {
		return nil, false
	}
	n := int(p.u16(int(off)))
	return p.b[int(off)+2 : int(off)+2+n], true
}

// MustCell returns slot i's payload, panicking on a bad slot. It is used
// on index pages where freed slots cannot occur.
func (p *Page) MustCell(i int) []byte {
	c, ok := p.Cell(i)
	if !ok {
		panic(fmt.Sprintf("storage: bad cell %d on page %d (nslots=%d)", i, p.ID(), p.NSlots()))
	}
	return c
}

// placeCell writes payload into the cell area and returns its offset,
// compacting first if contiguous space is insufficient. Callers must have
// verified total space with HasRoomFor (including the slot entry they are
// about to create).
func (p *Page) placeCell(payload []byte, newSlots int) (uint16, error) {
	need := len(payload) + 2
	if p.contiguous()-2*newSlots < need {
		p.compact()
		if p.contiguous()-2*newSlots < need {
			return 0, ErrPageFull
		}
	}
	off := p.cellStart() - need
	p.setU16(off, uint16(len(payload)))
	copy(p.b[off+2:], payload)
	p.setCellStart(off)
	return uint16(off), nil
}

// InsertCellAt inserts a cell at dense position i, shifting later slots up
// by one. Used by index pages, which keep cells sorted by key.
func (p *Page) InsertCellAt(i int, payload []byte) error {
	n := p.NSlots()
	if i < 0 || i > n {
		return fmt.Errorf("%w: insert at %d of %d", ErrBadSlot, i, n)
	}
	if !p.HasRoomFor(len(payload)) {
		return ErrPageFull
	}
	off, err := p.placeCell(payload, 1)
	if err != nil {
		return err
	}
	// Shift slot entries [i, n) up one position.
	copy(p.b[p.slotOff(i+1):p.slotOff(n+1)], p.b[p.slotOff(i):p.slotOff(n)])
	p.setSlot(i, off)
	p.setNSlots(n + 1)
	return nil
}

// DeleteCellAt removes the cell at dense position i, shifting later slots
// down. A caller that needs the removed payload reads it (Cell) first.
func (p *Page) DeleteCellAt(i int) error {
	n := p.NSlots()
	if i < 0 || i >= n {
		return fmt.Errorf("%w: delete at %d of %d", ErrBadSlot, i, n)
	}
	off := p.slot(i)
	if off == freeSlotMarker {
		return fmt.Errorf("%w: delete of freed slot %d", ErrBadSlot, i)
	}
	copy(p.b[p.slotOff(i):p.slotOff(n-1)], p.b[p.slotOff(i+1):p.slotOff(n)])
	p.setNSlots(n - 1)
	p.setGarbage(p.garbage() + int(p.u16(int(off))) + 2)
	return nil
}

// AddCell places a cell in the first free stable slot (or a new one) and
// returns its slot number. Used by data pages: the slot number becomes part
// of the record's RID and must never change.
func (p *Page) AddCell(payload []byte) (uint16, error) {
	n := p.NSlots()
	slot := -1
	for i := 0; i < n; i++ {
		if p.slot(i) == freeSlotMarker {
			slot = i
			break
		}
	}
	newSlots := 0
	if slot == -1 {
		if !p.HasRoomFor(len(payload)) {
			return 0, ErrPageFull
		}
		slot, newSlots = n, 1
	} else if p.FreeSpace()+2 < len(payload)+2 { // reusing a slot: no new entry
		return 0, ErrPageFull
	}
	off, err := p.placeCell(payload, newSlots)
	if err != nil {
		return 0, err
	}
	if newSlots == 1 {
		p.setNSlots(n + 1)
	}
	p.setSlot(slot, off)
	return uint16(slot), nil
}

// AddCellAt places a cell in a specific stable slot, extending the slot
// directory as needed. Used by redo and undo, which must reproduce exact
// slot numbers.
func (p *Page) AddCellAt(slot uint16, payload []byte) error {
	n := p.NSlots()
	newSlots := 0
	if int(slot) >= n {
		newSlots = int(slot) + 1 - n
	} else if p.slot(int(slot)) != freeSlotMarker {
		return fmt.Errorf("%w: slot %d occupied", ErrBadSlot, slot)
	}
	off, err := p.placeCell(payload, newSlots)
	if err != nil {
		return err
	}
	for i := n; i < n+newSlots; i++ {
		p.setSlot(i, freeSlotMarker)
	}
	if newSlots > 0 {
		p.setNSlots(int(slot) + 1)
	}
	p.setSlot(int(slot), off)
	return nil
}

// RemoveCell frees a stable slot. A caller that needs the removed payload
// reads it (Cell) first.
func (p *Page) RemoveCell(slot uint16) error {
	if int(slot) >= p.NSlots() {
		return fmt.Errorf("%w: remove of slot %d (nslots=%d)", ErrBadSlot, slot, p.NSlots())
	}
	off := p.slot(int(slot))
	if off == freeSlotMarker {
		return fmt.Errorf("%w: remove of freed slot %d", ErrBadSlot, slot)
	}
	p.setSlot(int(slot), freeSlotMarker)
	p.setGarbage(p.garbage() + int(p.u16(int(off))) + 2)
	return nil
}

// ReplaceCell overwrites the payload of a live stable slot; the slot number
// does not change. A payload no longer than the old one is written over it
// and the bytes left over become garbage. A longer one is placed afresh once
// the old cell is released, compacting if it must, so payload must not alias
// the page; when the page cannot hold it, ErrPageFull is returned and the
// page is as it was.
func (p *Page) ReplaceCell(slot uint16, payload []byte) error {
	if int(slot) >= p.NSlots() {
		return fmt.Errorf("%w: replace of slot %d (nslots=%d)", ErrBadSlot, slot, p.NSlots())
	}
	off := int(p.slot(int(slot)))
	if uint16(off) == freeSlotMarker {
		return fmt.Errorf("%w: replace of freed slot %d", ErrBadSlot, slot)
	}
	old := int(p.u16(off))
	if len(payload) <= old {
		p.setU16(off, uint16(len(payload)))
		copy(p.b[off+2:], payload)
		p.setGarbage(p.garbage() + old - len(payload))
		return nil
	}
	if p.contiguous()+p.garbage()+old < len(payload) {
		return ErrPageFull
	}
	p.setSlot(int(slot), freeSlotMarker)
	p.setGarbage(p.garbage() + old + 2)
	noff, err := p.placeCell(payload, 0)
	if err != nil {
		return err
	}
	p.setSlot(int(slot), noff)
	return nil
}

// LiveCells returns the number of non-freed slots.
func (p *Page) LiveCells() int {
	live := 0
	for i, n := 0, p.NSlots(); i < n; i++ {
		if p.slot(i) != freeSlotMarker {
			live++
		}
	}
	return live
}

// compactScratch lends compact a copy of the cell area to read from while it
// rewrites the page.
var compactScratch = sync.Pool{New: func() any {
	b := make([]byte, MaxPageSize)
	return &b
}}

// compact rewrites all live cells contiguously at the end of the page, in
// slot order, reclaiming garbage. Slot numbers are preserved.
func (p *Page) compact() {
	scratch := compactScratch.Get().(*[]byte)
	old := (*scratch)[:len(p.b)]
	start := p.cellStart()
	copy(old[start:], p.b[start:])
	w := len(p.b)
	for i, n := 0, p.NSlots(); i < n; i++ {
		off := p.slot(i)
		if off == freeSlotMarker {
			continue
		}
		cell := old[off : int(off)+2+int(binary.LittleEndian.Uint16(old[off:]))]
		w -= len(cell)
		copy(p.b[w:], cell)
		p.setSlot(i, uint16(w))
	}
	compactScratch.Put(scratch)
	p.setCellStart(w)
	p.setGarbage(0)
}

// CheckInvariants validates the structural integrity of the slotted page.
// Used by tests and the crash-torture verifier.
func (p *Page) CheckInvariants() error {
	n := p.NSlots()
	if headerSize+2*n > p.cellStart() {
		return fmt.Errorf("page %d: slot directory overlaps cell area", p.ID())
	}
	if p.cellStart() > len(p.b) {
		return fmt.Errorf("page %d: cellStart %d beyond page end", p.ID(), p.cellStart())
	}
	for i := 0; i < n; i++ {
		off := p.slot(i)
		if off == freeSlotMarker {
			continue
		}
		if int(off) < p.cellStart() || int(off)+2 > len(p.b) {
			return fmt.Errorf("page %d: slot %d offset %d outside cell area [%d,%d)", p.ID(), i, off, p.cellStart(), len(p.b))
		}
		size := int(p.u16(int(off)))
		if int(off)+2+size > len(p.b) {
			return fmt.Errorf("page %d: slot %d cell overruns page", p.ID(), i)
		}
	}
	return nil
}

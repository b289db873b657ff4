// Package storage implements the byte-level storage substrate of ariesim:
// page identifiers, record identifiers, index keys, slotted pages with the
// ARIES/IM page header (page_LSN, SM_Bit, Delete_Bit, level, sibling
// chains), a free-space-map codec, and a simulated crash-safe disk.
//
// Everything above this package manipulates pages only through the logged
// operations of the index and record managers; this package provides the
// raw mechanics those operations are built from.
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageID identifies a page on the disk. Page 0 is never allocated and acts
// as the nil page ID; page 1 is the engine's free-space map.
type PageID uint32

// InvalidPageID is the nil page reference (chain terminators, no-child).
const InvalidPageID PageID = 0

// FSMPageID is the fixed location of the free-space-map page.
const FSMPageID PageID = 1

// FirstAllocatablePageID is the first page ID handed out by the FSM.
const FirstAllocatablePageID PageID = 2

// RID identifies a record in a data page: (data page, stable slot number).
// Under ARIES/IM data-only locking, the lock name of an index key is the
// RID embedded in the key — locking the key locks the record.
type RID struct {
	Page PageID
	Slot uint16
}

// NilRID is the zero RID, used for keys that carry no record reference
// (search boundary probes).
var NilRID = RID{}

// Compare orders RIDs by (page, slot).
func (r RID) Compare(o RID) int {
	switch {
	case r.Page < o.Page:
		return -1
	case r.Page > o.Page:
		return 1
	case r.Slot < o.Slot:
		return -1
	case r.Slot > o.Slot:
		return 1
	default:
		return 0
	}
}

func (r RID) String() string { return fmt.Sprintf("(%d.%d)", r.Page, r.Slot) }

// Key is a full index key as defined in the paper §1.1: a key value plus
// the RID of the record containing that value. In a nonunique index
// duplicate values are ordered by RID, making every full key distinct.
type Key struct {
	Val []byte
	RID RID
}

// Compare orders keys by value, breaking ties by RID.
func (k Key) Compare(o Key) int {
	if c := bytes.Compare(k.Val, o.Val); c != 0 {
		return c
	}
	return k.RID.Compare(o.RID)
}

// Clone deep-copies the key so callers may retain it after the source page
// is unlatched.
func (k Key) Clone() Key {
	v := make([]byte, len(k.Val))
	copy(v, k.Val)
	return Key{Val: v, RID: k.RID}
}

func (k Key) String() string { return fmt.Sprintf("%q%s", k.Val, k.RID) }

// MinKeyFor returns the smallest possible full key for a value: the probe
// used to position at the first instance of a (possibly duplicated) value.
func MinKeyFor(val []byte) Key { return Key{Val: val, RID: RID{}} }

// MaxKeyFor returns the largest possible full key for a value: the probe
// used to position strictly past every instance of a value.
func MaxKeyFor(val []byte) Key {
	return Key{Val: val, RID: RID{Page: PageID(^uint32(0)), Slot: ^uint16(0)}}
}

// Leaf and nonleaf index cell codecs. A leaf cell is a full key; a nonleaf
// cell is a full (high) key plus the child page it bounds. Both are stored
// as slotted-page cell payloads.
//
//	leaf:    u16 valLen | val | u32 ridPage | u16 ridSlot
//	nonleaf: u16 valLen | val | u32 ridPage | u16 ridSlot | u32 child

const leafCellOverhead = 2 + 4 + 2
const nodeCellOverhead = leafCellOverhead + 4

// EncodeLeafCell serializes a leaf index cell.
func EncodeLeafCell(k Key) []byte {
	b := make([]byte, leafCellOverhead+len(k.Val))
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(k.Val)))
	copy(b[2:], k.Val)
	off := 2 + len(k.Val)
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(k.RID.Page))
	binary.LittleEndian.PutUint16(b[off+4:off+6], k.RID.Slot)
	return b
}

// DecodeLeafCell parses a leaf index cell. The returned key aliases the
// cell buffer; callers holding it past unlatch must Clone.
func DecodeLeafCell(b []byte) (Key, error) {
	if len(b) < leafCellOverhead {
		return Key{}, fmt.Errorf("storage: leaf cell too short (%d bytes)", len(b))
	}
	vl := int(binary.LittleEndian.Uint16(b[0:2]))
	if len(b) < leafCellOverhead+vl {
		return Key{}, fmt.Errorf("storage: leaf cell truncated (valLen=%d, have %d)", vl, len(b))
	}
	off := 2 + vl
	return Key{
		Val: b[2:off:off],
		RID: RID{
			Page: PageID(binary.LittleEndian.Uint32(b[off : off+4])),
			Slot: binary.LittleEndian.Uint16(b[off+4 : off+6]),
		},
	}, nil
}

// EncodeNodeCell serializes a nonleaf index cell: high key + child pointer.
// Per the paper §1.1 the high key bounds the child strictly from above.
func EncodeNodeCell(high Key, child PageID) []byte {
	b := make([]byte, nodeCellOverhead+len(high.Val))
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(high.Val)))
	copy(b[2:], high.Val)
	off := 2 + len(high.Val)
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(high.RID.Page))
	binary.LittleEndian.PutUint16(b[off+4:off+6], high.RID.Slot)
	binary.LittleEndian.PutUint32(b[off+6:off+10], uint32(child))
	return b
}

// DecodeNodeCell parses a nonleaf index cell.
func DecodeNodeCell(b []byte) (Key, PageID, error) {
	if len(b) < nodeCellOverhead {
		return Key{}, 0, fmt.Errorf("storage: node cell too short (%d bytes)", len(b))
	}
	vl := int(binary.LittleEndian.Uint16(b[0:2]))
	if len(b) < nodeCellOverhead+vl {
		return Key{}, 0, fmt.Errorf("storage: node cell truncated (valLen=%d, have %d)", vl, len(b))
	}
	off := 2 + vl
	k := Key{
		Val: b[2:off:off],
		RID: RID{
			Page: PageID(binary.LittleEndian.Uint32(b[off : off+4])),
			Slot: binary.LittleEndian.Uint16(b[off+4 : off+6]),
		},
	}
	return k, PageID(binary.LittleEndian.Uint32(b[off+6 : off+10])), nil
}

// Package data implements the record manager: data pages of records
// addressed by stable RIDs, with commit-duration record locks and logged
// insert/update/delete/purge operations.
//
// Deletes are "ghosted": the record stays on the page with a ghost flag so
// the delete can always be undone page-oriented (no relocation — RIDs are
// referenced by index keys and must never move). Ghosts are physically
// purged, with a redo-only log record, only when a later insert needs the
// space and the ghost's record lock is free — i.e. the deleter committed.
// This mirrors the "uncommitted delete leaves a tripping point" discipline
// the paper builds its index protocols around (§2.6), applied to data.
//
// Updates rewrite a record where it lies, and only when that makes it no
// shorter: the undo of a grow is a shrink, which needs no room, while the
// bytes a shrink freed could be gone by the time it had to be undone. An
// update that would shrink the record, or grow it beyond the page, is left
// to the caller as a delete and an insert.
package data

import (
	"encoding/binary"
	"fmt"

	"ariesim/internal/storage"
)

// Ghost flag inside a data cell's leading flags byte.
const cellGhost = 0x01

// wrapRecord builds a cell payload: flags byte + record bytes.
func wrapRecord(rec []byte) []byte {
	out := make([]byte, 1+len(rec))
	copy(out[1:], rec)
	return out
}

// cellSize is the size of rec's cell: flags byte + record bytes.
func cellSize(rec []byte) int { return 1 + len(rec) }

// unwrapCell splits a cell payload into (ghost, record).
func unwrapCell(cell []byte) (bool, []byte) {
	if len(cell) == 0 {
		return false, nil
	}
	return cell[0]&cellGhost != 0, cell[1:]
}

// insertPayload is the body of a forward OpDataInsert.
type insertPayload struct {
	Slot   uint16
	Record []byte
}

func (p insertPayload) encode() []byte {
	b := make([]byte, 2+len(p.Record))
	binary.LittleEndian.PutUint16(b, p.Slot)
	copy(b[2:], p.Record)
	return b
}

func decodeInsertPayload(b []byte) (insertPayload, error) {
	if len(b) < 2 {
		return insertPayload{}, fmt.Errorf("data: insert payload %d bytes", len(b))
	}
	return insertPayload{Slot: binary.LittleEndian.Uint16(b), Record: b[2:]}, nil
}

// SlotOfPayload extracts the target slot from an OpDataInsert, OpDataDelete
// or OpDataUpdate payload (all three lead with it). Online restart uses it to
// derive the record lock name — DataLockName(gran, record.Page, slot) — a
// loser transaction must reacquire before the engine reopens.
func SlotOfPayload(b []byte) (uint16, error) {
	if len(b) < 2 {
		return 0, fmt.Errorf("data: record payload %d bytes", len(b))
	}
	return binary.LittleEndian.Uint16(b), nil
}

// updatePayload is the body of OpDataUpdate: the two record images with
// their common prefix and suffix stripped. Redo needs the record as the
// previous log record left it — cur[:Prefix] + After + cur[len(cur)-Suffix:]
// — which is what page-oriented redo replays onto, and what undo finds
// because only the holder of the record's X lock can have changed it since.
// The CLR that undoes an update is the same op with After = the forward
// record's Before, and no Before of its own: it is never undone.
type updatePayload struct {
	Slot           uint16
	Prefix, Suffix uint16
	Before, After  []byte
}

const updateHeader = 8 // slot, prefix, suffix, len(Before)

// diffUpdate trims old and new down to the bytes that differ.
func diffUpdate(slot uint16, old, new []byte) updatePayload {
	n := min(len(old), len(new))
	p := 0
	for p < n && old[p] == new[p] {
		p++
	}
	s := 0
	for s < n-p && old[len(old)-1-s] == new[len(new)-1-s] {
		s++
	}
	return updatePayload{
		Slot: slot, Prefix: uint16(p), Suffix: uint16(s),
		Before: old[p : len(old)-s], After: new[p : len(new)-s],
	}
}

func (p updatePayload) encode() []byte {
	b := make([]byte, updateHeader+len(p.Before)+len(p.After))
	binary.LittleEndian.PutUint16(b, p.Slot)
	binary.LittleEndian.PutUint16(b[2:], p.Prefix)
	binary.LittleEndian.PutUint16(b[4:], p.Suffix)
	binary.LittleEndian.PutUint16(b[6:], uint16(len(p.Before)))
	copy(b[updateHeader:], p.Before)
	copy(b[updateHeader+len(p.Before):], p.After)
	return b
}

func decodeUpdatePayload(b []byte) (updatePayload, error) {
	if len(b) < updateHeader {
		return updatePayload{}, fmt.Errorf("data: update payload %d bytes", len(b))
	}
	nb := int(binary.LittleEndian.Uint16(b[6:]))
	if updateHeader+nb > len(b) {
		return updatePayload{}, fmt.Errorf("data: update payload %d bytes, before-image %d", len(b), nb)
	}
	return updatePayload{
		Slot:   binary.LittleEndian.Uint16(b),
		Prefix: binary.LittleEndian.Uint16(b[2:]),
		Suffix: binary.LittleEndian.Uint16(b[4:]),
		Before: b[updateHeader : updateHeader+nb],
		After:  b[updateHeader+nb:],
	}, nil
}

// apply builds the cell the update leaves in place of cell: the flags byte
// and the untouched prefix and suffix of the record in it, around After. The
// result is a fresh buffer, as Page.ReplaceCell requires.
func (p updatePayload) apply(cell []byte) ([]byte, error) {
	rec := cell[1:]
	if int(p.Prefix)+int(p.Suffix) > len(rec) {
		return nil, fmt.Errorf("data: update keeps %d+%d bytes of a %d-byte record", p.Prefix, p.Suffix, len(rec))
	}
	out := make([]byte, 0, 1+int(p.Prefix)+len(p.After)+int(p.Suffix))
	out = append(out, cell[:1+int(p.Prefix)]...)
	out = append(out, p.After...)
	return append(out, rec[len(rec)-int(p.Suffix):]...), nil
}

// slotPayload is the body of OpDataDelete and of the OpDataInsert CLR that
// revives a ghost when a delete is undone: the slot alone. A ghost keeps its
// record's bytes until a purge, and a purge waits for the deleter to commit,
// so neither the delete's redo nor its undo nor the undo's redo needs the
// record from the log.
type slotPayload struct {
	Slot uint16
}

func (p slotPayload) encode() []byte {
	b := make([]byte, 2)
	binary.LittleEndian.PutUint16(b, p.Slot)
	return b
}

func decodeSlotPayload(b []byte) (slotPayload, error) {
	if len(b) != 2 {
		return slotPayload{}, fmt.Errorf("data: slot payload %d bytes", len(b))
	}
	return slotPayload{Slot: binary.LittleEndian.Uint16(b)}, nil
}

// The body of OpDataPurge is a purge list: the slots the record empties, in
// strictly ascending order, two bytes each and no count. One pass of
// purgeGhosts over a page logs every ghost it proves free in one record; the
// CLR that undoes an insert logs a one-slot list.

// appendPurgeSlot adds slot, which must exceed every slot already in it, to
// the purge list b.
func appendPurgeSlot(b []byte, slot uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, slot)
}

// purgeSlot is the i-th slot of the purge list b.
func purgeSlot(b []byte, i int) uint16 { return binary.LittleEndian.Uint16(b[2*i:]) }

// checkPurge rejects a purge list no purge of page p logs: an empty list, a
// list of odd length, slots out of order or repeated, and a slot of p that
// holds no cell.
func checkPurge(p *storage.Page, b []byte) error {
	if len(b) == 0 || len(b)%2 != 0 {
		return fmt.Errorf("data: purge list of %d bytes", len(b))
	}
	for i := 0; i < len(b)/2; i++ {
		if i > 0 && purgeSlot(b, i) <= purgeSlot(b, i-1) {
			return fmt.Errorf("data: purge list has slot %d after slot %d", purgeSlot(b, i), purgeSlot(b, i-1))
		}
		if _, ok := p.Cell(int(purgeSlot(b, i))); !ok {
			return fmt.Errorf("data: purge of empty slot %d on page %d", purgeSlot(b, i), p.ID())
		}
	}
	return nil
}

// formatPayload is the body of OpDataFormat: chain pointers for the fresh
// data page.
type formatPayload struct {
	Prev, Next storage.PageID
}

func (p formatPayload) encode() []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(p.Prev))
	binary.LittleEndian.PutUint32(b[4:], uint32(p.Next))
	return b
}

func decodeFormatPayload(b []byte) (formatPayload, error) {
	if len(b) != 8 {
		return formatPayload{}, fmt.Errorf("data: format payload %d bytes", len(b))
	}
	return formatPayload{
		Prev: storage.PageID(binary.LittleEndian.Uint32(b)),
		Next: storage.PageID(binary.LittleEndian.Uint32(b[4:])),
	}, nil
}

// chainFixPayload is the body of OpDataChainFix.
type chainFixPayload struct {
	Next bool // true: rewrite Next; false: rewrite Prev
	Old  storage.PageID
	New  storage.PageID
}

func (p chainFixPayload) encode() []byte {
	b := make([]byte, 9)
	if p.Next {
		b[0] = 1
	}
	binary.LittleEndian.PutUint32(b[1:], uint32(p.Old))
	binary.LittleEndian.PutUint32(b[5:], uint32(p.New))
	return b
}

func decodeChainFixPayload(b []byte) (chainFixPayload, error) {
	if len(b) != 9 {
		return chainFixPayload{}, fmt.Errorf("data: chain-fix payload %d bytes", len(b))
	}
	return chainFixPayload{
		Next: b[0] == 1,
		Old:  storage.PageID(binary.LittleEndian.Uint32(b[1:])),
		New:  storage.PageID(binary.LittleEndian.Uint32(b[5:])),
	}, nil
}

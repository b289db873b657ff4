// Package core implements the paper's contribution: the ARIES/IM index
// manager. It provides B+-tree Fetch / FetchNext / Insert / Delete with
// data-only (or index-specific) key locking, next-key locking for
// repeatable reads, SM_Bit / Delete_Bit based interaction with structure
// modification operations, SMOs as nested top actions serialized by a tree
// latch, page-oriented redo, and page-oriented undo with logical fallback.
//
// This file defines the binary payloads of the index manager's log
// records. Every payload leads with the owning index ID so that undo can
// route back to the index (for logical undo through the root) even though
// redo never needs it (redo is purely page-oriented, §3).
package core

import (
	"encoding/binary"
	"fmt"

	"ariesim/internal/storage"
)

type payloadWriter struct{ b []byte }

func (w *payloadWriter) u8(v uint8)           { w.b = append(w.b, v) }
func (w *payloadWriter) u16(v uint16)         { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *payloadWriter) u32(v uint32)         { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *payloadWriter) pid(v storage.PageID) { w.u32(uint32(v)) }
func (w *payloadWriter) bytes(v []byte) {
	w.u16(uint16(len(v)))
	w.b = append(w.b, v...)
}
func (w *payloadWriter) cells(cs [][]byte) {
	w.u16(uint16(len(cs)))
	for _, c := range cs {
		w.bytes(c)
	}
}

type payloadReader struct {
	b   []byte
	off int
	err error
}

func (r *payloadReader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("core: payload truncated at %d(+%d) of %d", r.off, n, len(r.b))
		return false
	}
	return true
}

func (r *payloadReader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *payloadReader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *payloadReader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *payloadReader) pid() storage.PageID { return storage.PageID(r.u32()) }

func (r *payloadReader) bytes() []byte {
	n := int(r.u16())
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *payloadReader) cells() [][]byte {
	n := int(r.u16())
	out := make([][]byte, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.bytes())
	}
	return out
}

func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("core: %d trailing payload bytes", len(r.b)-r.off)
	}
	return nil
}

// keyOpPayload carries OpIdxInsertKey / OpIdxDeleteKey (and their CLR
// counterparts): the slot position, the flag byte before and after (the
// delete sets Delete_Bit as part of the same record, Fig 7), and the full
// leaf cell.
type keyOpPayload struct {
	Index     uint32
	Pos       uint16
	PreFlags  uint8
	PostFlags uint8
	Cell      []byte
}

func (p keyOpPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u16(p.Pos)
	w.u8(p.PreFlags)
	w.u8(p.PostFlags)
	w.bytes(p.Cell)
	return w.b
}

func decodeKeyOp(b []byte) (keyOpPayload, error) {
	r := &payloadReader{b: b}
	p := keyOpPayload{Index: r.u32(), Pos: r.u16(), PreFlags: r.u8(), PostFlags: r.u8(), Cell: r.bytes()}
	return p, r.done()
}

// formatPayload carries OpIdxFormat: the full image of a freshly formatted
// index page (the right half created by a split, a root's pushed-down
// child). OpIdxFreePage carries one too, naming what undoing the free
// formats the page back to; a page deletion frees an empty page, a root
// collapse the child whose cells it gave the root.
type formatPayload struct {
	Index     uint32
	Level     uint8
	Flags     uint8
	Prev      storage.PageID
	Next      storage.PageID
	Rightmost storage.PageID
	Cells     [][]byte
}

func (p formatPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u8(p.Level)
	w.u8(p.Flags)
	w.pid(p.Prev)
	w.pid(p.Next)
	w.pid(p.Rightmost)
	w.cells(p.Cells)
	return w.b
}

func readFormat(r *payloadReader) formatPayload {
	return formatPayload{
		Index: r.u32(), Level: r.u8(), Flags: r.u8(),
		Prev: r.pid(), Next: r.pid(), Rightmost: r.pid(), Cells: r.cells(),
	}
}

func decodeFormat(b []byte) (formatPayload, error) {
	r := &payloadReader{b: b}
	p := readFormat(r)
	return p, r.done()
}

// rootFormatPayload carries OpIdxFormatRoot, a rewrite of the root in place
// (a push-down, a collapse, an empty-tree reset) and its CLR. The embedded
// formatPayload is what the root becomes, so its redo is OpIdxFormat's. The
// rest is for undo: the root's prior header, and Child, the page a push-down
// moved the root's cells to (InvalidPageID otherwise), from which undo reads
// them back (DESIGN §4.6, "Root splits").
type rootFormatPayload struct {
	formatPayload
	PriorLevel     uint8
	PriorFlags     uint8
	PriorRightmost storage.PageID
	Child          storage.PageID
}

func (p rootFormatPayload) encode() []byte {
	w := &payloadWriter{b: p.formatPayload.encode()}
	w.u8(p.PriorLevel)
	w.u8(p.PriorFlags)
	w.pid(p.PriorRightmost)
	w.pid(p.Child)
	return w.b
}

func decodeRootFormat(b []byte) (rootFormatPayload, error) {
	r := &payloadReader{b: b}
	p := rootFormatPayload{formatPayload: readFormat(r),
		PriorLevel: r.u8(), PriorFlags: r.u8(), PriorRightmost: r.pid(), Child: r.pid()}
	return p, r.done()
}

// splitLeftPayload carries OpIdxSplitLeft and its CLR OpIdxUnsplitLeft: the
// split page's flag and chain/rightmost changes around the cut at From.
// NewNext names the split's new right page, for a nonleaf split too (whose
// redo ignores it). The forward record carries no cells: its redo only cuts
// the page at From, and its undo reads the moved cells back from the new
// page, which holds exactly what its OpIdxFormat put there until the SMO's
// dummy CLR (DESIGN §4.6, "What a split logs"). A nonleaf split moves one
// cell the new page does not hold — cell From, (high key, NewRightmost),
// whose child becomes the left page's rightmost and whose high key is
// promoted — so its forward record logs that key, leaf-cell encoded, as
// Promoted. The CLR carries Moved, cells[From:] in full, so its redo reads
// no second page.
type splitLeftPayload struct {
	Index        uint32
	From         uint16
	PreFlags     uint8
	PostFlags    uint8
	OldNext      storage.PageID
	NewNext      storage.PageID
	OldRightmost storage.PageID
	NewRightmost storage.PageID
	Promoted     []byte   // OpIdxSplitLeft, nonleaf only
	Moved        [][]byte // OpIdxUnsplitLeft only
}

func (p splitLeftPayload) header() *payloadWriter {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u16(p.From)
	w.u8(p.PreFlags)
	w.u8(p.PostFlags)
	w.pid(p.OldNext)
	w.pid(p.NewNext)
	w.pid(p.OldRightmost)
	w.pid(p.NewRightmost)
	return w
}

// encode is the forward OpIdxSplitLeft payload.
func (p splitLeftPayload) encode() []byte {
	w := p.header()
	w.bytes(p.Promoted)
	return w.b
}

// encodeUnsplit is the OpIdxUnsplitLeft CLR payload.
func (p splitLeftPayload) encodeUnsplit() []byte {
	w := p.header()
	w.cells(p.Moved)
	return w.b
}

func readSplitLeftHeader(r *payloadReader) splitLeftPayload {
	return splitLeftPayload{
		Index: r.u32(), From: r.u16(), PreFlags: r.u8(), PostFlags: r.u8(),
		OldNext: r.pid(), NewNext: r.pid(), OldRightmost: r.pid(), NewRightmost: r.pid(),
	}
}

func decodeSplitLeft(b []byte) (splitLeftPayload, error) {
	r := &payloadReader{b: b}
	p := readSplitLeftHeader(r)
	p.Promoted = r.bytes()
	return p, r.done()
}

func decodeUnsplitLeft(b []byte) (splitLeftPayload, error) {
	r := &payloadReader{b: b}
	p := readSplitLeftHeader(r)
	p.Moved = r.cells()
	return p, r.done()
}

// chainFixPayload carries OpIdxChainFix: one sibling-pointer rewrite. The
// record doubles as its own inverse with Old and New swapped.
type chainFixPayload struct {
	Index     uint32
	NextField bool // true: rewrite Next; false: rewrite Prev
	Old       storage.PageID
	New       storage.PageID
	PreFlags  uint8
	PostFlags uint8
}

func (p chainFixPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	if p.NextField {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.pid(p.Old)
	w.pid(p.New)
	w.u8(p.PreFlags)
	w.u8(p.PostFlags)
	return w.b
}

func decodeChainFix(b []byte) (chainFixPayload, error) {
	r := &payloadReader{b: b}
	p := chainFixPayload{Index: r.u32(), NextField: r.u8() == 1, Old: r.pid(), New: r.pid(),
		PreFlags: r.u8(), PostFlags: r.u8()}
	return p, r.done()
}

// splitParentPayload carries OpIdxSplitParent / OpIdxUnsplitParent:
// posting the separator (SepCell = encoded (sep, left) node cell) at Pos.
// If AtRightmost, the split child was the parent's rightmost and the new
// page takes that role; otherwise the pre-existing cell (now at Pos+1) has
// its child patched from left to Right.
type splitParentPayload struct {
	Index       uint32
	Pos         uint16
	AtRightmost bool
	PreFlags    uint8
	PostFlags   uint8
	Right       storage.PageID
	SepCell     []byte
}

func (p splitParentPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u16(p.Pos)
	if p.AtRightmost {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u8(p.PreFlags)
	w.u8(p.PostFlags)
	w.pid(p.Right)
	w.bytes(p.SepCell)
	return w.b
}

func decodeSplitParent(b []byte) (splitParentPayload, error) {
	r := &payloadReader{b: b}
	p := splitParentPayload{Index: r.u32(), Pos: r.u16(), AtRightmost: r.u8() == 1,
		PreFlags: r.u8(), PostFlags: r.u8(), Right: r.pid(), SepCell: r.bytes()}
	return p, r.done()
}

// deleteChildPayload carries OpIdxDeleteChild / OpIdxUndeleteChild:
// removing a (high key, child) entry from a parent during page deletion.
type deleteChildPayload struct {
	Index        uint32
	Pos          uint16
	WasRightmost bool // the deleted child was the parent's rightmost
	PreFlags     uint8
	PostFlags    uint8
	OldRightmost storage.PageID
	NewRightmost storage.PageID
	Removed      []byte // the removed node cell (empty when WasRightmost and the parent had no cells)
}

func (p deleteChildPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u16(p.Pos)
	if p.WasRightmost {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u8(p.PreFlags)
	w.u8(p.PostFlags)
	w.pid(p.OldRightmost)
	w.pid(p.NewRightmost)
	w.bytes(p.Removed)
	return w.b
}

func decodeDeleteChild(b []byte) (deleteChildPayload, error) {
	r := &payloadReader{b: b}
	p := deleteChildPayload{Index: r.u32(), Pos: r.u16(), WasRightmost: r.u8() == 1,
		PreFlags: r.u8(), PostFlags: r.u8(), OldRightmost: r.pid(), NewRightmost: r.pid(),
		Removed: r.bytes()}
	return p, r.done()
}

// setBitsPayload carries OpIdxSetBits: a redo-only flag-byte rewrite used
// to reset SM_Bit / Delete_Bit once the structure is known consistent.
type setBitsPayload struct {
	Index uint32
	Flags uint8
}

func (p setBitsPayload) encode() []byte {
	w := &payloadWriter{}
	w.u32(p.Index)
	w.u8(p.Flags)
	return w.b
}

func decodeSetBits(b []byte) (setBitsPayload, error) {
	r := &payloadReader{b: b}
	p := setBitsPayload{Index: r.u32(), Flags: r.u8()}
	return p, r.done()
}

// indexIDOf extracts the leading index ID common to every core payload.
func indexIDOf(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("core: payload too short for index ID")
	}
	return binary.LittleEndian.Uint32(b), nil
}

// The exported face of the codec. KeyOpInfo and DecodeKeyOpPayload open a
// key insert/delete record to sibling packages — restart's lock
// reinstatement reads the key's RID out of a loser's records, and tests
// assert the log sequences of Figs 9 and 10.

// KeyOpInfo is a decoded OpIdxInsertKey/OpIdxDeleteKey payload.
type KeyOpInfo struct {
	Index     uint32
	Pos       uint16
	PreFlags  uint8
	PostFlags uint8
	Key       storage.Key
}

// DecodeKeyOpPayload decodes an OpIdxInsertKey/OpIdxDeleteKey payload.
func DecodeKeyOpPayload(b []byte) (KeyOpInfo, error) {
	pl, err := decodeKeyOp(b)
	if err != nil {
		return KeyOpInfo{}, err
	}
	k, err := storage.DecodeLeafCell(pl.Cell)
	if err != nil {
		return KeyOpInfo{}, err
	}
	return KeyOpInfo{Index: pl.Index, Pos: pl.Pos, PreFlags: pl.PreFlags, PostFlags: pl.PostFlags, Key: k}, nil
}

// Package wal implements write-ahead logging for ariesim: log sequence
// numbers, the log record model (undo-redo updates, redo-only updates,
// compensation log records, dummy CLRs for nested top actions, transaction
// status records, fuzzy checkpoints), a binary codec, and a log manager
// with an explicit stable prefix so crashes can be simulated faithfully
// (everything after the last Force is lost).
//
// The design follows ARIES (Mohan et al., TODS 1992) as summarized in
// ARIES/IM §1.2: every page carries a page_LSN; CLRs are redo-only and
// chain via UndoNxtLSN to bound logging during (possibly repeated)
// rollbacks; a dummy CLR closes a nested top action by pointing past the
// action's log records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"ariesim/internal/storage"
)

// LSN is a log sequence number: one plus the byte offset of the record in
// the log address space, so LSNs increase monotonically and 0 is "nil".
type LSN uint64

// NilLSN is the null LSN (no predecessor, unset page_LSN).
const NilLSN LSN = 0

// TxID identifies a transaction. 0 is reserved for system activity.
type TxID uint32

// RecType classifies log records.
type RecType uint8

const (
	// RecUpdate is a forward-processing update, normally undo-redo; an
	// update with RedoOnly set cannot be undone (e.g. SM_Bit resets).
	RecUpdate RecType = iota + 1
	// RecCLR is a compensation log record: redo-only, written during undo,
	// chained via UndoNxtLSN to the predecessor of the record it undoes.
	RecCLR
	// RecDummyCLR terminates a nested top action: a CLR with no page
	// action whose UndoNxtLSN points just before the action began.
	RecDummyCLR
	// RecCommit marks a transaction committed (forced at commit).
	RecCommit
	// RecAbort marks the start of a total rollback.
	RecAbort
	// RecEnd marks a rolled-back transaction fully finished: its rollback
	// (or restart's undo of it) is complete. A commit writes none; its
	// commit record finishes it.
	RecEnd
	// RecBeginCkpt and RecEndCkpt delimit a fuzzy checkpoint; the end
	// record carries the dirty page table and transaction table.
	RecBeginCkpt
	RecEndCkpt
)

func (t RecType) String() string {
	switch t {
	case RecUpdate:
		return "update"
	case RecCLR:
		return "clr"
	case RecDummyCLR:
		return "dummy-clr"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecEnd:
		return "end"
	case RecBeginCkpt:
		return "begin-ckpt"
	case RecEndCkpt:
		return "end-ckpt"
	default:
		return fmt.Sprintf("rectype%d", uint8(t))
	}
}

// OpCode identifies the page operation an update (or the compensating
// action a CLR) performs. Redo is dispatched purely on (OpCode, payload) in
// a page-oriented fashion; undo of forward updates is dispatched through
// the owning resource manager, which may choose a logical path.
type OpCode uint16

const (
	OpNone OpCode = iota

	// Index manager operations.
	OpIdxInsertKey   // insert one key cell into a leaf
	OpIdxDeleteKey   // delete one key cell from a leaf
	OpIdxFormat      // format a fresh index page with a full cell image
	OpIdxSplitLeft   // remove the moved upper cells from the split page
	OpIdxChainFix    // rewrite a sibling chain pointer
	OpIdxSplitParent // post a separator (high key, child) into a parent
	OpIdxDeleteChild // remove a child entry from a parent
	OpIdxFormatRoot  // rewrite the root in place (push-down, collapse, reset)
	OpIdxFreePage    // mark an index page free (undone by an OpIdxFormat CLR)
	OpIdxSetBits     // redo-only flag-byte update (SM_Bit/Delete_Bit resets)

	// Compensating index actions (the redo bodies of CLRs written when a
	// partially completed SMO is undone page-oriented).
	OpIdxUnsplitLeft   // put the moved cells back (undo of OpIdxSplitLeft)
	OpIdxUnsplitParent // remove a posted separator (undo of OpIdxSplitParent)
	OpIdxUndeleteChild // restore a removed child entry (undo of OpIdxDeleteChild)

	// Free-space map operations.
	OpFSMAlloc // set an allocation bit
	OpFSMFree  // clear an allocation bit

	// Record (data) manager operations.
	OpDataFormat   // format a fresh data page
	OpDataInsert   // add a record at a stable slot (or revive its ghost)
	OpDataDelete   // ghost a record in a stable slot
	OpDataUpdate   // replace a record's bytes in its stable slot
	OpDataPurge    // physically remove a committed ghost (redo-only)
	OpDataChainFix // rewrite a data-page chain pointer
	OpDataFree     // mark a data page free (undo of OpDataFormat)
)

func (o OpCode) String() string {
	names := [...]string{
		"none", "idx-insert", "idx-delete", "idx-format", "idx-split-left",
		"idx-chain-fix", "idx-split-parent", "idx-delete-child",
		"idx-format-root", "idx-free-page", "idx-set-bits",
		"idx-unsplit-left", "idx-unsplit-parent", "idx-undelete-child",
		"fsm-alloc", "fsm-free", "data-format", "data-insert", "data-delete",
		"data-update", "data-purge", "data-chain-fix", "data-free",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op%d", uint16(o))
}

// Record is a log record. PrevLSN chains a transaction's records backward;
// UndoNxtLSN (CLRs only) points at the next record to undo, letting
// rollback skip already-compensated work.
type Record struct {
	LSN        LSN // assigned by Log.Append
	PrevLSN    LSN
	TxID       TxID
	Type       RecType
	UndoNxtLSN LSN
	Page       storage.PageID
	Op         OpCode
	RedoOnly   bool
	Payload    []byte
}

// IsCLR reports whether the record is any kind of compensation record.
func (r *Record) IsCLR() bool { return r.Type == RecCLR || r.Type == RecDummyCLR }

// Redoable reports whether the record describes a page action that the
// redo pass must consider.
func (r *Record) Redoable() bool {
	return (r.Type == RecUpdate || r.Type == RecCLR) && r.Op != OpNone && r.Page != storage.InvalidPageID
}

// Undoable reports whether rollback must compensate this record.
func (r *Record) Undoable() bool {
	return r.Type == RecUpdate && !r.RedoOnly && r.Op != OpNone
}

// On-log record layout:
//
//	len u32 | CRC32-C u32 | flags u8 | uvarint TxID | uvarint PrevLSN |
//	[uvarint UndoNxtLSN] | [uvarint Page | uvarint Op] | payload
//
// The flags byte holds the type in its low 4 bits, RedoOnly, and whether
// UndoNxtLSN (present iff non-zero) and the Page/Op pair (present iff either
// is non-zero) follow; a commit record is 8 + 1 + two varints. The fixed
// prefix is what a reader needs before it can parse anything: the length
// sizes the record in the arena and in an archive stream, and the CRC covers
// everything after itself (body and payload), so a torn log tail — a record
// only partially on stable storage when the machine died — is detected at
// restart and the log truncated there, rather than replaying garbage (ARIES'
// partial-record assumption, made checkable).
//
// The encoding is a pure function of the record's fields (no field is a
// delta from the record's own LSN: an append claims its bytes before it
// knows its LSN) and canonical: varints are minimal and optional fields
// appear exactly when they are non-zero, so a decoded record re-encodes to
// the same bytes (CodecRoundTrip). DecodeRecord rejects anything else.
const (
	recPrefixSize = 4 + 4
	// recHeaderSize is the smallest record: the prefix, the flags byte and
	// one byte each for TxID and PrevLSN.
	recHeaderSize = recPrefixSize + 1 + 1 + 1

	flagTypeMask = 0x0f
	flagRedoOnly = 0x10
	flagPageOp   = 0x20
	flagUndoNxt  = 0x40
	flagUnused   = 0x80
)

// ErrBadRecordCRC reports a log record whose stored CRC does not match its
// bytes: a torn or corrupted log tail.
var ErrBadRecordCRC = errors.New("wal: log record CRC mismatch")

// uvarintLen is the length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (r *Record) hasPageOp() bool { return r.Page != storage.InvalidPageID || r.Op != OpNone }

// EncodedSize returns the on-log size of the record.
func (r *Record) EncodedSize() int {
	n := recPrefixSize + 1 + uvarintLen(uint64(r.TxID)) + uvarintLen(uint64(r.PrevLSN)) + len(r.Payload)
	if r.UndoNxtLSN != NilLSN {
		n += uvarintLen(uint64(r.UndoNxtLSN))
	}
	if r.hasPageOp() {
		n += uvarintLen(uint64(r.Page)) + uvarintLen(uint64(r.Op))
	}
	return n
}

// Encode serializes the record (excluding its LSN, which is its address).
func (r *Record) Encode() []byte {
	b := make([]byte, r.EncodedSize())
	r.encodeTo(b)
	return b
}

// encodeTo serializes the record into b, which is exactly EncodedSize long.
func (r *Record) encodeTo(b []byte) {
	if r.Type > flagTypeMask {
		panic(fmt.Sprintf("wal: record type %d does not fit the header", r.Type))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)))
	flags := uint8(r.Type)
	if r.RedoOnly {
		flags |= flagRedoOnly
	}
	off := recPrefixSize + 1
	off += binary.PutUvarint(b[off:], uint64(r.TxID))
	off += binary.PutUvarint(b[off:], uint64(r.PrevLSN))
	if r.UndoNxtLSN != NilLSN {
		flags |= flagUndoNxt
		off += binary.PutUvarint(b[off:], uint64(r.UndoNxtLSN))
	}
	if r.hasPageOp() {
		flags |= flagPageOp
		off += binary.PutUvarint(b[off:], uint64(r.Page))
		off += binary.PutUvarint(b[off:], uint64(r.Op))
	}
	b[recPrefixSize] = flags
	copy(b[off:], r.Payload)
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[8:], recCRCTable))
}

var recCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DecodeRecord parses one record from the head of b, returning it and the
// number of bytes consumed. A CRC mismatch returns ErrBadRecordCRC; a body
// whose CRC matches but that no Encode produces returns another error.
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < recHeaderSize {
		return nil, 0, fmt.Errorf("wal: record header truncated (%d bytes)", len(b))
	}
	total := int(binary.LittleEndian.Uint32(b[0:4]))
	if total < recHeaderSize || total > len(b) {
		return nil, 0, fmt.Errorf("wal: record length %d invalid (have %d)", total, len(b))
	}
	if crc := binary.LittleEndian.Uint32(b[4:8]); crc != crc32.Checksum(b[8:total], recCRCTable) {
		return nil, 0, ErrBadRecordCRC
	}
	r := &Record{}
	if err := decodeBody(r, b[:total]); err != nil {
		return nil, 0, err
	}
	if r.Payload != nil {
		r.Payload = append([]byte(nil), r.Payload...)
	}
	return r, total, nil
}

// decodeStored fills r from b, one record's stored image as the log's own
// encoder wrote it, at address lsn. The payload aliases b, capped so an
// append to it cannot write into whatever follows.
func decodeStored(r *Record, b []byte, lsn LSN) {
	if err := decodeBody(r, b); err != nil {
		panic(fmt.Sprintf("wal: stored record at LSN %d: %v", lsn, err))
	}
	r.LSN = lsn
}

// Header fields after the flags byte, in their on-log order, and the
// largest value each may hold.
const (
	fieldTxID = iota
	fieldPrevLSN
	fieldUndoNxtLSN
	fieldPage
	fieldOp
	numFields
)

var fieldMax = [numFields]uint64{math.MaxUint32, math.MaxUint64, math.MaxUint64, math.MaxUint32, math.MaxUint16}

// decodeBody fills r from b, one record's whole image, checking that b is
// exactly what encodeTo writes for the fields it yields: every varint
// minimal, inside the record and no wider than its field, and an optional
// field present only when it is non-zero.
func decodeBody(r *Record, b []byte) error {
	flags := b[recPrefixSize]
	typ := RecType(flags & flagTypeMask)
	if flags&flagUnused != 0 || typ == 0 || typ > RecEndCkpt {
		return fmt.Errorf("wal: record flags %#x invalid", flags)
	}
	undoNxt, pageOp := flags&flagUndoNxt != 0, flags&flagPageOp != 0
	present := [numFields]bool{true, true, undoNxt, pageOp, pageOp}
	var v [numFields]uint64
	off := recPrefixSize + 1
	for i := range v {
		if !present[i] {
			continue
		}
		if off < len(b) && b[off] < 0x80 { // one byte: minimal, below every max
			v[i] = uint64(b[off])
			off++
			continue
		}
		x, n := binary.Uvarint(b[off:])
		if n <= 0 || b[off+n-1] == 0 || x > fieldMax[i] { // a last byte of 0 adds nothing
			return fmt.Errorf("wal: record header field %d overruns, is not minimal or is too wide", i)
		}
		v[i] = x
		off += n
	}
	if undoNxt && v[fieldUndoNxtLSN] == 0 || pageOp && v[fieldPage] == 0 && v[fieldOp] == 0 {
		return fmt.Errorf("wal: record flags %#x name a zero field", flags)
	}
	*r = Record{
		Type:       typ,
		RedoOnly:   flags&flagRedoOnly != 0,
		TxID:       TxID(v[fieldTxID]),
		PrevLSN:    LSN(v[fieldPrevLSN]),
		UndoNxtLSN: LSN(v[fieldUndoNxtLSN]),
		Page:       storage.PageID(v[fieldPage]),
		Op:         OpCode(v[fieldOp]),
	}
	if off < len(b) {
		r.Payload = b[off:len(b):len(b)]
	}
	return nil
}

func (r *Record) String() string {
	return fmt.Sprintf("LSN %d %s tx=%d op=%s page=%d prev=%d undoNxt=%d payload=%dB",
		r.LSN, r.Type, r.TxID, r.Op, r.Page, r.PrevLSN, r.UndoNxtLSN, len(r.Payload))
}

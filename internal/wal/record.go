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
	// RecEnd marks a transaction fully finished (after commit processing
	// or rollback completion).
	RecEnd
	// RecPrepare marks an in-doubt (two-phase commit) transaction; its
	// payload carries the locks to reacquire during restart.
	RecPrepare
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
	case RecPrepare:
		return "prepare"
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
	OpIdxReplacePage // physical full-page replace (root split/collapse)
	OpIdxFreePage    // mark an index page free (page deletion)
	OpIdxSetBits     // redo-only flag-byte update (SM_Bit/Delete_Bit resets)

	// Compensating index actions (the redo bodies of CLRs written when a
	// partially completed SMO is undone page-oriented).
	OpIdxUnsplitLeft   // put the moved cells back (undo of OpIdxSplitLeft)
	OpIdxUnsplitParent // remove a posted separator (undo of OpIdxSplitParent)
	OpIdxUndeleteChild // restore a removed child entry (undo of OpIdxDeleteChild)
	OpIdxUnfreePage    // restore a freed page's empty shell (undo of OpIdxFreePage)

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
		"idx-replace-page", "idx-free-page", "idx-set-bits",
		"idx-unsplit-left", "idx-unsplit-parent", "idx-undelete-child",
		"idx-unfree-page",
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

// On-log record layout: length u32 | CRC32-C u32 | body. The CRC covers
// everything after itself (body and payload), so a torn log tail — a
// record only partially on stable storage when the machine died — is
// detected at restart and the log truncated there, rather than replaying
// garbage (ARIES' partial-record assumption, made checkable).
const recHeaderSize = 4 + 4 + 1 + 1 + 4 + 8 + 8 + 4 + 2

// ErrBadRecordCRC reports a log record whose stored CRC does not match its
// bytes: a torn or corrupted log tail.
var ErrBadRecordCRC = errors.New("wal: log record CRC mismatch")

// EncodedSize returns the on-log size of the record.
func (r *Record) EncodedSize() int { return recHeaderSize + len(r.Payload) }

// Encode serializes the record (excluding its LSN, which is its address).
func (r *Record) Encode() []byte {
	b := make([]byte, r.EncodedSize())
	r.encodeTo(b)
	return b
}

// encodeTo serializes the record into b, which is exactly EncodedSize long.
func (r *Record) encodeTo(b []byte) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(b)))
	b[8] = uint8(r.Type)
	b[9] = 0
	if r.RedoOnly {
		b[9] = 1
	}
	binary.LittleEndian.PutUint32(b[10:14], uint32(r.TxID))
	binary.LittleEndian.PutUint64(b[14:22], uint64(r.PrevLSN))
	binary.LittleEndian.PutUint64(b[22:30], uint64(r.UndoNxtLSN))
	binary.LittleEndian.PutUint32(b[30:34], uint32(r.Page))
	binary.LittleEndian.PutUint16(b[34:36], uint16(r.Op))
	copy(b[recHeaderSize:], r.Payload)
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(b[8:], recCRCTable))
}

var recCRCTable = crc32.MakeTable(crc32.Castagnoli)

// DecodeRecord parses one record from the head of b, returning it and the
// number of bytes consumed. A CRC mismatch returns ErrBadRecordCRC.
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
	decodeStored(r, b[:total], NilLSN)
	if r.Payload != nil {
		r.Payload = append([]byte(nil), r.Payload...)
	}
	return r, total, nil
}

// decodeStored fills r from b, one record's stored image (already known to
// be intact), at address lsn. The payload aliases b, capped so an append to
// it cannot write into whatever follows.
func decodeStored(r *Record, b []byte, lsn LSN) {
	*r = Record{
		LSN:        lsn,
		Type:       RecType(b[8]),
		RedoOnly:   b[9] == 1,
		TxID:       TxID(binary.LittleEndian.Uint32(b[10:14])),
		PrevLSN:    LSN(binary.LittleEndian.Uint64(b[14:22])),
		UndoNxtLSN: LSN(binary.LittleEndian.Uint64(b[22:30])),
		Page:       storage.PageID(binary.LittleEndian.Uint32(b[30:34])),
		Op:         OpCode(binary.LittleEndian.Uint16(b[34:36])),
	}
	if len(b) > recHeaderSize {
		r.Payload = b[recHeaderSize:len(b):len(b)]
	}
}

func (r *Record) String() string {
	return fmt.Sprintf("LSN %d %s tx=%d op=%s page=%d prev=%d undoNxt=%d payload=%dB",
		r.LSN, r.Type, r.TxID, r.Op, r.Page, r.PrevLSN, r.UndoNxtLSN, len(r.Payload))
}

// Package space implements logged page allocation over the free-space-map
// page.
//
// Page allocation must participate in recovery: a page split allocates a
// page inside a nested top action, and ARIES's repeating-history redo must
// reconstruct the allocator exactly. The FSM is therefore an ordinary page
// (storage.FSMPageID) mutated only through logged operations; undoing an
// incomplete SMO frees its pages through CLRs like any other page action.
package space

import (
	"encoding/binary"
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

func payloadFor(bit int) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, uint32(bit))
	return b
}

func bitFrom(payload []byte) (int, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("space: FSM payload is %d bytes, want 4", len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// ensureFSM lazily types a zeroed page as the FSM (the all-clear bitmap of
// a fresh disk is already a valid empty FSM, so no logging is needed).
func ensureFSM(p *storage.Page) {
	if p.Type() != storage.PageTypeFSM {
		storage.FormatFSM(p)
	}
}

// Alloc allocates one page on behalf of tx, logging the FSM bit set. The
// returned page is not yet formatted; callers format it under their own
// log record (OpIdxFormat / OpDataFormat) so redo reconstructs both the
// allocation and the content.
func Alloc(tx *txn.Tx, pool *buffer.Pool) (storage.PageID, error) {
	f, err := pool.Fix(storage.FSMPageID)
	if err != nil {
		return storage.InvalidPageID, err
	}
	defer pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	ensureFSM(f.Page)
	bit, err := storage.FSMFindFree(f.Page)
	if err != nil {
		return storage.InvalidPageID, err
	}
	tx.ApplyUpdate(pool, f, ApplyRedo, wal.OpFSMAlloc, payloadFor(bit), false)
	return storage.FSMPageForBit(bit), nil
}

// Free deallocates a page on behalf of tx, logging the FSM bit clear.
func Free(tx *txn.Tx, pool *buffer.Pool, id storage.PageID) error {
	bit, err := storage.FSMBitForPage(id)
	if err != nil {
		return err
	}
	f, err := pool.Fix(storage.FSMPageID)
	if err != nil {
		return err
	}
	defer pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	ensureFSM(f.Page)
	if !storage.FSMIsSet(f.Page, bit) {
		return fmt.Errorf("space: double free of page %d", id)
	}
	tx.ApplyUpdate(pool, f, ApplyRedo, wal.OpFSMFree, payloadFor(bit), false)
	return nil
}

// ApplyRedo reapplies an FSM log record to the page (restart redo and CLR
// redo both funnel here). The caller holds the page X latch and has
// already decided, by LSN comparison, that the record must be applied.
func ApplyRedo(p *storage.Page, rec *wal.Record) error {
	bit, err := bitFrom(rec.Payload)
	if err != nil {
		return err
	}
	ensureFSM(p)
	switch rec.Op {
	case wal.OpFSMAlloc:
		return storage.FSMSet(p, bit, true)
	case wal.OpFSMFree:
		return storage.FSMSet(p, bit, false)
	default:
		return fmt.Errorf("space: not an FSM op: %s", rec.Op)
	}
}

// Undo compensates an FSM record: an allocation is undone by freeing the
// bit, a free by reallocating it. FSM undos are always page-oriented.
func Undo(tx *txn.Tx, pool *buffer.Pool, rec *wal.Record) error {
	var inverse wal.OpCode
	switch rec.Op {
	case wal.OpFSMAlloc:
		inverse = wal.OpFSMFree
	case wal.OpFSMFree:
		inverse = wal.OpFSMAlloc
	default:
		return fmt.Errorf("space: cannot undo op %s", rec.Op)
	}
	if _, err := bitFrom(rec.Payload); err != nil {
		return err
	}
	f, err := pool.Fix(storage.FSMPageID)
	if err != nil {
		return err
	}
	defer pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	tx.ApplyCLR(pool, f, ApplyRedo, inverse, rec.Payload, rec.PrevLSN)
	return nil
}

// IsAllocated reports whether page id is currently allocated (verifier).
func IsAllocated(pool *buffer.Pool, id storage.PageID) (bool, error) {
	bit, err := storage.FSMBitForPage(id)
	if err != nil {
		return false, err
	}
	f, err := pool.Fix(storage.FSMPageID)
	if err != nil {
		return false, err
	}
	defer pool.Unfix(f)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	if f.Page.Type() != storage.PageTypeFSM {
		return false, nil
	}
	return storage.FSMIsSet(f.Page, bit), nil
}

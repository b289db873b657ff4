package core

import (
	"fmt"

	"ariesim/internal/latch"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Undo compensates one index-manager (or FSM) log record on behalf of tx.
//
// Key inserts and deletes are undone page-oriented whenever possible: the
// page named in the record is checked against its current state, and only
// when the paper's four conditions demand it (§3 "Restart Undo
// Considerations") does the undo retraverse the tree from the root —
// writing the compensation as a CLR either way, with any SMO needed along
// the way logged as regular records inside a nested top action.
//
// SMO records themselves (formats, splits, chain fixes, parent posts,
// frees) are only ever undone when the SMO was interrupted; their undo is
// strictly page-oriented, restoring structural consistency.
func (m *Manager) Undo(tx *txn.Tx, rec *wal.Record) error {
	if rec.Op == wal.OpFSMAlloc || rec.Op == wal.OpFSMFree {
		return space.Undo(tx, m.pool, rec)
	}
	id, err := indexIDOf(rec.Payload)
	if err != nil {
		return err
	}
	if rec.Op == wal.OpIdxFormat {
		// The formatted page reverts to a free shell; its FSM bit is
		// released by the allocation record's own undo. The undo reads no
		// page but its own, so it needs no registered index: the root of a
		// DDL that crashed before logging its catalog row is in no catalog.
		return m.undoPage(tx, rec, wal.OpIdxFreePage, formatPayload{Index: id}.encode())
	}
	ix := m.Lookup(id)
	if ix == nil {
		return fmt.Errorf("core: undo for unregistered index %d (op %s)", id, rec.Op)
	}
	switch rec.Op {
	case wal.OpIdxInsertKey:
		return ix.undoInsert(tx, rec)
	case wal.OpIdxDeleteKey:
		return ix.undoDelete(tx, rec)
	case wal.OpIdxSplitLeft:
		return ix.undoSplitLeft(tx, rec)
	case wal.OpIdxChainFix:
		pl, err := decodeChainFix(rec.Payload)
		if err != nil {
			return err
		}
		inv := chainFixPayload{Index: pl.Index, NextField: pl.NextField,
			Old: pl.New, New: pl.Old, PreFlags: pl.PostFlags, PostFlags: pl.PreFlags}
		return m.undoPage(tx, rec, wal.OpIdxChainFix, inv.encode())
	case wal.OpIdxSplitParent:
		return m.undoPage(tx, rec, wal.OpIdxUnsplitParent, rec.Payload)
	case wal.OpIdxDeleteChild:
		return m.undoPage(tx, rec, wal.OpIdxUndeleteChild, rec.Payload)
	case wal.OpIdxFormatRoot:
		return ix.undoFormatRoot(tx, rec)
	case wal.OpIdxFreePage:
		// The record names what the page held before the free.
		return m.undoPage(tx, rec, wal.OpIdxFormat, rec.Payload)
	default:
		return fmt.Errorf("core: cannot undo op %s", rec.Op)
	}
}

// undoPage performs a page-oriented compensation: it logs a CLR whose op
// is the inverse page action and applies it.
func (m *Manager) undoPage(tx *txn.Tx, rec *wal.Record, invOp wal.OpCode, invPayload []byte) error {
	f, err := m.pool.Fix(rec.Page)
	if err != nil {
		return err
	}
	defer m.pool.Unfix(f)
	f.Latch.Acquire(latch.X)
	defer f.Latch.Release(latch.X)
	m.stats.UndoPageOriented.Add(1)
	tx.ApplyCLR(m.pool, f, ApplyRedo, invOp, invPayload, rec.PrevLSN)
	return nil
}

// undoSplitLeft compensates an interrupted split's OpIdxSplitLeft. The
// record names the new page rather than carrying the moved cells, and that
// page still holds exactly the cells its format gave it: every later record
// of the SMO is already undone (reverse LSN order), and nothing else writes
// the page before the SMO's dummy CLR (DESIGN §4.6, "What a split logs").
// So the cells are read back from it — for a nonleaf, behind the moved cell
// rebuilt from the promoted key — and the CLR carries them in full, so its
// redo reads no page but its own.
func (ix *Index) undoSplitLeft(tx *txn.Tx, rec *wal.Record) error {
	pl, err := decodeSplitLeft(rec.Payload)
	if err != nil {
		return err
	}
	if pl.Moved, err = ix.movedCells(rec.Page, pl); err != nil {
		return err
	}
	return ix.mgr.undoPage(tx, rec, wal.OpIdxUnsplitLeft, pl.encodeUnsplit())
}

// undoFormatRoot compensates an interrupted SMO's rewrite of the root with
// the opposite rewrite. Before a collapse or an empty-tree reset the root had
// no cells, so its prior header alone rebuilds it. Before a push-down it held
// the cells the push-down formatted its child with, and the child still holds
// exactly those — the split-left argument of undoSplitLeft — so the CLR gives
// them back to the root.
func (ix *Index) undoFormatRoot(tx *txn.Tx, rec *wal.Record) error {
	pl, err := decodeRootFormat(rec.Payload)
	if err != nil {
		return err
	}
	inv := rootFormatPayload{
		formatPayload: formatPayload{Index: pl.Index, Level: pl.PriorLevel,
			Flags: pl.PriorFlags, Rightmost: pl.PriorRightmost},
		PriorLevel: pl.Level, PriorFlags: pl.Flags, PriorRightmost: pl.Rightmost,
	}
	if pl.Child != storage.InvalidPageID {
		if inv.Cells, err = ix.pushedCells(pl); err != nil {
			return err
		}
	}
	return ix.mgr.undoPage(tx, rec, wal.OpIdxFormatRoot, inv.encode())
}

// pushedCells reads back the cells a push-down moved to the child pl names,
// refusing a page that is not that child as its format left it.
func (ix *Index) pushedCells(pl rootFormatPayload) ([][]byte, error) {
	f, err := ix.fixLatched(pl.Child, latch.S)
	if err != nil {
		return nil, err
	}
	defer ix.unfixLatched(f, latch.S)
	p := f.Page
	if p.Type() != storage.PageTypeIndex || !p.SMBit() || p.Level() != pl.PriorLevel || p.Rightmost() != pl.PriorRightmost {
		return nil, fmt.Errorf("core: undo push-down of root %d: page %d is not its formatted child", ix.root, pl.Child)
	}
	return pageCells(p), nil
}

// movedCells rebuilds the cells the split of page left moved off it, from
// the new page pl names.
func (ix *Index) movedCells(left storage.PageID, pl splitLeftPayload) ([][]byte, error) {
	f, err := ix.fixLatched(pl.NewNext, latch.S)
	if err != nil {
		return nil, err
	}
	defer ix.unfixLatched(f, latch.S)
	p := f.Page
	leaf := len(pl.Promoted) == 0
	formatted := p.Type() == storage.PageTypeIndex && p.SMBit() && p.IsLeaf() == leaf
	if leaf {
		formatted = formatted && p.Prev() == left && p.Next() == pl.OldNext
	} else {
		formatted = formatted && p.Rightmost() == pl.OldRightmost
	}
	if !formatted {
		return nil, fmt.Errorf("core: undo split-left of page %d: page %d is not its formatted right half", left, pl.NewNext)
	}
	var moved [][]byte
	if !leaf {
		hk, err := storage.DecodeLeafCell(pl.Promoted)
		if err != nil {
			return nil, err
		}
		moved = append(moved, storage.EncodeNodeCell(hk, pl.NewRightmost))
	}
	return append(moved, pageCells(p)...), nil
}

// undoInsert removes a key the transaction inserted. Page-oriented when
// the key is still on the original page and removing it leaves the page
// nonempty; logical otherwise (§3 reasons 2 and 4).
func (ix *Index) undoInsert(tx *txn.Tx, rec *wal.Record) error {
	pl, err := decodeKeyOp(rec.Payload)
	if err != nil {
		return err
	}
	key, err := storage.DecodeLeafCell(pl.Cell)
	if err != nil {
		return err
	}
	key = key.Clone()

	// Page-oriented attempt against the original page.
	f, err := ix.pool.Fix(rec.Page)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if f.Page.Type() == storage.PageTypeIndex && f.Page.IsLeaf() {
		pos, present, perr := leafFind(f.Page, key)
		if perr != nil {
			ix.unfixLatched(f, latch.X)
			return perr
		}
		if present && (f.Page.NSlots() > 1 || rec.Page == ix.root) {
			ix.stats.UndoPageOriented.Add(1)
			flags := f.Page.Flags()
			cpl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos),
				PreFlags: flags, PostFlags: flags, Cell: pl.Cell}
			tx.ApplyCLR(ix.pool, f, ApplyRedo, wal.OpIdxDeleteKey, cpl.encode(), rec.PrevLSN)
			ix.unfixLatched(f, latch.X)
			return nil
		}
	}
	ix.unfixLatched(f, latch.X)

	// Logical undo: retraverse from the root (Fig 1).
	ix.stats.UndoLogical.Add(1)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		leaf, err := ix.traverse(key, true)
		if err != nil {
			return err
		}
		done, err := ix.awaitLeafQuiescent(tx, leaf, false)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		pos, present, err := leafFind(leaf.Page, key)
		if err == nil && !present {
			err = fmt.Errorf("core: undo-insert cannot find key %s", key)
		}
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if leaf.Page.NSlots() == 1 && leaf.ID() != ix.root {
			// Removing the key empties the page: page-deletion SMO (§3
			// reason 4), key-delete CLR first, SMO as regular records.
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			finished, err := ix.deleteEmptyingLeaf(tx, leafID, key, rec)
			if err := ix.retryAfterSMO(tx, err); err != nil {
				return err
			}
			if finished {
				return nil
			}
			continue
		}
		flags := leaf.Page.Flags()
		cpl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: flags, PostFlags: flags, Cell: pl.Cell}
		tx.ApplyCLR(ix.pool, leaf, ApplyRedo, wal.OpIdxDeleteKey, cpl.encode(), rec.PrevLSN)
		ix.unfixLatched(leaf, latch.X)
		return nil
	}
	return fmt.Errorf("core: undo-insert did not stabilize")
}

// undoDelete reinserts a key the transaction deleted. Page-oriented when
// the original page is still a leaf, the key is bound on it (a lower and
// a higher key present — or it is the root leaf), and there is room;
// logical otherwise (§3 reasons 1, 2 and 3), splitting with regular
// records if the freed space was consumed.
func (ix *Index) undoDelete(tx *txn.Tx, rec *wal.Record) error {
	pl, err := decodeKeyOp(rec.Payload)
	if err != nil {
		return err
	}
	key, err := storage.DecodeLeafCell(pl.Cell)
	if err != nil {
		return err
	}
	key = key.Clone()

	f, err := ix.pool.Fix(rec.Page)
	if err != nil {
		return err
	}
	f.Latch.Acquire(latch.X)
	if f.Page.Type() == storage.PageTypeIndex && f.Page.IsLeaf() {
		pos, perr := leafLowerBound(f.Page, key)
		if perr != nil {
			ix.unfixLatched(f, latch.X)
			return perr
		}
		bound := pos > 0 && pos < f.Page.NSlots()
		if (bound || rec.Page == ix.root) && f.Page.HasRoomFor(len(pl.Cell)) {
			ix.stats.UndoPageOriented.Add(1)
			flags := f.Page.Flags()
			cpl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: flags, PostFlags: flags, Cell: pl.Cell}
			tx.ApplyCLR(ix.pool, f, ApplyRedo, wal.OpIdxInsertKey, cpl.encode(), rec.PrevLSN)
			ix.unfixLatched(f, latch.X)
			return nil
		}
	}
	ix.unfixLatched(f, latch.X)

	// Logical undo through the root.
	ix.stats.UndoLogical.Add(1)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		leaf, err := ix.traverse(key, true)
		if err != nil {
			return err
		}
		done, err := ix.awaitLeafQuiescent(tx, leaf, true)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		if !leaf.Page.HasRoomFor(len(pl.Cell)) {
			// Freed space was consumed (§3 reason 1): split with regular
			// records inside an NTA, then retry the reinsertion.
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			if err := ix.retryAfterSMO(tx, ix.SplitForInsert(tx, leafID, len(pl.Cell))); err != nil {
				return err
			}
			continue
		}
		pos, present, err := leafFind(leaf.Page, key)
		if err == nil && present {
			err = fmt.Errorf("core: undo-delete found key %s already present", key)
		}
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		flags := leaf.Page.Flags()
		cpl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: flags, PostFlags: flags, Cell: pl.Cell}
		tx.ApplyCLR(ix.pool, leaf, ApplyRedo, wal.OpIdxInsertKey, cpl.encode(), rec.PrevLSN)
		ix.unfixLatched(leaf, latch.X)
		return nil
	}
	return fmt.Errorf("core: undo-delete did not stabilize")
}

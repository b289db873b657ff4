package core

import (
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Page deletion (Figs 8 and 10).
//
// When a key delete would empty a leaf, the delete is performed and logged
// first — outside the nested top action, so a rollback will undo it (the
// undo is then necessarily logical: the page is gone). The page deletion
// itself runs as the NTA: unchain the leaf, remove its entry from the
// parent (recursing if the parent becomes childless), free the page, and
// write the dummy CLR pointing at the key-delete record.

// deleteEmptyingLeaf handles the "only key in the page" delete: it
// re-runs the delete under the X tree latch and, if the page indeed
// empties, deletes the page. postFlags carries the flag byte the plain
// delete would have applied. done=false means the state changed and the
// caller must retry its delete from the top.
//
// asCLR is non-nil during logical undo (the key delete must be logged as
// a CLR compensating a forward insert); the page-delete records remain
// regular undo-redo records in either case (§3 "Undo Processing").
func (ix *Index) deleteEmptyingLeaf(tx *txn.Tx, leafID storage.PageID, key storage.Key, asCLR *wal.Record) (done bool, err error) {
	hold := ix.treeAcquireSMO()
	defer hold.release()

	f, err := ix.fixLatched(leafID, latch.X)
	if err != nil {
		return false, err
	}
	if f.Page.Type() != storage.PageTypeIndex || !f.Page.IsLeaf() {
		ix.unfixLatched(f, latch.X)
		return false, nil
	}
	pos, present, err := leafFind(f.Page, key)
	if err != nil || !present {
		ix.unfixLatched(f, latch.X)
		return false, err
	}
	if f.Page.NSlots() > 1 || leafID == ix.root {
		// No longer the emptying case (or the root, which is never
		// deleted): perform a plain delete here. Under the exclusive tree
		// latch a POSC is established, so the Delete_Bit can stay clear.
		pre := f.Page.Flags()
		pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre,
			PostFlags: pre &^ storage.FlagDeleteBit, Cell: storage.EncodeLeafCell(key)}
		ix.deleteKey(tx, f, pl, asCLR)
		ix.unfixLatched(f, latch.X)
		return true, nil
	}

	ix.stats.SMOs.Add(1)
	ix.stats.PageDeletes.Add(1)
	// The emptying delete, logged BEFORE the NTA so that rollback undoes
	// it (Fig 10: the dummy CLR will point at this record).
	keyDelPrev := tx.LastLSN()
	pre := f.Page.Flags()
	pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre,
		PostFlags: (pre | storage.FlagSMBit) &^ storage.FlagDeleteBit, Cell: storage.EncodeLeafCell(key)}
	ix.deleteKey(tx, f, pl, asCLR)
	smoSave := tx.Savepoint() // only the SMO rolls back on failure
	prev, next := f.Page.Prev(), f.Page.Next()
	level, flags := f.Page.Level(), f.Page.Flags()
	rightmost := f.Page.Rightmost()
	ix.unfixLatched(f, latch.X)

	// The page-deletion SMO proper, as a nested top action.
	tok := tx.BeginNTA()
	ctx := &smoCtx{}
	err = ix.deletePageLocked(tx, ctx, pageShell{
		id: leafID, prev: prev, next: next, level: level, flags: flags, rightmost: rightmost,
	}, key)
	if err != nil {
		if asCLR != nil {
			// A failure while compensating a compensation is fatal: the
			// key-delete CLR cannot itself be rolled back.
			return false, fmt.Errorf("core: page-delete SMO failed during undo: %w", err)
		}
		// Process failure mid-SMO: undo the SMO's records page-oriented
		// (the tree latch is still ours, §3), then put the deleted key
		// back page-oriented — as the SMO owner we know the emptied leaf
		// is still the key's home — and let the caller retry.
		if rbErr := tx.RollbackTo(smoSave); rbErr != nil {
			return false, fmt.Errorf("core: page-delete SMO failed (%v) and its rollback failed: %w", err, rbErr)
		}
		rf, ferr := ix.fixLatched(leafID, latch.X)
		if ferr != nil {
			return false, ferr
		}
		cpl := keyOpPayload{Index: ix.cfg.ID, Pos: 0, PreFlags: rf.Page.Flags(),
			PostFlags: pre, Cell: pl.Cell}
		tx.ApplyCLR(ix.pool, rf, ApplyRedo, wal.OpIdxInsertKey, cpl.encode(), keyDelPrev)
		ix.unfixLatched(rf, latch.X)
		return false, err
	}
	tx.EndNTA(tok)
	ix.resetSMBits(tx, ctx)
	return true, nil
}

// deleteKey logs and applies the key delete pl on the X-latched f: as a
// CLR compensating asCLR during logical undo, as a forward update
// otherwise.
func (ix *Index) deleteKey(tx *txn.Tx, f *buffer.Frame, pl keyOpPayload, asCLR *wal.Record) {
	if asCLR != nil {
		tx.ApplyCLR(ix.pool, f, ApplyRedo, wal.OpIdxDeleteKey, pl.encode(), asCLR.PrevLSN)
		return
	}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxDeleteKey, pl.encode(), false)
}

// pageShell carries the header of a page being deleted.
type pageShell struct {
	id         storage.PageID
	prev, next storage.PageID
	level      uint8
	flags      uint8
	rightmost  storage.PageID
}

// deletePageLocked removes the empty page from the tree under the tree
// latch: unchain, remove from parent (recursively), free. probe is a key
// that routes to the page (used to find ancestors).
func (ix *Index) deletePageLocked(tx *txn.Tx, ctx *smoCtx, shell pageShell, probe storage.Key) error {
	// Unchain (leaves only; nonleaf pages are not chained).
	if shell.level == 0 {
		if shell.prev != storage.InvalidPageID {
			if err := ix.chainFix(tx, ctx, shell.prev, true, shell.id, shell.next); err != nil {
				return err
			}
		}
		if shell.next != storage.InvalidPageID {
			if err := ix.chainFix(tx, ctx, shell.next, false, shell.id, shell.prev); err != nil {
				return err
			}
		}
	}
	// Remove the child entry from the parent.
	if err := ix.removeChild(tx, ctx, shell, probe); err != nil {
		return err
	}
	// Free the page.
	if err := ix.smoPageLock(tx, shell.id); err != nil {
		return err
	}
	ctx.touch(shell.id)
	f, err := ix.fixLatched(shell.id, latch.X)
	if err != nil {
		return err
	}
	fp := formatPayload{Index: ix.cfg.ID, Level: shell.level, Flags: shell.flags,
		Prev: shell.prev, Next: shell.next, Rightmost: shell.rightmost}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxFreePage, fp.encode(), false)
	ix.unfixLatched(f, latch.X)
	return space.Free(tx, ix.pool, shell.id)
}

// removeChild deletes shell's entry from its parent; if the parent becomes
// childless it is deleted too (recursively), and a root left with zero
// separators collapses onto its single child.
func (ix *Index) removeChild(tx *txn.Tx, ctx *smoCtx, shell pageShell, probe storage.Key) error {
	parent, err := ix.parentOf(tx, probe, shell.id, shell.level)
	if err != nil {
		return err
	}
	if err := ix.smoPageLock(tx, parent.ID()); err != nil {
		ix.unfixLatched(parent, latch.X)
		return err
	}
	ctx.touch(parent.ID())
	pos, wasRightmost, err := nodeChildPos(parent.Page, shell.id)
	if err != nil {
		ix.unfixLatched(parent, latch.X)
		return err
	}
	pre := parent.Page.Flags()
	oldRightmost := parent.Page.Rightmost()
	pl := deleteChildPayload{
		Index: ix.cfg.ID, PreFlags: pre, PostFlags: pre | storage.FlagSMBit,
		OldRightmost: oldRightmost, NewRightmost: oldRightmost,
	}
	if wasRightmost {
		n := parent.Page.NSlots()
		pl.WasRightmost = true
		if n > 0 {
			// Promote the last separator's child to rightmost.
			lastCell := append([]byte(nil), parent.Page.MustCell(n-1)...)
			_, lastChild, derr := storage.DecodeNodeCell(lastCell)
			if derr != nil {
				ix.unfixLatched(parent, latch.X)
				return derr
			}
			pl.Pos = uint16(n - 1)
			pl.Removed = lastCell
			pl.NewRightmost = lastChild
		} else {
			// The parent had a single (rightmost) child: it becomes
			// childless and must itself be removed.
			pl.Removed = nil
			pl.NewRightmost = storage.InvalidPageID
		}
	} else {
		pl.Pos = uint16(pos)
		pl.Removed = append([]byte(nil), parent.Page.MustCell(pos)...)
	}
	tx.ApplyUpdate(ix.pool, parent, ApplyRedo, wal.OpIdxDeleteChild, pl.encode(), false)

	childless := parent.Page.NSlots() == 0 && parent.Page.Rightmost() == storage.InvalidPageID
	single := parent.Page.NSlots() == 0 && parent.Page.Rightmost() != storage.InvalidPageID
	parentShell := pageShell{
		id: parent.ID(), level: parent.Page.Level(), flags: parent.Page.Flags(),
		rightmost: parent.Page.Rightmost(),
	}
	isRoot := parent.ID() == ix.root

	switch {
	case childless && isRoot:
		// The tree is empty: the root reverts to an empty leaf.
		ix.formatRoot(tx, ctx, parent, formatPayload{Flags: storage.FlagSMBit}, storage.InvalidPageID)
		return nil
	case childless:
		// The parent itself is deleted next.
		ix.unfixLatched(parent, latch.X)
		return ix.deletePageLocked(tx, ctx, parentShell, probe)
	case single && isRoot:
		// Root collapse: pull the lone child's content into the root.
		return ix.collapseRoot(tx, ctx, parent)
	default:
		ix.unfixLatched(parent, latch.X)
		return nil
	}
}

// collapseRoot gives a zero-separator root the content of its single child
// and frees the child. The X latch on the root is consumed.
func (ix *Index) collapseRoot(tx *txn.Tx, ctx *smoCtx, rootF *buffer.Frame) error {
	childID := rootF.Page.Rightmost()
	if err := ix.smoPageLock(tx, childID); err != nil {
		ix.unfixLatched(rootF, latch.X)
		return err
	}
	child, err := ix.fixLatched(childID, latch.X)
	if err != nil {
		ix.unfixLatched(rootF, latch.X)
		return err
	}
	ctx.touch(childID)
	cp := child.Page
	fp := formatPayload{Index: ix.cfg.ID, Level: cp.Level(), Flags: cp.Flags(),
		Prev: cp.Prev(), Next: cp.Next(), Rightmost: cp.Rightmost(), Cells: pageCells(cp)}
	root := fp
	root.Flags |= storage.FlagSMBit
	ix.formatRoot(tx, ctx, rootF, root, storage.InvalidPageID)
	// The free names the child's cells: its undo formats them back, before
	// the root's undo takes them off the root.
	tx.ApplyUpdate(ix.pool, child, ApplyRedo, wal.OpIdxFreePage, fp.encode(), false)
	ix.unfixLatched(child, latch.X)
	return space.Free(tx, ix.pool, childID)
}

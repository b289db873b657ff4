package core

import (
	"errors"
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Structure modification operations (Fig 8).
//
// An SMO is performed by the transaction that encountered the need for it,
// as a nested top action: once its dummy CLR is on the log, the SMO is
// permanent regardless of the transaction's fate. SMOs within one tree are
// serialized by the X tree latch; the latch is taken
// only after the pages involved are fixed in the buffer pool, and no I/O
// is done while holding it. Every page touched gets SM_Bit set; the bits
// are reset (redo-only records) after the dummy CLR.
//
// A failure in the middle of an SMO is handled as the paper prescribes: the
// partial SMO is rolled back page-oriented (its records are regular
// undo-redo records) and the tree latch is released only after the
// rollback completes.

// errSMOConflict reports that a sibling pointer this SMO was relying on no
// longer holds the value it read — a guard the X tree latch should never
// let fire; the partial SMO is rolled back page-oriented and retried.
var errSMOConflict = errors.New("core: concurrent SMO changed the page neighborhood")

// smoCtx tracks pages touched by an in-flight SMO for the SM_Bit sweep.
type smoCtx struct {
	touched []storage.PageID
}

func (c *smoCtx) touch(id storage.PageID) {
	for _, t := range c.touched {
		if t == id {
			return
		}
	}
	c.touched = append(c.touched, id)
}

// SplitForInsert runs the page-split SMO so that the (released) leaf can
// accept a cell of cellSize bytes, then returns; the caller re-traverses
// and performs its insert only after the split has fully propagated
// (Fig 8's ordering: the insert that necessitated the split happens after
// the dummy CLR).
func (ix *Index) SplitForInsert(tx *txn.Tx, leafID storage.PageID, cellSize int) error {
	hold := ix.treeAcquireSMO()
	defer hold.release()
	save := tx.Savepoint()

	f, err := ix.fixLatched(leafID, latch.X)
	if err != nil {
		return err
	}
	// Revalidate under the tree latch: the page may have been emptied,
	// deleted, or drained since the caller released it.
	if f.Page.Type() != storage.PageTypeIndex || f.Page.HasRoomFor(cellSize) || f.Page.NSlots() < 2 {
		ix.unfixLatched(f, latch.X)
		return nil // nothing to do; the caller retries its insert
	}
	ix.stats.SMOs.Add(1)
	ix.stats.PageSplits.Add(1)
	tok := tx.BeginNTA()
	ctx := &smoCtx{}
	err = ix.splitLocked(tx, ctx, f) // consumes the latch
	if err != nil {
		// Process failure inside the SMO: undo its records page-oriented,
		// then let the tree latch go (§3 "Structure Modification
		// Operations", failure handling).
		if rbErr := tx.RollbackTo(save); rbErr != nil {
			return fmt.Errorf("core: SMO failed (%v) and its rollback failed: %w", err, rbErr)
		}
		return err
	}
	tx.EndNTA(tok)
	ix.resetSMBits(tx, ctx)
	return nil
}

// splitLocked splits the X-latched page f (leaf or nonleaf), propagating
// upward; the root is first pushed down, and its new child split. The latch
// on f is released before the parent is touched (§4: lower-level latches
// released before higher-level pages are latched).
func (ix *Index) splitLocked(tx *txn.Tx, ctx *smoCtx, f *buffer.Frame) error {
	if f.ID() == ix.root {
		var err error
		if f, err = ix.pushDown(tx, ctx, f); err != nil {
			return err
		}
	}
	if err := ix.smoPageLock(tx, f.ID()); err != nil {
		ix.unfixLatched(f, latch.X)
		return err
	}
	p := f.Page
	isLeaf := p.IsLeaf()
	m := splitPoint(p)

	cells := pageCells(p)
	var sep storage.Key
	var newCells [][]byte
	var newRightmost storage.PageID // for the new page (nonleaf)
	var leftNewRightmost storage.PageID
	var promoted []byte // the split-left record's copy of the promoted high key (nonleaf)
	if isLeaf {
		k, err := storage.DecodeLeafCell(cells[m])
		if err != nil {
			ix.unfixLatched(f, latch.X)
			return err
		}
		sep = ix.leafSeparator(k)
		newCells = cells[m:]
	} else {
		hk, child, err := storage.DecodeNodeCell(cells[m])
		if err != nil {
			ix.unfixLatched(f, latch.X)
			return err
		}
		sep = hk.Clone()
		promoted = storage.EncodeLeafCell(sep)
		leftNewRightmost = child
		newCells = cells[m+1:]
		newRightmost = p.Rightmost()
	}
	oldNext := p.Next()
	oldRightmost := p.Rightmost()
	preFlags := p.Flags()

	// Allocate and format the new right page.
	newPid, err := space.Alloc(tx, ix.pool)
	if err != nil {
		ix.unfixLatched(f, latch.X)
		return err
	}
	if err := ix.smoPageLock(tx, newPid); err != nil {
		ix.unfixLatched(f, latch.X)
		return err
	}
	ctx.touch(newPid)
	nf, err := ix.pool.Fix(newPid)
	if err != nil {
		ix.unfixLatched(f, latch.X)
		return err
	}
	nf.Latch.Acquire(latch.X)
	fp := formatPayload{
		Index: ix.cfg.ID, Level: p.Level(), Flags: storage.FlagSMBit,
		Rightmost: newRightmost, Cells: newCells,
	}
	if isLeaf {
		fp.Prev, fp.Next = f.ID(), oldNext
	}
	tx.ApplyUpdate(ix.pool, nf, ApplyRedo, wal.OpIdxFormat, fp.encode(), false)
	ix.unfixLatched(nf, latch.X)

	// Strip the moved cells off the left page (splits go right, §2.1). The
	// record names the new page instead of repeating its cells.
	ctx.touch(f.ID())
	sl := splitLeftPayload{
		Index: ix.cfg.ID, From: uint16(m),
		PreFlags: preFlags, PostFlags: preFlags | storage.FlagSMBit,
		OldNext: oldNext, NewNext: newPid,
		OldRightmost: oldRightmost, NewRightmost: leftNewRightmost,
		Promoted: promoted,
	}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxSplitLeft, sl.encode(), false)
	leftID := f.ID()
	level := p.Level()
	ix.unfixLatched(f, latch.X)

	// Back-chain the old right neighbor (leaves only).
	if isLeaf && oldNext != storage.InvalidPageID {
		if err := ix.chainFix(tx, ctx, oldNext, false, leftID, newPid); err != nil {
			return err
		}
	}

	// Propagate: post (sep, left) to the parent, splitting it if needed.
	return ix.postSeparator(tx, ctx, sep, leftID, newPid, level)
}

// chainFix rewrites one sibling pointer under an X latch, setting SM_Bit.
// It verifies the pointer still holds the expected old value; if a
// neighbor was rewired since this SMO read its headers, the SMO must abort
// and retry (errSMOConflict).
func (ix *Index) chainFix(tx *txn.Tx, ctx *smoCtx, pid storage.PageID, nextField bool, old, new storage.PageID) error {
	if err := ix.smoPageLock(tx, pid); err != nil {
		return err
	}
	ctx.touch(pid)
	f, err := ix.fixLatched(pid, latch.X)
	if err != nil {
		return err
	}
	defer ix.unfixLatched(f, latch.X)
	current := f.Page.Prev()
	if nextField {
		current = f.Page.Next()
	}
	if current != old {
		return errSMOConflict
	}
	pre := f.Page.Flags()
	pl := chainFixPayload{
		Index: ix.cfg.ID, NextField: nextField, Old: old, New: new,
		PreFlags: pre, PostFlags: pre | storage.FlagSMBit,
	}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxChainFix, pl.encode(), false)
	return nil
}

// postSeparator installs (sep→left, right) into left's parent at
// childLevel+1, splitting ancestors as required. The parent is located by
// a fresh latch-coupled descent — valid because the tree latch serializes
// SMOs, so nonleaf structure is stable except under our own hands.
func (ix *Index) postSeparator(tx *txn.Tx, ctx *smoCtx, sep storage.Key, left, right storage.PageID, childLevel uint8) error {
	sepCell := storage.EncodeNodeCell(sep, left)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		parent, err := ix.parentOf(tx, sep, left, childLevel)
		if err != nil {
			return err
		}
		if !parent.Page.HasRoomFor(len(sepCell)) {
			// Split the ancestor first, then retry the post.
			if err := ix.splitLocked(tx, ctx, parent); err != nil { // consumes latch
				return err
			}
			continue
		}
		if err := ix.smoPageLock(tx, parent.ID()); err != nil {
			ix.unfixLatched(parent, latch.X)
			return err
		}
		ctx.touch(parent.ID())
		pos, atRightmost, err := nodeChildPos(parent.Page, left)
		if err != nil {
			ix.unfixLatched(parent, latch.X)
			return err
		}
		if atRightmost {
			pos = parent.Page.NSlots()
		}
		pre := parent.Page.Flags()
		pl := splitParentPayload{
			Index: ix.cfg.ID, Pos: uint16(pos), AtRightmost: atRightmost,
			PreFlags: pre, PostFlags: pre | storage.FlagSMBit,
			Right: right, SepCell: sepCell,
		}
		tx.ApplyUpdate(ix.pool, parent, ApplyRedo, wal.OpIdxSplitParent, pl.encode(), false)
		ix.unfixLatched(parent, latch.X)
		return nil
	}
	return fmt.Errorf("core: separator post did not stabilize")
}

// parentOf descends from the root to the page at childLevel+1 whose
// subtree contains probe, returning it X-latched. It verifies the page
// really references child.
func (ix *Index) parentOf(tx *txn.Tx, probe storage.Key, child storage.PageID, childLevel uint8) (*buffer.Frame, error) {
	targetLevel := childLevel + 1
	cur, err := ix.fixLatched(ix.root, latch.S)
	if err != nil {
		return nil, err
	}
	mode := latch.S
	if cur.Page.Level() == targetLevel {
		// Upgrade the root latch.
		ix.unfixLatched(cur, mode)
		cur, err = ix.fixLatched(ix.root, latch.X)
		if err != nil {
			return nil, err
		}
		mode = latch.X
	}
	for {
		if cur.Page.Level() == targetLevel {
			if _, _, err := nodeChildPos(cur.Page, child); err != nil {
				ix.unfixLatched(cur, mode)
				return nil, err
			}
			if mode != latch.X {
				ix.unfixLatched(cur, mode)
				return nil, fmt.Errorf("core: parent latch mode error")
			}
			return cur, nil
		}
		if cur.Page.IsLeaf() || cur.Page.Level() < targetLevel {
			ix.unfixLatched(cur, mode)
			return nil, fmt.Errorf("core: no ancestor at level %d for page %d", targetLevel, child)
		}
		next, _, err := nodeChildFor(cur.Page, probe)
		if err != nil {
			ix.unfixLatched(cur, mode)
			return nil, err
		}
		nextMode := latch.S
		if cur.Page.Level() == targetLevel+1 {
			nextMode = latch.X
		}
		nf, err := ix.fixLatched(next, nextMode)
		if err != nil {
			ix.unfixLatched(cur, mode)
			return nil, err
		}
		ix.unfixLatched(cur, mode)
		cur, mode = nf, nextMode
	}
}

// pushDown moves the X-latched root's content to a fresh child and rewrites
// the root as a zero-separator nonleaf one level up over it, so that the
// root keeps its page ID (DESIGN.md §4) and a root split is its child's
// ordinary split, whose separator post fills the root. The root's latch is
// consumed; the child is returned X-latched.
func (ix *Index) pushDown(tx *txn.Tx, ctx *smoCtx, f *buffer.Frame) (*buffer.Frame, error) {
	p := f.Page
	childID, err := space.Alloc(tx, ix.pool)
	if err == nil {
		err = ix.smoPageLock(tx, ix.root)
	}
	if err == nil {
		err = ix.smoPageLock(tx, childID)
	}
	var cf *buffer.Frame
	if err == nil {
		cf, err = ix.pool.Fix(childID)
	}
	if err != nil {
		ix.unfixLatched(f, latch.X)
		return nil, err
	}
	cf.Latch.Acquire(latch.X)
	ctx.touch(childID)
	fp := formatPayload{
		Index: ix.cfg.ID, Level: p.Level(), Flags: storage.FlagSMBit,
		Rightmost: p.Rightmost(), Cells: pageCells(p),
	}
	tx.ApplyUpdate(ix.pool, cf, ApplyRedo, wal.OpIdxFormat, fp.encode(), false)
	ix.formatRoot(tx, ctx, f, formatPayload{Level: p.Level() + 1, Flags: storage.FlagSMBit, Rightmost: childID}, childID)
	return cf, nil
}

// formatRoot rewrites the X-latched root in place as fp, logging the root's
// prior header and child, the page a push-down moved its cells to, for
// undo (OpIdxFormatRoot). The latch is consumed.
func (ix *Index) formatRoot(tx *txn.Tx, ctx *smoCtx, f *buffer.Frame, fp formatPayload, child storage.PageID) {
	ctx.touch(ix.root)
	fp.Index = ix.cfg.ID
	p := f.Page
	pl := rootFormatPayload{formatPayload: fp,
		PriorLevel: p.Level(), PriorFlags: p.Flags(), PriorRightmost: p.Rightmost(), Child: child}
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxFormatRoot, pl.encode(), false)
	ix.unfixLatched(f, latch.X)
}

// leafSeparator derives the high key posted to the parent when a leaf
// splits: the first moved key. For a UNIQUE index its RID is zeroed: key
// values are strictly increasing across a consistent unique leaf, so the
// value-only separator still strictly exceeds everything left of it, and —
// crucially — it can never partition one value's (past or future) instances
// across subtrees. A full-key separator could: a separator (v, rid)
// outlives the key it was derived from, and a later reincarnation of v
// with a smaller RID would live LEFT of it while the uniqueness probe for
// a larger-RID insert routes RIGHT of it, hiding the existing instance
// from the §2.4 duplicate check.
func (ix *Index) leafSeparator(firstMoved storage.Key) storage.Key {
	if ix.cfg.Unique {
		return storage.Key{Val: append([]byte(nil), firstMoved.Val...)}
	}
	return firstMoved.Clone()
}

// splitPoint picks the split index by accumulated cell bytes: the first
// index where the lower half reaches half of the used cell space, clamped
// to keep at least one cell on each side.
func splitPoint(p *storage.Page) int {
	n := p.NSlots()
	total := 0
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		sizes[i] = len(p.MustCell(i)) + 2
		total += sizes[i]
	}
	acc := 0
	for i := 0; i < n; i++ {
		acc += sizes[i]
		if acc >= total/2 {
			m := i + 1
			if m >= n {
				m = n - 1
			}
			if m < 1 {
				m = 1
			}
			return m
		}
	}
	return n / 2
}

// resetSMBits clears SM_Bit on every page the completed SMO touched
// (Fig 8 marks this optional; doing it keeps later traversals from paying
// instant tree-latch waits). Freed pages are skipped.
func (ix *Index) resetSMBits(tx *txn.Tx, ctx *smoCtx) {
	for _, pid := range ctx.touched {
		f, err := ix.pool.Fix(pid)
		if err != nil {
			continue
		}
		f.Latch.Acquire(latch.X)
		if f.Page.Type() == storage.PageTypeIndex {
			ix.resetBits(tx, f, false)
		}
		ix.unfixLatched(f, latch.X)
	}
}

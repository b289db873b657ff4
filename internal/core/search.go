package core

import (
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// maxRestarts bounds traversal restarts (ambiguity waits, upgrade races).
// The protocols guarantee progress, so hitting the bound indicates a bug;
// it exists to convert a hypothetical livelock into a diagnosable error.
const maxRestarts = 10000

// traverse descends from the root to the leaf that covers probe,
// implementing the Fig 4 search logic: latch coupling parent→child, and
// the ambiguity test — when the probe falls past every high key of a
// nonleaf page whose SM_Bit is set, an in-progress split may have grown
// the page's range, so the traverser waits for the SMO (instant S tree
// latch) and re-descends.
//
// The returned frame is latched S for reads and X for updates (forUpdate).
func (ix *Index) traverse(tx *txn.Tx, probe storage.Key, forUpdate bool) (*buffer.Frame, error) {
	if ix.stats != nil {
		ix.stats.Traversals.Add(1)
	}
	for attempt := 0; attempt < maxRestarts; attempt++ {
		f, ambiguous, err := ix.descend(tx, probe, forUpdate)
		if err != nil {
			return nil, err
		}
		if ambiguous == storage.InvalidPageID {
			return f, nil
		}
		if ix.stats != nil {
			ix.stats.AmbiguityRestarts.Add(1)
		}
		// Wait for the unfinished SMO to complete, then go down again
		// (Fig 4 "unwind recursion ... and go down again"; we re-descend
		// from the root). If no SMO is in progress, the bit is stale (a
		// crash leftover: Fig 8 marks resets optional) — clear it under
		// the page X latch so the ambiguity does not recur forever.
		ix.clearStaleSMBit(tx, ambiguous)
		ix.treeWaitInstantS()
	}
	return nil, fmt.Errorf("core: traversal of index %d did not stabilize", ix.cfg.ID)
}

// clearStaleSMBit resets a page's SM_Bit if provably no SMO is in
// progress: while the page X latch is held, a conditional instant S grant
// on the tree latch proves quiescence, and any SMO starting afterwards
// must queue behind our X latch to touch this page.
func (ix *Index) clearStaleSMBit(tx *txn.Tx, pid storage.PageID) {
	f, err := ix.fixLatched(pid, latch.X)
	if err != nil {
		return
	}
	defer ix.unfixLatched(f, latch.X)
	if f.Page.Type() != storage.PageTypeIndex || !f.Page.SMBit() {
		return
	}
	if ix.treeTryInstantS() {
		ix.resetBits(tx, f, false)
	}
}

// descend performs one root-to-leaf pass. A nonzero ambiguous page ID
// requests an ambiguity wait + retry centered on that page.
func (ix *Index) descend(tx *txn.Tx, probe storage.Key, forUpdate bool) (*buffer.Frame, storage.PageID, error) {
	curMode := latch.S
	cur, err := ix.fixLatched(ix.root, curMode)
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	for {
		if cur.Page.Type() != storage.PageTypeIndex {
			// A page freed by a racing page-deletion SMO: wait the SMO out
			// and re-descend.
			id := cur.ID()
			ix.unfixLatched(cur, curMode)
			return nil, id, nil
		}
		if cur.Page.IsLeaf() {
			if forUpdate && curMode == latch.S {
				// The root-is-leaf case: upgrade by re-latching, then
				// revalidate (a root split may intervene while unlatched).
				ix.unfixLatched(cur, curMode)
				cur, err = ix.fixLatched(ix.root, latch.X)
				if err != nil {
					return nil, storage.InvalidPageID, err
				}
				curMode = latch.X
				if !cur.Page.IsLeaf() {
					continue
				}
			}
			return cur, storage.InvalidPageID, nil
		}

		// Nonleaf: Fig 4 ambiguity test. The path is trustworthy when the
		// probe is bounded by some high key, or when it is unbounded but
		// no structure modification is pending on this page.
		child, unbounded, err := nodeChildFor(cur.Page, probe)
		if err != nil {
			ix.unfixLatched(cur, curMode)
			return nil, storage.InvalidPageID, err
		}
		if unbounded && cur.Page.SMBit() {
			id := cur.ID()
			ix.unfixLatched(cur, curMode)
			return nil, id, nil
		}
		if child == storage.InvalidPageID {
			id := cur.ID()
			ix.unfixLatched(cur, curMode)
			return nil, storage.InvalidPageID, fmt.Errorf("core: nonleaf page %d has no child for probe", id)
		}
		childIsLeaf := cur.Page.Level() == 1
		childMode := latch.S
		if childIsLeaf && forUpdate {
			childMode = latch.X
		}
		// Latch coupling: acquire the child's latch while still holding
		// the parent's, then release the parent.
		nf, err := ix.fixLatched(child, childMode)
		if err != nil {
			ix.unfixLatched(cur, curMode)
			return nil, storage.InvalidPageID, err
		}
		ix.unfixLatched(cur, curMode)
		cur, curMode = nf, childMode
	}
}

// awaitLeafQuiescent implements the Figs 6/7 prologue for key inserts and
// deletes: if the leaf carries SM_Bit (or, for inserts, Delete_Bit), the
// operation must not proceed until any in-progress SMO has completed —
// otherwise a later page-oriented undo of that SMO could wipe out this
// (possibly committed) update (§3), or a restart logical undo could find
// the tree untraversable (Fig 11).
//
// Called with the leaf X-latched. Returns done=false when the latch was
// released and the caller must re-traverse; on done=true the bits are
// cleared and the latch is still held.
func (ix *Index) awaitLeafQuiescent(tx *txn.Tx, leaf *buffer.Frame, clearDeleteBit bool) (done bool, err error) {
	blocking := leaf.Page.SMBit() || (clearDeleteBit && leaf.Page.DeleteBit())
	if !blocking {
		return true, nil
	}
	if ix.stats != nil {
		ix.stats.SMBitWaits.Add(1)
		if clearDeleteBit && leaf.Page.DeleteBit() {
			ix.stats.DeleteBitPOSCs.Add(1)
		}
	}
	// Conditional instant S on the tree while holding the leaf latch: a
	// grant proves no SMO is in progress, and none can reach this leaf
	// past our X latch, so the bits can be reset (a POSC is established).
	if ix.treeTryInstantS() {
		ix.resetBits(tx, leaf, clearDeleteBit)
		return true, nil
	}
	// Denied: release the latch (never wait on the tree latch while
	// holding page latches, §2.1), wait unconditionally, re-traverse.
	ix.unfixLatched(leaf, latch.X)
	ix.treeWaitInstantS()
	return false, nil
}

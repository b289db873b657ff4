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
// nonleaf page whose SM_Bit is set while an SMO is in progress, the SMO
// may have grown the page's range, so the traverser waits for it (instant
// S tree latch) and re-descends. Nothing on the way down locks or logs, so
// locked and latch-only callers share it.
//
// The returned frame is latched S for reads and X for updates (forUpdate).
func (ix *Index) traverse(probe storage.Key, forUpdate bool) (*buffer.Frame, error) {
	ix.stats.Traversals.Add(1)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		f, ambiguous, err := ix.descend(probe, forUpdate)
		if err != nil || !ambiguous {
			return f, err
		}
		ix.stats.AmbiguityRestarts.Add(1)
		// Wait for the unfinished SMO to complete, then go down again
		// (Fig 4 "unwind recursion ... and go down again"; we re-descend
		// from the root).
		ix.treeWaitInstantS()
	}
	return nil, fmt.Errorf("core: traversal of index %d did not stabilize", ix.cfg.ID)
}

// descend performs one root-to-leaf pass. ambiguous requests an ambiguity
// wait and a retry; no latch is held then.
func (ix *Index) descend(probe storage.Key, forUpdate bool) (*buffer.Frame, bool, error) {
	curMode := latch.S
	cur, err := ix.fixLatched(ix.root, curMode)
	if err != nil {
		return nil, false, err
	}
	for {
		if cur.Page.Type() != storage.PageTypeIndex {
			// A page freed by a racing page-deletion SMO: wait the SMO out
			// and re-descend.
			ix.unfixLatched(cur, curMode)
			return nil, true, nil
		}
		if cur.Page.IsLeaf() {
			if forUpdate && curMode == latch.S {
				// The root-is-leaf case: upgrade by re-latching, then
				// revalidate (a root split may intervene while unlatched).
				ix.unfixLatched(cur, curMode)
				cur, err = ix.fixLatched(ix.root, latch.X)
				if err != nil {
					return nil, false, err
				}
				curMode = latch.X
				if !cur.Page.IsLeaf() {
					continue
				}
			}
			return cur, false, nil
		}

		// Nonleaf: Fig 4 ambiguity test. The path is trustworthy when the
		// probe is bounded by some high key, or when it is unbounded but
		// no structure modification is in progress. A set SM_Bit alone
		// does not say one is: every SMO holds the tree latch in X from
		// setting its bits until resetting them, and none can post to this
		// page past our latch, so a conditional instant S granted now
		// proves the bit a crash leftover (Fig 8 makes resets optional) and
		// the rightmost child the right way down.
		child, unbounded, err := nodeChildFor(cur.Page, probe)
		if err != nil {
			ix.unfixLatched(cur, curMode)
			return nil, false, err
		}
		if unbounded && cur.Page.SMBit() && !ix.treeTryInstantS() {
			ix.unfixLatched(cur, curMode)
			return nil, true, nil
		}
		if child == storage.InvalidPageID {
			id := cur.ID()
			ix.unfixLatched(cur, curMode)
			return nil, false, fmt.Errorf("core: nonleaf page %d has no child for probe", id)
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
			return nil, false, err
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
	ix.stats.SMBitWaits.Add(1)
	if clearDeleteBit && leaf.Page.DeleteBit() {
		ix.stats.DeleteBitPOSCs.Add(1)
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

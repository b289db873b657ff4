package core

import (
	"fmt"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Delete removes key from the index (Fig 7):
//
//  1. traverse (X-latching the leaf), waiting out SM_Bit;
//  2. take Figure 2's DELETE row (deleteLocks: the next key X for commit
//     duration) under the latch, revalidating if a lock had to be waited
//     for;
//  3. boundary keys (smallest/largest on the page): establish a point of
//     structural consistency by holding the tree latch in S across the
//     delete, so a restart-time logical undo never meets a tree made
//     unreachable by an unfinished SMO (§3, third reason);
//  4. a delete that would empty the page triggers the page-deletion SMO
//     (the key delete is logged first, outside the nested top action);
//  5. otherwise delete, log (setting Delete_Bit — cleared instead when a
//     POSC was just established), bump the page LSN.
func (ix *Index) Delete(tx *txn.Tx, key storage.Key) error {
	var heldTree *treeHold
	releaseTree := func() {
		if heldTree != nil {
			heldTree.release()
			heldTree = nil
		}
	}
	defer releaseTree()

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
			err = fmt.Errorf("%w: %s", ErrKeyNotFound, key)
		}
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		target, restart, err := ix.nextKeyFrom(leaf, pos+1)
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if restart {
			ix.unfixLatched(leaf, latch.X)
			ix.treeWaitInstantS()
			continue
		}
		// A lock wait drops the tree latch with the page latches: a lock
		// holder may need the tree in X for an SMO before it can end, and
		// the deadlock detector cannot see a wait on a latch (§2.2). The
		// retry takes the latch again.
		unlatch := func() {
			ix.releaseTarget(target)
			ix.unfixLatched(leaf, latch.X)
			releaseTree()
		}
		locks, err := ix.deleteLocks(leaf, pos, key, target)
		if err != nil {
			unlatch()
			return err
		}
		waited, err := locks.take(tx, unlatch)
		if err != nil {
			return err
		}
		if waited {
			continue
		}
		ix.releaseTarget(target)

		// Page-emptying delete: page deletion SMO (under the tree X
		// latch, so any tree-S hold must go first).
		if leaf.Page.NSlots() == 1 {
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			releaseTree()
			finished, err := ix.deleteEmptyingLeaf(tx, leafID, key, nil)
			if err := ix.retryAfterSMO(tx, err); err != nil {
				return err
			}
			if finished {
				return nil
			}
			continue
		}

		// Boundary key: establish and hold a POSC (S tree latch) across
		// the delete.
		boundary := pos == 0 || pos == leaf.Page.NSlots()-1
		if boundary && heldTree == nil {
			if hold, ok := ix.treeTryS(); ok {
				heldTree = hold
			} else {
				// Never wait for the tree latch under a page latch.
				ix.unfixLatched(leaf, latch.X)
				heldTree = ix.treeAcquireS()
				continue // revalidate with the POSC held
			}
			ix.stats.DeleteBitPOSCs.Add(1)
		}

		pre := leaf.Page.Flags()
		post := pre | storage.FlagDeleteBit
		if boundary {
			// POSC in hand: the freed-space warning can be cleared (Fig 7).
			post = pre &^ storage.FlagDeleteBit
		}
		pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre, PostFlags: post,
			Cell: storage.EncodeLeafCell(key)}
		tx.ApplyUpdate(ix.pool, leaf, ApplyRedo, wal.OpIdxDeleteKey, pl.encode(), false)
		ix.unfixLatched(leaf, latch.X)
		releaseTree()
		return nil
	}
	return fmt.Errorf("core: delete from index %d did not stabilize", ix.cfg.ID)
}

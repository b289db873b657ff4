package core

import (
	"errors"
	"fmt"

	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Delete removes key from the index (Fig 7):
//
//  1. traverse (X-latching the leaf), waiting out SM_Bit;
//  2. X-lock the next key for commit duration — the "tripping point" other
//     transactions hit to discover the uncommitted delete (§2.6);
//  3. boundary keys (smallest/largest on the page): establish a point of
//     structural consistency by holding the tree latch in S across the
//     delete, so a restart-time logical undo never meets a tree made
//     unreachable by an unfinished SMO (§3, third reason);
//  4. a delete that would empty the page triggers the page-deletion SMO
//     (the key delete is logged first, outside the nested top action);
//  5. otherwise delete, log (setting Delete_Bit — cleared instead when a
//     POSC was just established), bump the page LSN.
//
// Under data-only locking the deleted key itself is not locked: the
// caller's record-manager X lock on the key's RID covers it.
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
		leaf, err := ix.traverse(tx, key, true)
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

		pos, err := leafLowerBound(leaf.Page, key)
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if pos >= leaf.Page.NSlots() {
			ix.unfixLatched(leaf, latch.X)
			return fmt.Errorf("%w: %s", ErrKeyNotFound, key)
		}
		k, err := leafKeyAt(leaf.Page, pos)
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if k.Compare(key) != 0 {
			ix.unfixLatched(leaf, latch.X)
			return fmt.Errorf("%w: %s", ErrKeyNotFound, key)
		}

		// Next-key lock: X for commit duration (Fig 2).
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
		if ix.cfg.Protocol == KVL {
			retry, err := ix.kvlDeleteLocks(tx, leaf, pos, key, target, target.val)
			if err != nil {
				return err
			}
			if retry {
				continue
			}
			ix.releaseTarget(target)
		} else {
			// System R additionally X-locks the leaf page to commit.
			if ix.cfg.Protocol == SystemR {
				name := ix.pageLockName(leaf.ID())
				if err := tx.Lock(name, lock.X, lock.Commit, true); err != nil {
					ix.releaseTarget(target)
					ix.unfixLatched(leaf, latch.X)
					if err := tx.Lock(name, lock.X, lock.Commit, false); err != nil {
						return err
					}
					continue
				}
			}
			if err := tx.Lock(target.name, lock.X, lock.Commit, true); err != nil {
				ix.releaseTarget(target)
				ix.unfixLatched(leaf, latch.X)
				if err := tx.Lock(target.name, lock.X, lock.Commit, false); err != nil {
					return err
				}
				continue
			}
			ix.releaseTarget(target)

			// Index-specific locking: instant X on the deleted key itself.
			if ix.cfg.Protocol == IndexSpecific || ix.cfg.Protocol == SystemR {
				own := ix.keyLockName(key)
				if err := tx.Lock(own, lock.X, lock.Instant, true); err != nil {
					ix.unfixLatched(leaf, latch.X)
					// Retained on the fallback path (see Insert): an
					// instant grant would evaporate before the retry.
					if err := tx.Lock(own, lock.X, lock.Commit, false); err != nil {
						return err
					}
					continue
				}
			}
		}

		// Page-emptying delete: page deletion SMO (under the tree X
		// latch, so any tree-S hold must go first).
		if leaf.Page.NSlots() == 1 {
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			releaseTree()
			finished, err := ix.deleteEmptyingLeaf(tx, leafID, key, nil)
			if err != nil {
				if !errors.Is(err, errSMOConflict) {
					retried, err := ix.handleSMOLockDenial(tx, err)
					if !retried {
						return err
					}
				}
				continue
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
			if ix.stats != nil {
				ix.stats.DeleteBitPOSCs.Add(1)
			}
		}

		pre := leaf.Page.Flags()
		post := pre | storage.FlagDeleteBit
		if boundary {
			// POSC in hand: the freed-space warning can be cleared (Fig 7).
			post = pre &^ storage.FlagDeleteBit
		}
		pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre, PostFlags: post,
			Cell: storage.EncodeLeafCell(k)}
		if _, err := ix.applyLogged(tx, leaf, wal.OpIdxDeleteKey, pl.encode(), false, func() error {
			if _, derr := leaf.Page.DeleteCellAt(pos); derr != nil {
				return derr
			}
			leaf.Page.SetFlags(post)
			return nil
		}); err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		ix.unfixLatched(leaf, latch.X)
		releaseTree()
		return nil
	}
	return fmt.Errorf("core: delete from index %d did not stabilize", ix.cfg.ID)
}

// InsertKeyOpPayloadForTest exposes the key-op codec to white-box tests in
// sibling packages (log-sequence assertions for Figs 9 and 10).
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

// IndexIDOfPayload extracts the index ID from any core payload (undo
// routing and tests).
func IndexIDOfPayload(rec *wal.Record) (uint32, error) { return indexIDOf(rec.Payload) }

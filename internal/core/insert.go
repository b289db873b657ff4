package core

import (
	"errors"
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// nextKeyTarget is the object of a next-key lock: the key (or EOF) that
// currently follows a position in the index.
type nextKeyTarget struct {
	name  lock.Name
	val   []byte        // the next key's value (nil when EOF); cloned
	extra *buffer.Frame // latched next leaf, if the next key lives there
}

// nextKeyFrom resolves the next key at position pos of the X-latched leaf,
// crossing to the right sibling if needed (the sibling is S-latched while
// the leaf latch is held — the paper's two-latch maximum). restart=true
// means an SMO transient (empty or mutating sibling) was met: the caller
// must release everything and wait for the SMO.
func (ix *Index) nextKeyFrom(leaf *buffer.Frame, pos int) (t nextKeyTarget, restart bool, err error) {
	if pos < leaf.Page.NSlots() {
		k, err := leafKeyAt(leaf.Page, pos)
		if err != nil {
			return t, false, err
		}
		return nextKeyTarget{name: ix.keyLockName(k), val: append([]byte(nil), k.Val...)}, false, nil
	}
	next := leaf.Page.Next()
	if next == storage.InvalidPageID {
		return nextKeyTarget{name: ix.eofLockName()}, false, nil
	}
	nf, err := ix.fixLatched(next, latch.S)
	if err != nil {
		return t, false, err
	}
	if nf.Page.Type() != storage.PageTypeIndex || !nf.Page.IsLeaf() || nf.Page.NSlots() == 0 {
		// A sibling in SMO flux; wait rather than chain further (keeps the
		// two-latch bound).
		ix.unfixLatched(nf, latch.S)
		return t, true, nil
	}
	k, err := leafKeyAt(nf.Page, 0)
	if err != nil {
		ix.unfixLatched(nf, latch.S)
		return t, false, err
	}
	return nextKeyTarget{name: ix.keyLockName(k), val: append([]byte(nil), k.Val...), extra: nf}, false, nil
}

func (ix *Index) releaseTarget(t nextKeyTarget) {
	if t.extra != nil {
		ix.unfixLatched(t.extra, latch.S)
	}
}

// Insert adds key to the index (Fig 6 plus the §2.4 unique-index logic):
//
//  1. traverse (X-latching the leaf), waiting out SM_Bit / Delete_Bit;
//  2. unique indexes: if the key value exists, S-lock it for commit
//     duration — a grant with the value still present is a repeatable
//     unique-violation; a denial means an uncommitted insert/delete, so
//     wait and revalidate;
//  3. X-lock the next key for instant duration (phantom protection and,
//     for unique indexes, detection of an uncommitted delete of the same
//     value) — conditionally under the latch, else the release/wait/
//     revalidate protocol;
//  4. split if there is no room (the insert resumes only after the split
//     SMO has fully propagated and its dummy CLR is logged);
//  5. insert the key, log it (undo-redo), bump the page LSN.
//
// Under data-only locking the key itself is not locked here: the caller's
// record-manager X lock on the RID inside the key is the key lock.
func (ix *Index) Insert(tx *txn.Tx, key storage.Key) error {
	cell := storage.EncodeLeafCell(key)
	if len(cell) > storage.PageCapacity(ix.pool.PageSize())/4 {
		return fmt.Errorf("core: key of %d bytes exceeds the quarter-page bound", len(key.Val))
	}
	var spin struct{ quiesce, unique, nextRestart, nextLock, ownLock, split, pageLock int }
	for attempt := 0; attempt < maxRestarts; attempt++ {
		leaf, err := ix.traverse(tx, key, true)
		if err != nil {
			return err
		}
		done, err := ix.awaitLeafQuiescent(tx, leaf, true)
		if err != nil {
			return err
		}
		if !done {
			spin.quiesce++
			continue
		}

		if ix.cfg.Unique {
			dup, retry, err := ix.uniqueCheck(tx, leaf, key)
			if err != nil {
				return err
			}
			if retry {
				spin.unique++
				continue
			}
			if dup {
				return ErrDuplicate
			}
		}

		pos, err := leafLowerBound(leaf.Page, key)
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if pos < leaf.Page.NSlots() {
			k, err := leafKeyAt(leaf.Page, pos)
			if err != nil {
				ix.unfixLatched(leaf, latch.X)
				return err
			}
			if k.Compare(key) == 0 {
				ix.unfixLatched(leaf, latch.X)
				return fmt.Errorf("%w: full key %s already present", ErrDuplicate, key)
			}
		}

		// Next-key lock: X for instant duration (Fig 2).
		target, restart, err := ix.nextKeyFrom(leaf, pos)
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		if restart {
			spin.nextRestart++
			ix.unfixLatched(leaf, latch.X)
			ix.treeWaitInstantS()
			continue
		}
		if ix.cfg.Protocol == KVL {
			retry, err := ix.kvlInsertLocks(tx, leaf, pos, key, target, target.val)
			if err != nil {
				return err
			}
			if retry {
				spin.nextLock++
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
					spin.pageLock++
					continue
				}
			}
			if err := tx.Lock(target.name, lock.X, lock.Instant, true); err != nil {
				ix.releaseTarget(target)
				ix.unfixLatched(leaf, latch.X)
				// The unconditional fallback RETAINS the lock (commit
				// duration): an instant grant would evaporate before the
				// revalidation retry, and under sustained contention the
				// conditional retry could lose the race forever. Holding
				// the lock is conservative and makes the retry converge —
				// the next iteration's conditional request is satisfied by
				// our own holding if the next key is unchanged.
				if err := tx.Lock(target.name, lock.X, lock.Commit, false); err != nil {
					return err
				}
				spin.nextLock++
				continue // revalidate: the next key may have changed meanwhile
			}
			ix.releaseTarget(target)

			// Index-specific locking also X-locks the inserted key itself
			// for commit duration (Fig 2's right column).
			if ix.cfg.Protocol == IndexSpecific || ix.cfg.Protocol == SystemR {
				own := ix.keyLockName(key)
				if err := tx.Lock(own, lock.X, lock.Commit, true); err != nil {
					ix.unfixLatched(leaf, latch.X)
					if err := tx.Lock(own, lock.X, lock.Commit, false); err != nil {
						return err
					}
					spin.ownLock++
					continue
				}
			}
		}

		if !leaf.Page.HasRoomFor(len(cell)) {
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			if err := ix.SplitForInsert(tx, leafID, len(cell)); err != nil {
				if !errors.Is(err, errSMOConflict) {
					retried, err := ix.handleSMOLockDenial(tx, err)
					if !retried {
						return err
					}
				}
			}
			spin.split++
			continue // Fig 8: the insert happens only after the SMO completes
		}

		pre := leaf.Page.Flags()
		pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre, PostFlags: pre, Cell: cell}
		if _, err := ix.applyLogged(tx, leaf, wal.OpIdxInsertKey, pl.encode(), false, func() error {
			return leaf.Page.InsertCellAt(pos, cell)
		}); err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
		ix.unfixLatched(leaf, latch.X)
		return nil
	}
	return fmt.Errorf("core: insert into index %d did not stabilize (retries: quiesce=%d unique=%d nextRestart=%d nextLock=%d ownLock=%d split=%d pageLock=%d)",
		ix.cfg.ID, spin.quiesce, spin.unique, spin.nextRestart, spin.nextLock, spin.ownLock, spin.split, spin.pageLock)
}

// uniqueCheck looks for an existing instance of key's value. It returns
// dup=true when a committed (or own) instance exists — with a commit-
// duration S lock held so the violation is repeatable (§2.4). retry=true
// means latches were released to wait on a lock and the caller must
// re-traverse. On (false,false) the leaf latch is still held.
func (ix *Index) uniqueCheck(tx *txn.Tx, leaf *buffer.Frame, key storage.Key) (dup, retry bool, err error) {
	probe := storage.MinKeyFor(key.Val)
	pos, err := leafLowerBound(leaf.Page, probe)
	if err != nil {
		ix.unfixLatched(leaf, latch.X)
		return false, false, err
	}
	var existing storage.Key
	var have bool
	var extra *buffer.Frame
	if pos < leaf.Page.NSlots() {
		k, kerr := leafKeyAt(leaf.Page, pos)
		if kerr != nil {
			ix.unfixLatched(leaf, latch.X)
			return false, false, kerr
		}
		if string(k.Val) == string(key.Val) {
			existing, have = k, true
		}
	} else if next := leaf.Page.Next(); next != storage.InvalidPageID {
		nf, ferr := ix.fixLatched(next, latch.S)
		if ferr != nil {
			ix.unfixLatched(leaf, latch.X)
			return false, false, ferr
		}
		if nf.Page.Type() == storage.PageTypeIndex && nf.Page.IsLeaf() && nf.Page.NSlots() > 0 {
			k, kerr := leafKeyAt(nf.Page, 0)
			if kerr != nil {
				ix.unfixLatched(nf, latch.S)
				ix.unfixLatched(leaf, latch.X)
				return false, false, kerr
			}
			if string(k.Val) == string(key.Val) {
				existing, have, extra = k, true, nf
			}
		}
		if !have {
			ix.unfixLatched(nf, latch.S)
		}
	}
	if !have {
		return false, false, nil
	}
	name := ix.keyLockName(existing)
	if err := tx.Lock(name, lock.S, lock.Commit, true); err == nil {
		if extra != nil {
			ix.unfixLatched(extra, latch.S)
		}
		ix.unfixLatched(leaf, latch.X)
		return true, false, nil
	}
	// The instance is locked (uncommitted insert by another transaction):
	// wait, then re-traverse and re-check whether it survived.
	if extra != nil {
		ix.unfixLatched(extra, latch.S)
	}
	ix.unfixLatched(leaf, latch.X)
	if err := tx.Lock(name, lock.S, lock.Commit, false); err != nil {
		return false, false, err
	}
	return false, true, nil
}

package core

import (
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
//  3. take Figure 2's INSERT row (insertLocks: the next key X for instant
//     duration) under the latch, revalidating if a lock had to be waited
//     for;
//  4. split if there is no room (the insert resumes only after the split
//     SMO has fully propagated and its dummy CLR is logged);
//  5. insert the key, log it (undo-redo), bump the page LSN.
func (ix *Index) Insert(tx *txn.Tx, key storage.Key) error {
	cell := storage.EncodeLeafCell(key)
	if len(cell) > storage.PageCapacity(ix.pool.PageSize())/4 {
		return fmt.Errorf("core: key of %d bytes exceeds the quarter-page bound", len(key.Val))
	}
	var spin struct{ quiesce, unique, nextRestart, lock, split int }
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

		pos, present, err := leafFind(leaf.Page, key)
		if err == nil && present {
			err = fmt.Errorf("%w: full key %s already present", ErrDuplicate, key)
		}
		if err != nil {
			ix.unfixLatched(leaf, latch.X)
			return err
		}
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
		unlatch := func() {
			ix.releaseTarget(target)
			ix.unfixLatched(leaf, latch.X)
		}
		locks, err := ix.insertLocks(leaf, pos, key, target)
		if err != nil {
			unlatch()
			return err
		}
		waited, err := locks.take(tx, unlatch)
		if err != nil {
			return err
		}
		if waited {
			spin.lock++
			continue // revalidate: the next key may have changed meanwhile
		}
		ix.releaseTarget(target)

		if !leaf.Page.HasRoomFor(len(cell)) {
			leafID := leaf.ID()
			ix.unfixLatched(leaf, latch.X)
			if err := ix.retryAfterSMO(tx, ix.SplitForInsert(tx, leafID, len(cell))); err != nil {
				return err
			}
			spin.split++
			continue // Fig 8: the insert happens only after the SMO completes
		}

		pre := leaf.Page.Flags()
		pl := keyOpPayload{Index: ix.cfg.ID, Pos: uint16(pos), PreFlags: pre, PostFlags: pre, Cell: cell}
		tx.ApplyUpdate(ix.pool, leaf, ApplyRedo, wal.OpIdxInsertKey, pl.encode(), false)
		ix.unfixLatched(leaf, latch.X)
		return nil
	}
	return fmt.Errorf("core: insert into index %d did not stabilize (retries: quiesce=%d unique=%d nextRestart=%d lock=%d split=%d)",
		ix.cfg.ID, spin.quiesce, spin.unique, spin.nextRestart, spin.lock, spin.split)
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
	// S commit on the instance: granted at once, the violation is repeatable;
	// denied, it is an uncommitted insert (or delete) by another transaction
	// — wait, then re-traverse and re-check whether it survived.
	unlatch := func() {
		if extra != nil {
			ix.unfixLatched(extra, latch.S)
		}
		ix.unfixLatched(leaf, latch.X)
	}
	waited, err := tx.LockLatched(ix.keyLockName(existing), lock.S, lock.Commit, unlatch)
	if !waited {
		unlatch()
	}
	return !waited, waited && err == nil, err
}

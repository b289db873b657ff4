// Latch-only fetch variants for MVCC snapshot readers: identical tree
// positioning to Fetch/FetchNext (latch-coupled descent, Fig 4 ambiguity
// handling, leaf-chain walks, LSN-validated fetch-next) but with zero
// lock-manager calls — the snapshot's version-store visibility check
// replaces key locks entirely. The paper's "readers not blocked by SMOs"
// guarantee carries over unchanged because it lives in the latch
// protocol, not the locks.
package core

import (
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// maxNoLockAmbiguity bounds ambiguity retries on the lock-free path. A
// live SMO clears in a handful of instant-latch waits; exhausting the
// bound means the SM_Bit is stale (a crash leftover) and resetting it
// requires a logging transaction the reader does not have — the caller
// resolves via ResolveStaleSMBit with a housekeeping transaction.
const maxNoLockAmbiguity = 64

// AmbiguityError reports a traversal pinned on a page whose SM_Bit never
// cleared. Readers without a transaction cannot reset the bit (the reset
// is a logged page update); the db layer clears it out-of-band.
type AmbiguityError struct{ Page storage.PageID }

func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("core: traversal ambiguous at page %d (stale SM_Bit?)", e.Page)
}

// ResolveStaleSMBit clears a stale SM_Bit on behalf of a latch-only
// reader, using a real (logging) housekeeping transaction. It is the
// Fig 8 "resets are optional" cleanup, deferred to whoever trips over
// the bit after a crash.
func (ix *Index) ResolveStaleSMBit(tx *txn.Tx, pid storage.PageID) {
	ix.clearStaleSMBit(tx, pid)
}

// traverseNoLock descends to the leaf covering probe without a
// transaction: descend never consults its tx argument, and the ambiguity
// wait is an instant acquisition of the tree latch.
func (ix *Index) traverseNoLock(probe storage.Key) (*buffer.Frame, error) {
	if ix.stats != nil {
		ix.stats.Traversals.Add(1)
	}
	ambiguous := storage.InvalidPageID
	for attempt := 0; attempt < maxNoLockAmbiguity; attempt++ {
		f, amb, err := ix.descend(nil, probe, false)
		if err != nil {
			return nil, err
		}
		if amb == storage.InvalidPageID {
			return f, nil
		}
		ambiguous = amb
		if ix.stats != nil {
			ix.stats.AmbiguityRestarts.Add(1)
		}
		ix.treeWaitInstantS()
	}
	return nil, &AmbiguityError{Page: ambiguous}
}

// fetchFromNoLock positions at the first key >= probe with latches only.
func (ix *Index) fetchFromNoLock(probe storage.Key, accept func(storage.Key) bool) (FetchResult, *Cursor, error) {
	leaf, err := ix.traverseNoLock(probe)
	if err != nil {
		return FetchResult{}, nil, err
	}
	fnd, err := ix.findFrom(leaf, probe)
	if err != nil {
		return FetchResult{}, nil, err
	}
	cur := &Cursor{}
	return ix.sealFound(fnd, accept, cur), cur, nil
}

// FetchNoLock is Fetch without locks: position at (val, op), report the
// outcome, return a cursor. Only snapshot readers may call it — the
// result is not protected against concurrent writers; the caller's
// version-store check supplies the isolation.
func (ix *Index) FetchNoLock(val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	return ix.fetchFromNoLock(probeFor(val, op), acceptFor(val, op))
}

// FetchNextNoLock advances a latch-only scan exactly like FetchNext: the
// next slot of an unchanged leaf, else a lock-free descent.
func (ix *Index) FetchNextNoLock(c *Cursor) (FetchResult, error) {
	if c.ix != ix {
		return FetchResult{}, fmt.Errorf("core: cursor belongs to index %d", c.ix.cfg.ID)
	}
	if c.eof {
		return FetchResult{EOF: true}, nil
	}
	fnd, err := ix.step(c, ix.traverseNoLock)
	if err != nil {
		return FetchResult{}, err
	}
	return ix.sealFound(fnd, acceptAny, c), nil
}

// FetchPrefixNoLock is FetchPrefix without locks.
func (ix *Index) FetchPrefixNoLock(prefix []byte) (FetchResult, *Cursor, error) {
	return ix.fetchFromNoLock(storage.MinKeyFor(prefix), func(k storage.Key) bool {
		return len(k.Val) >= len(prefix) && string(k.Val[:len(prefix)]) == string(prefix)
	})
}

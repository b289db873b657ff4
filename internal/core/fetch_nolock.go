// Latch-only fetch variants for MVCC snapshot readers: the same tree
// positioning as Fetch/FetchNext (one traverse, leaf-chain walks,
// LSN-validated fetch-next) but with zero lock-manager calls — the
// snapshot's version-store visibility check replaces key locks entirely.
// The paper's "readers not blocked by SMOs" guarantee carries over
// unchanged because it lives in the latch protocol, not the locks.
package core

import (
	"fmt"
)

// FetchNoLock is Fetch without locks: position at (val, op), report the
// outcome, return a cursor. Only snapshot readers may call it — the
// result is not protected against concurrent writers; the caller's
// version-store check supplies the isolation.
func (ix *Index) FetchNoLock(val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	probe := probeFor(val, op)
	leaf, err := ix.traverse(probe, false)
	if err != nil {
		return FetchResult{}, nil, err
	}
	fnd, err := ix.findFrom(leaf, probe)
	if err != nil {
		return FetchResult{}, nil, err
	}
	cur := &Cursor{}
	return ix.sealFound(fnd, acceptFor(val, op), cur), cur, nil
}

// FetchNextNoLock advances a latch-only scan exactly like FetchNext: the
// next slot of an unchanged leaf, else a descent.
func (ix *Index) FetchNextNoLock(c *Cursor) (FetchResult, error) {
	if c.ix != ix {
		return FetchResult{}, fmt.Errorf("core: cursor belongs to index %d", c.ix.cfg.ID)
	}
	if c.eof {
		return FetchResult{EOF: true}, nil
	}
	fnd, err := ix.step(c)
	if err != nil {
		return FetchResult{}, err
	}
	return ix.sealFound(fnd, acceptAny, c), nil
}

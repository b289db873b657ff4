package core

import (
	"fmt"

	"ariesim/internal/buffer"
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// SearchOp is the starting condition of a Fetch (paper §1.1: =, >=, >).
type SearchOp int

const (
	// EQ fetches the key equal to the value (not-found locks the next key).
	EQ SearchOp = iota
	// GE fetches the smallest key >= the value.
	GE
	// GT fetches the smallest key > the value.
	GT
)

func (o SearchOp) String() string {
	switch o {
	case EQ:
		return "="
	case GE:
		return ">="
	default:
		return ">"
	}
}

// FetchResult reports a fetch outcome. Key is meaningful when Found; on
// not-found with a higher key present, Key holds that next key (the one
// whose lock now protects the not-found observation).
type FetchResult struct {
	Key   storage.Key
	Found bool
	// EOF reports that the search ran off the right edge of the index and
	// the observation is protected by the index's EOF lock.
	EOF bool
}

// Cursor is an open range scan position: the leaf, its LSN at positioning
// time, the slot, and the (cloned) current key. FetchNext revalidates via
// the LSN: unchanged, the next key is the next slot; changed, the scan
// repositions through the root (§2.3).
type Cursor struct {
	ix   *Index
	leaf storage.PageID
	lsn  uint64
	pos  int
	key  storage.Key
	eof  bool
}

// Key returns the cursor's current key.
func (c *Cursor) Key() storage.Key { return c.key }

// EOF reports that the cursor ran off the index.
func (c *Cursor) EOF() bool { return c.eof }

// found is an internal positioning result: the S-latched frame holding the
// located key, or eof.
type found struct {
	frame *buffer.Frame
	pos   int
	key   storage.Key // aliases the page; clone before unlatching
	eof   bool
}

// findFrom locates the first key >= probe starting at the S-latched leaf,
// walking the forward chain with latch coupling as needed. On eof the
// input latch is released; otherwise the returned frame (possibly a
// different leaf) is S-latched.
func (ix *Index) findFrom(leaf *buffer.Frame, probe storage.Key) (found, error) {
	cur := leaf
	for hop := 0; hop < maxRestarts; hop++ {
		pos, err := leafLowerBound(cur.Page, probe)
		if err != nil {
			ix.unfixLatched(cur, latch.S)
			return found{}, err
		}
		if pos < cur.Page.NSlots() {
			k, err := leafKeyAt(cur.Page, pos)
			if err != nil {
				ix.unfixLatched(cur, latch.S)
				return found{}, err
			}
			return found{frame: cur, pos: pos, key: k}, nil
		}
		next := cur.Page.Next()
		if next == storage.InvalidPageID {
			ix.unfixLatched(cur, latch.S)
			return found{eof: true}, nil
		}
		nf, err := ix.fixLatched(next, latch.S)
		if err != nil {
			ix.unfixLatched(cur, latch.S)
			return found{}, err
		}
		ix.unfixLatched(cur, latch.S)
		cur = nf
	}
	ix.unfixLatched(cur, latch.S)
	return found{}, fmt.Errorf("core: leaf chain walk did not terminate")
}

// probeFor maps (value, op) to the full-key search probe.
func probeFor(val []byte, op SearchOp) storage.Key {
	if op == GT {
		return storage.MaxKeyFor(val)
	}
	return storage.MinKeyFor(val)
}

// probeAfter is the smallest full key strictly greater than k.
func probeAfter(k storage.Key) storage.Key {
	rid := k.RID
	if rid.Slot != ^uint16(0) {
		rid.Slot++
	} else {
		rid.Page++
		rid.Slot = 0
	}
	return storage.Key{Val: k.Val, RID: rid}
}

// Fetch implements the Fig 5 action routine: position at the requested or
// next higher key, S-lock it for commit duration while holding the leaf
// latch (conditionally; on denial release latches, wait, revalidate by
// re-descending), and report found / not-found / EOF. The returned cursor
// supports FetchNext range scans.
func (ix *Index) Fetch(tx *txn.Tx, val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	return ix.fetchFrom(tx, probeFor(val, op), lock.S, lock.Commit, acceptFor(val, op))
}

// FetchForUpdate is Fetch with the located key locked X for commit
// duration up front: the positioning half of a delete or update. Taking X
// directly — instead of fetching S and upgrading during the delete —
// avoids the classic conversion deadlock where two updaters of the same
// key both hold S and each waits for the other to release it.
func (ix *Index) FetchForUpdate(tx *txn.Tx, val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	return ix.fetchFrom(tx, probeFor(val, op), lock.X, lock.Commit, acceptFor(val, op))
}

// acceptFor decides whether a located key satisfies (val, op).
func acceptFor(val []byte, op SearchOp) func(storage.Key) bool {
	return func(k storage.Key) bool {
		if op != EQ {
			return true
		}
		return string(k.Val) == string(val)
	}
}

// fetchFrom positions at the first key >= probe and locks the outcome in
// mode for dur. accept decides whether the located key counts as "found".
func (ix *Index) fetchFrom(tx *txn.Tx, probe storage.Key, mode lock.Mode, dur lock.Duration, accept func(storage.Key) bool) (FetchResult, *Cursor, error) {
	cur := &Cursor{}
	for attempt := 0; attempt < maxRestarts; attempt++ {
		leaf, err := ix.traverse(probe, false)
		if err != nil {
			return FetchResult{}, nil, err
		}
		fnd, err := ix.findFrom(leaf, probe)
		if err != nil {
			return FetchResult{}, nil, err
		}
		res, done, err := ix.lockPositioned(tx, fnd, mode, dur, accept, cur)
		if err != nil {
			return FetchResult{}, nil, err
		}
		if done {
			return res, cur, nil
		}
	}
	return FetchResult{}, nil, fmt.Errorf("core: fetch on index %d did not stabilize", ix.cfg.ID)
}

// lockPositioned takes Figure 2's FETCH row (fetchLocks) on a positioning
// outcome while its leaf is latched, then seals the outcome into c. done=false
// means a lock had to be waited for with the latch dropped and the caller
// must reposition (the lock waited for is retained; §2.2); c is then
// untouched. A manual-duration lock — cursor stability — is given back
// before returning either way, unless the transaction held the name already
// (a key it wrote stays locked).
func (ix *Index) lockPositioned(tx *txn.Tx, fnd found, mode lock.Mode, dur lock.Duration, accept func(storage.Key) bool, c *Cursor) (FetchResult, bool, error) {
	locks := ix.fetchLocks(fnd, mode, dur)
	if name := locks.req[0].name; dur == lock.Manual && !tx.HoldsLock(name) {
		defer tx.Unlock(name)
	}
	waited, err := locks.take(tx, func() {
		if !fnd.eof {
			ix.unfixLatched(fnd.frame, latch.S)
		}
	})
	if waited || err != nil {
		return FetchResult{}, false, err
	}
	return ix.sealFound(fnd, accept, c), true, nil
}

// sealFound clones the outcome into a result and the cursor c, and
// releases the latch.
func (ix *Index) sealFound(fnd found, accept func(storage.Key) bool, c *Cursor) FetchResult {
	if fnd.eof {
		*c = Cursor{ix: ix, eof: true}
		return FetchResult{EOF: true}
	}
	k := fnd.key.Clone()
	*c = Cursor{ix: ix, leaf: fnd.frame.ID(), lsn: fnd.frame.Page.LSN(), pos: fnd.pos, key: k}
	ix.unfixLatched(fnd.frame, latch.S)
	return FetchResult{Key: k, Found: accept(k)}
}

// acceptAny counts every located key as found: a scan's next key.
func acceptAny(storage.Key) bool { return true }

// step positions past the cursor's key (§2.3). If the remembered leaf's LSN
// still matches, nothing on it has moved: the next key is the next slot,
// or — past the leaf's last slot — the first key of a right neighbour.
// Otherwise the leaf changed under the cursor and a traverse repositions
// from the root. The returned frame is S-latched unless the outcome is eof.
func (ix *Index) step(c *Cursor) (found, error) {
	f, err := ix.fixLatched(c.leaf, latch.S)
	if err != nil {
		return found{}, err
	}
	if f.Page.Type() == storage.PageTypeIndex && f.Page.IsLeaf() && f.Page.LSN() == c.lsn {
		if pos := c.pos + 1; pos < f.Page.NSlots() {
			k, err := leafKeyAt(f.Page, pos)
			if err != nil {
				ix.unfixLatched(f, latch.S)
				return found{}, err
			}
			return found{frame: f, pos: pos, key: k}, nil
		}
		return ix.findFrom(f, probeAfter(c.key))
	}
	ix.stats.LeafReposition.Add(1)
	ix.unfixLatched(f, latch.S)
	probe := probeAfter(c.key)
	leaf, err := ix.traverse(probe, false)
	if err != nil {
		return found{}, err
	}
	return ix.findFrom(leaf, probe)
}

// FetchNext advances an open scan to the next key (§2.3) — the adjacent
// slot when the cursor's leaf is unchanged, else the first key greater than
// the cursor's after a descent — and locks it like a Fetch.
func (ix *Index) FetchNext(tx *txn.Tx, c *Cursor) (FetchResult, error) {
	if c.ix != ix {
		return FetchResult{}, fmt.Errorf("core: cursor belongs to index %d", c.ix.cfg.ID)
	}
	if c.eof {
		return FetchResult{EOF: true}, nil
	}
	for attempt := 0; attempt < maxRestarts; attempt++ {
		fnd, err := ix.step(c)
		if err != nil {
			return FetchResult{}, err
		}
		res, done, err := ix.lockPositioned(tx, fnd, lock.S, lock.Commit, acceptAny, c)
		if err != nil {
			return FetchResult{}, err
		}
		if done {
			return res, nil
		}
	}
	return FetchResult{}, fmt.Errorf("core: fetch-next on index %d did not stabilize", ix.cfg.ID)
}

// FetchPrefix positions at the first key whose value starts with prefix
// (the paper's §1.1 "partial key value" starting condition). Found is true
// when such a key exists; otherwise the next higher key (or EOF) is locked
// exactly as in Fetch, so the absence is repeatable.
func (ix *Index) FetchPrefix(tx *txn.Tx, prefix []byte) (FetchResult, *Cursor, error) {
	return ix.fetchFrom(tx, storage.MinKeyFor(prefix), lock.S, lock.Commit, func(k storage.Key) bool {
		return len(k.Val) >= len(prefix) && string(k.Val[:len(prefix)]) == string(prefix)
	})
}

// FetchCS is a cursor-stability (degree 2) fetch: the current key is
// locked in S for manual duration and released before returning, so the
// read observes only committed data but does not inhibit later writers.
// Keys the transaction itself wrote (already X-locked) stay locked.
func (ix *Index) FetchCS(tx *txn.Tx, val []byte, op SearchOp) (FetchResult, error) {
	res, _, err := ix.fetchFrom(tx, probeFor(val, op), lock.S, lock.Manual, acceptFor(val, op))
	return res, err
}

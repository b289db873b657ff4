package core

import (
	"errors"
	"fmt"
	"hash/fnv"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
)

// The locking policy. Which locks an index operation takes is the paper's
// Figure 2 — one table, below: fetchLocks, insertLocks and deleteLocks each
// return its row for the index's Protocol and the position in hand, in
// request order. How a lock is taken while latches are held is §2.2's rule,
// txn.Tx.LockLatched, which lockSet.take applies to a row. Nothing outside
// this file looks at the Protocol.
//
// The paper's efficiency claims are comparative: ARIES/IM acquires fewer
// locks than ARIES/KVL (which locks key values, §1) and far fewer than
// System R (whose single-record operations acquire "very high" lock counts
// and whose SMOs hold locks to end of transaction). So both baselines run on
// the same B+-tree mechanics with only the rows of the table swapped, and a
// lock-count or throughput comparison isolates exactly the protocol.

// Protocol selects how index keys are locked (paper §2.1).
type Protocol uint8

const (
	// DataOnly is ARIES/IM's headline design: the lock of a key is the
	// lock on the corresponding record (the RID inside the key). Key
	// inserts/deletes need no current-key lock because the record manager
	// already holds the record X lock, and fetches lock the key so the
	// record manager need not re-lock the record.
	DataOnly Protocol = iota
	// IndexSpecific locks key values within the index (Fig 2's "if
	// index-specific locking is used" column): slightly more concurrency
	// in some interleavings, strictly more lock calls.
	IndexSpecific
	// KVL is the ARIES/KVL baseline — "ARIES/KVL: A Key-Value Locking
	// Method for Concurrency Control of Multiaction Transactions Operating
	// on B-Tree Indexes" (Mohan, VLDB 1990), the method §1 positions
	// ARIES/IM against. Locks name VALUES, so all instances of one value in
	// a nonunique index conflict on a single lock — the concurrency loss §1
	// calls out ("locks are acquired on key values, rather than on
	// individual keys") — and the record manager's record locks are still
	// required on top, which is why KVL's lock count per single-record
	// operation exceeds ARIES/IM's.
	KVL
	// SystemR is the System R-style baseline, reconstructed from the
	// paper's characterization ("the number of locks acquired for even
	// single record operations ... is very high"; SMO effects locked to end
	// of transaction) and from [Moha90a]'s account of the System R
	// protocols: index-specific key-value locks plus commit-duration index
	// PAGE locks — S on every leaf a fetch reads, X on every leaf an
	// insert/delete modifies and on every page a structure modification
	// touches (smoPageLock). The page locks make its SMOs serialization
	// points: until the splitter commits, readers of the split pages and
	// other splitters of the same parent block — the behavior ARIES/IM's
	// latch-only SMOs eliminate (§2.1, §5).
	SystemR
)

func (p Protocol) String() string {
	switch p {
	case IndexSpecific:
		return "index-specific"
	case KVL:
		return "aries-kvl"
	case SystemR:
		return "system-r"
	default:
		return "data-only"
	}
}

// KeyLockIsRecordLock reports whether a key's lock is the lock on the
// record it points to — ARIES/IM's data-only locking. Then the record
// manager need not lock a record an index fetch located, and a loser's locks
// can be rebuilt from the RIDs in its log records (online restart); under
// every other protocol "the record manager would have to do that locking
// also" (§2.1).
func (p Protocol) KeyLockIsRecordLock() bool { return p == DataOnly }

// keyLockName names the lock protecting key k. Under data-only locking it
// is the record lock (the paper's central trick); under every other
// protocol it is a key-value lock within this index.
func (ix *Index) keyLockName(k storage.Key) lock.Name {
	if ix.cfg.Protocol.KeyLockIsRecordLock() {
		return lock.DataLockName(ix.cfg.Granularity, uint64(k.RID.Page), k.RID.Slot)
	}
	return ix.kvName(k.Val)
}

// kvName is the key-value lock for a value in this index.
func (ix *Index) kvName(val []byte) lock.Name {
	h := fnv.New64a()
	_, _ = h.Write(val)
	return lock.KeyValueName(uint64(ix.cfg.ID), h.Sum64())
}

// eofLockName names the end-of-file lock used as the "next key" when a
// key-range operation runs past the highest key in the index (paper §2.2).
func (ix *Index) eofLockName() lock.Name { return lock.EOFName(uint64(ix.cfg.ID)) }

// pageLockName is the index-page lock (System R style).
func (ix *Index) pageLockName(pid storage.PageID) lock.Name {
	return lock.IndexPageName(uint64(ix.cfg.ID), uint64(pid))
}

// lockReq is one cell of Figure 2: a lock, its mode and its duration.
type lockReq struct {
	name lock.Name
	mode lock.Mode
	dur  lock.Duration
}

// lockSet is one row of Figure 2: what an operation requests, in order. It
// is a value (no protocol asks for more than three), so a row costs its
// operation no allocation.
type lockSet struct {
	n   int
	req [3]lockReq
}

func row(reqs ...lockReq) (s lockSet) {
	s.n = copy(s.req[:], reqs)
	return s
}

// take requests the row's locks under the latches that unlatch releases.
// waited=true means a request was denied, unlatch ran and the lock was
// waited for (err is that wait's outcome): the caller revalidates from the
// root.
func (s lockSet) take(tx *txn.Tx, unlatch func()) (waited bool, err error) {
	for _, r := range s.req[:s.n] {
		if waited, err = tx.LockLatched(r.name, r.mode, r.dur, unlatch); waited || err != nil {
			break
		}
	}
	return waited, err
}

// fetchLocks is Figure 2's FETCH and FETCH NEXT row: the current key — or,
// not found, the next one, or EOF — in mode (S; X for an updater's
// positioning fetch) for dur (commit; manual for cursor stability). System R
// readers also lock the leaf they found the key on, to commit.
func (ix *Index) fetchLocks(fnd found, mode lock.Mode, dur lock.Duration) lockSet {
	if fnd.eof {
		return row(lockReq{ix.eofLockName(), mode, dur})
	}
	cur := lockReq{ix.keyLockName(fnd.key), mode, dur}
	if ix.cfg.Protocol == SystemR && dur == lock.Commit {
		return row(cur, lockReq{ix.pageLockName(fnd.frame.ID()), mode, lock.Commit})
	}
	return row(cur)
}

// insertLocks is Figure 2's INSERT row for key going in at pos of the
// X-latched leaf, next being the key that will follow it.
func (ix *Index) insertLocks(leaf *buffer.Frame, pos int, key storage.Key, next nextKeyTarget) (lockSet, error) {
	switch ix.cfg.Protocol {
	case IndexSpecific:
		// Fig 2's right column: the inserted key itself as well.
		return row(lockReq{next.name, lock.X, lock.Instant}, lockReq{ix.kvName(key.Val), lock.X, lock.Commit}), nil
	case KVL:
		// Another instance of a value already in the index: IX on the value
		// alone. A new value: IX instant on the next value, X on the new one.
		// (A duplicate hiding on the left sibling is taken for absent, which
		// chooses the stronger sequence — conservative, never unsafe.)
		exists, err := valueAt(leaf, pos-1, key.Val)
		if err == nil && !exists {
			exists, err = valueAt(leaf, pos, key.Val)
		}
		if err != nil {
			return lockSet{}, err
		}
		if exists {
			return row(lockReq{ix.kvName(key.Val), lock.IX, lock.Commit}), nil
		}
		return row(lockReq{next.name, lock.IX, lock.Instant}, lockReq{ix.kvName(key.Val), lock.X, lock.Commit}), nil
	case SystemR:
		// Index-specific, behind an X lock on the leaf page to commit.
		return row(lockReq{ix.pageLockName(leaf.ID()), lock.X, lock.Commit},
			lockReq{next.name, lock.X, lock.Instant}, lockReq{ix.kvName(key.Val), lock.X, lock.Commit}), nil
	default:
		// Data-only: X instant on the next key (phantom protection and, in a
		// unique index, the discovery of an uncommitted delete of the same
		// value). The key itself is not locked here: the caller's
		// record-manager X lock on the RID inside the key is the key lock.
		return row(lockReq{next.name, lock.X, lock.Instant}), nil
	}
}

// deleteLocks is Figure 2's DELETE row for the key at pos of the X-latched
// leaf, next being the key that follows it.
func (ix *Index) deleteLocks(leaf *buffer.Frame, pos int, key storage.Key, next nextKeyTarget) (lockSet, error) {
	switch ix.cfg.Protocol {
	case IndexSpecific:
		// Fig 2's right column: the deleted key itself as well, instant.
		return row(lockReq{next.name, lock.X, lock.Commit}, lockReq{ix.kvName(key.Val), lock.X, lock.Instant}), nil
	case KVL:
		// One of several instances of a value (a neighbor shares it): IX on
		// the value alone. The last one: X on the next value and on the
		// deleted one.
		several, err := valueAt(leaf, pos-1, key.Val)
		if err != nil {
			return lockSet{}, err
		}
		if several || next.val != nil && string(next.val) == string(key.Val) {
			return row(lockReq{ix.kvName(key.Val), lock.IX, lock.Commit}), nil
		}
		return row(lockReq{next.name, lock.X, lock.Commit}, lockReq{ix.kvName(key.Val), lock.X, lock.Commit}), nil
	case SystemR:
		// Index-specific, behind an X lock on the leaf page to commit.
		return row(lockReq{ix.pageLockName(leaf.ID()), lock.X, lock.Commit},
			lockReq{next.name, lock.X, lock.Commit}, lockReq{ix.kvName(key.Val), lock.X, lock.Instant}), nil
	default:
		// Data-only: X commit on the next key — the "tripping point" other
		// transactions hit to discover the uncommitted delete (§2.6). The
		// deleted key is covered by the caller's record lock.
		return row(lockReq{next.name, lock.X, lock.Commit}), nil
	}
}

// valueAt reports whether slot pos of the latched leaf exists and holds val.
func valueAt(leaf *buffer.Frame, pos int, val []byte) (bool, error) {
	if pos < 0 || pos >= leaf.Page.NSlots() {
		return false, nil
	}
	k, err := leafKeyAt(leaf.Page, pos)
	return err == nil && string(k.Val) == string(val), err
}

// smoLockDenied signals that a System R-style SMO page lock could not be
// granted while latches were held; the SMO must be abandoned, the lock
// awaited without latches, and the operation retried.
type smoLockDenied struct{ name lock.Name }

func (e *smoLockDenied) Error() string {
	return fmt.Sprintf("core: SMO page lock %v not grantable", e.name)
}

// smoPageLock acquires the commit-duration X lock System R-style SMOs hold
// on every index page they modify. A no-op for the other protocols. It is
// called while latches are held deep inside an SMO, so it must never block
// and cannot simply unlatch: denial surfaces as *smoLockDenied, the SMO is
// abandoned (rolled back page-oriented) and retryAfterSMO waits, so
// lock-latch deadlocks cannot arise.
func (ix *Index) smoPageLock(tx *txn.Tx, pid storage.PageID) error {
	if ix.cfg.Protocol != SystemR || tx.IsRollingBack() {
		return nil
	}
	name := ix.pageLockName(pid)
	if err := tx.Lock(name, lock.X, lock.Commit, true); err != nil {
		return &smoLockDenied{name: name}
	}
	return nil
}

// retryAfterSMO decides what the outcome of an SMO an operation needed means
// for the operation: nil — go round again — when it completed, when it was
// abandoned over a conflict with another SMO, and when it was abandoned over
// a page-lock denial, once that lock has been waited for (the partial SMO is
// rolled back and no latch is held, so the retry can make progress). Any
// other error ends the operation.
func (ix *Index) retryAfterSMO(tx *txn.Tx, err error) error {
	var denied *smoLockDenied
	switch {
	case err == nil || errors.Is(err, errSMOConflict):
		return nil
	case errors.As(err, &denied):
		return tx.Lock(denied.name, lock.X, lock.Commit, false)
	}
	return err
}

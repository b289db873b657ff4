// Snapshot reads: lock-free read-only transactions at snapshot isolation.
//
// A read-only transaction captures the version store's visibility
// watermark at begin and resolves every read with a pure commit-LSN
// comparison — zero lock-manager calls, no latching beyond buffer fixes.
// Writers cooperate by pushing a version per record mutation (see
// Table.Insert/Delete) before the mutation becomes reachable by key, and
// the commit path stamps those versions only after the commit record is
// durable, so a snapshot can never observe a torn or unforced commit.
//
// Per-key reader protocol (the chain-removal invariant makes it sound):
//
//  1. Consult the version chain; if one exists it is authoritative.
//  2. Otherwise capture the table's chain-removal sequence and probe the
//     page image latch-only (index descent + heap fetch, no locks).
//  3. Re-check the chain. If one appeared it is authoritative; if none
//     exists and the removal sequence is unchanged, the page value is
//     the committed state at the snapshot: any writer whose effect the
//     probe could have seen pushes a chain before its first
//     key-reachable mutation, an in-flight chain cannot be removed, and
//     a chain whose newest commit exceeds the snapshot cannot be removed
//     while the snapshot is registered — so "no chain across the whole
//     probe window" proves the page carried only commits <= snapshot.
//
// A scan runs the same protocol per cursor key without a second descent:
// it captures the sequence before each cursor step, the step is the probe's
// index half, and the heap is read at the RID the step returned
// (snapshotReadAt).
//
// During online restart recovery the store is empty while loser data may
// still sit in pages, so BeginReadOnly falls back to an ordinary locked
// transaction: the reinstated loser locks supply the isolation until the
// background undo finishes.
package db

import (
	"bytes"
	"errors"
	"fmt"

	"ariesim/internal/core"
	"ariesim/internal/lock"
	"ariesim/internal/mvcc"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// ErrSnapshotTooOld reports that a version this snapshot needed was pruned
// while the reader ran (a long reader under heavy churn on a capped
// chain). It is retryable — RunReadOnly repairs it with a fresh snapshot.
var ErrSnapshotTooOld = mvcc.ErrSnapshotTooOld

// ErrReadOnlyTxn reports a write attempted through a snapshot read-only
// transaction.
var ErrReadOnlyTxn = errors.New("db: write attempted in a read-only snapshot transaction")

// BeginReadOnly starts a read-only transaction. Normally it is a detached,
// non-logging transaction carrying a snapshot of the visibility watermark:
// its Get/Scan route to the lock-free MVCC path and it must be ended with
// EndReadOnly (never Commit/Rollback). While online restart recovery is
// still pending it degrades to an ordinary locked transaction (nil
// Snapshot) — the version store is empty then, and the reinstated loser
// locks protect readers from uncommitted restart data; EndReadOnly
// handles both shapes.
func (d *DB) BeginReadOnly() (*txn.Tx, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed {
		return nil, ErrCrashed
	}
	if d.recoveringLocked() {
		return d.tm.Begin(), nil
	}
	tx := d.tm.BeginDetached()
	s, id := d.vs.Begin()
	tx.SetSnapshot(txn.Snapshot{LSN: s, ID: id})
	return tx, nil
}

// EndReadOnly finishes a BeginReadOnly transaction: a snapshot reader
// retires its registration (unblocking version pruning); a locked
// fallback reader rolls back, which releases its S locks without paying
// a commit-record log force.
func (d *DB) EndReadOnly(tx *txn.Tx) error {
	if snap := tx.Snapshot(); snap != nil {
		d.mu.Lock()
		vs := d.vs
		d.mu.Unlock()
		// If the epoch changed under the reader this End is a no-op on
		// the successor store (snapshot IDs are process-global), and the
		// orphaned store's registration dies with it.
		vs.End(snap.ID)
		return nil
	}
	if err := tx.Rollback(); err != nil && !errors.Is(err, txn.ErrTxDone) {
		return err
	}
	return nil
}

// RunReadOnly executes fn as a read-only transaction with the same
// repair-and-retry discipline as RunTxn: contention-class errors (which
// include ErrSnapshotTooOld) are retried on a fresh snapshot after a
// backoff, crash-class errors wait for the restart, fatal errors surface.
func (d *DB) RunReadOnly(fn func(*txn.Tx) error) error {
	return d.RunReadOnlyWith(RunTxnOpts{}, fn)
}

// RunReadOnlyWith is RunReadOnly with explicit retry options (OnCommit /
// OnCommitted do not apply and are ignored).
func (d *DB) RunReadOnlyWith(opts RunTxnOpts, fn func(*txn.Tx) error) error {
	return d.retry(opts, d.BeginReadOnly, fn, func(tx *txn.Tx, err error) error {
		if endErr := d.EndReadOnly(tx); err == nil {
			err = endErr
		}
		return err
	})
}

// SnapshotBackup reads an entire table at one consistent snapshot — the
// long-running consistent scan the paper's lock-based reader could only
// get by S-locking every row to commit. Under a concurrent write load it
// neither blocks writers nor observes any of their in-flight work.
func (d *DB) SnapshotBackup(table string) ([]Row, error) {
	var rows []Row
	err := d.RunReadOnly(func(tx *txn.Tx) error {
		rows = rows[:0]
		t, err := d.TableFor(tx, table)
		if err != nil {
			return err
		}
		return t.Scan(tx, nil, nil, func(r Row) (bool, error) {
			rows = append(rows, r)
			return true, nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// pushVersion records one mutation of key in the version store, on tx's
// chain list so its commit/rollback drive the store's hooks. seed supplies
// the committed pre-state if a chain must be created.
func (t *Table) pushVersion(tx *txn.Tx, key []byte, present bool, value []byte, seed func() (bool, []byte, uint64, error)) error {
	return t.vs.PushTo(t.id, key, present, value, tx.ID, tx.LastLSN(), tx.Versions(), seed)
}

// insertSeed builds the committed-state probe for an insert's version
// push: capture the removal sequence, then resolve the key's committed
// image latch-only. The inserter holds no lock on the key's prior
// incarnation, but Push validates the sequence under the table lock and
// retries the probe if chain turnover raced it, and any in-flight writer
// on the key implies a chain — in which case the probe is discarded and
// the version appended instead.
//
// Any writer of this epoch, that is. A restart loser being undone in the
// background after an online restart has its uncommitted rows in the pages
// and no chain, only the reinstated X locks on their records; a base seeded
// from one would show a snapshot taken after recovery a row that never
// committed. So a row the probe finds is trusted only once an instant S lock
// on its record has been granted — no loser holds it then, and none takes a
// lock again — and the probe repeated after that.
func (t *Table) insertSeed(tx *txn.Tx, key []byte) func() (bool, []byte, uint64, error) {
	return func() (bool, []byte, uint64, error) {
		var settled storage.RID // the record whose holders have been waited out
		for attempt := 0; attempt < maxSnapshotRetries; attempt++ {
			seq := t.vs.Seq(t.id)
			present, rid, rec, err := t.probePage(key)
			if err != nil {
				return false, nil, 0, err
			}
			if !present {
				return false, nil, seq, nil
			}
			if rid != settled {
				name := lock.DataLockName(t.db.opts.Granularity, uint64(rid.Page), rid.Slot)
				if err := tx.Lock(name, lock.S, lock.Instant, false); err != nil {
					return false, nil, 0, err
				}
				settled = rid
				continue
			}
			_, v, err := decodeRow(rec)
			if err != nil {
				return false, nil, 0, err
			}
			return true, v, seq, nil
		}
		return false, nil, 0, fmt.Errorf("db: insert of %q kept finding its key's row moved", key)
	}
}

// maxSnapshotRetries bounds per-key protocol retries against pathological
// chain turnover; each retry requires a full create-and-retire cycle to
// have raced the probe, so the bound is never approached in practice.
const maxSnapshotRetries = 16

// probePage resolves key's current page state latch-only: index descent
// to the RID, then an unlocked heap fetch.
func (t *Table) probePage(key []byte) (present bool, rid storage.RID, rec []byte, err error) {
	res, _, err := t.primary.FetchNoLock(key, core.EQ)
	if err != nil || !res.Found {
		return false, storage.RID{}, nil, err
	}
	raw, ghost, ok, err := t.data.FetchNoLock(res.Key.RID)
	if err != nil || !ok || ghost {
		// A vanished record or a ghost: with no chain this is a committed
		// absence; with one, the caller's re-check rules.
		return false, storage.RID{}, nil, err
	}
	return true, res.Key.RID, raw, nil
}

// snapshotGet is Get under a snapshot.
func (t *Table) snapshotGet(s wal.LSN, key []byte) ([]byte, error) {
	t.db.stats.SnapshotReads.Add(1)
	value, found, err := t.resolveKey(s, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return value, nil
}

// resolveKey resolves one key under snapshot s via the per-key protocol
// documented at the top of this file.
func (t *Table) resolveKey(s wal.LSN, key []byte) ([]byte, bool, error) {
	vs := t.vs
	for attempt := 0; attempt < maxSnapshotRetries; attempt++ {
		r, err := vs.Read(t.id, key, s)
		if err != nil {
			return nil, false, err
		}
		if r.Chain {
			return r.Value, r.Present, nil
		}
		seq := vs.Seq(t.id)
		present, _, rec, err := t.probePage(key)
		if err != nil {
			return nil, false, err
		}
		r2, err := vs.Read(t.id, key, s)
		if err != nil {
			return nil, false, err
		}
		if r2.Chain {
			return r2.Value, r2.Present, nil
		}
		if vs.Seq(t.id) != seq {
			continue // a chain was born and retired mid-probe; redo
		}
		if !present {
			return nil, false, nil
		}
		_, v, err := decodeRow(rec) // rec is the probe's private copy
		if err != nil {
			return nil, false, err
		}
		return v, true, nil
	}
	return nil, false, fmt.Errorf("db: snapshot read of %q kept racing chain turnover", key)
}

// snapshotReadAt resolves the key a scan's cursor step just returned, at
// the RID the step found it with. The step is the per-key protocol's index
// descent, and seq — captured before the step — its removal sequence, so
// what is left of the protocol is the chain check, the heap read and the
// chain re-check. A ghost, a missing slot, a row of another key at that RID
// or a moved sequence says the step's answer may be stale, and the key is
// read through the whole protocol instead. The row's slices are private:
// the heap read's copy, or a copy of the cursor's key beside the chain's
// value.
func (t *Table) snapshotReadAt(s wal.LSN, at storage.Key, seq uint64) (Row, bool, error) {
	vs := t.vs
	t.db.stats.SnapshotReads.Add(1)
	withKey := func(value []byte, present bool, err error) (Row, bool, error) {
		if err != nil || !present {
			return Row{}, false, err
		}
		return Row{Key: append([]byte(nil), at.Val...), Value: value}, true, nil
	}
	r, err := vs.Read(t.id, at.Val, s)
	if err != nil || r.Chain {
		return withKey(r.Value, r.Present, err)
	}
	raw, ghost, ok, err := t.data.FetchNoLock(at.RID)
	if err != nil {
		return Row{}, false, err
	}
	if r, err = vs.Read(t.id, at.Val, s); err != nil || r.Chain {
		return withKey(r.Value, r.Present, err)
	}
	if ok && !ghost && vs.Seq(t.id) == seq {
		k, v, err := decodeRow(raw)
		if err != nil {
			return Row{}, false, err
		}
		if bytes.Equal(k, at.Val) {
			return Row{Key: k, Value: v}, true, nil
		}
	}
	return withKey(t.resolveKey(s, at.Val))
}

// snapshotScan is Scan under a snapshot: a latch-only page cursor walk
// merged, window by window, with the version chains. The cursor yields
// every key currently in the index; each gap between consecutive cursor
// keys is filled from the chains (keys visible at s whose index entry a
// later committed delete removed), and each cursor key itself resolves
// through the per-key protocol, the step standing in for its descent
// (snapshotReadAt; so an entry from an in-flight or post-snapshot insert
// reads as absent, and a post-snapshot delete's pre-image comes back from
// its chain).
func (t *Table) snapshotScan(s wal.LSN, from, to []byte, fn func(Row) (bool, error)) error {
	vs := t.vs
	emitWindow := func(rows []mvcc.Row) (bool, error) {
		for _, r := range rows {
			if !r.Present {
				continue
			}
			t.db.stats.SnapshotReads.Add(1)
			if cont, err := fn(Row{Key: []byte(r.Key), Value: r.Value}); err != nil || !cont {
				return cont, err
			}
		}
		return true, nil
	}
	// Each cursor step is paired with the chains of the gap it jumped, and
	// the pair is only as good as the chains are stable between the two: a
	// writer whose delete hid an entry from the step has a chain that answers
	// for it, but if it rolls back before the window is read the entry is
	// back behind the cursor and the chain is gone, and the row would be lost
	// to both. Chain removals bump the table's removal sequence, so the step
	// remembers it from before it looked and a window read under a different
	// one is discarded and the step taken again from prev.
	prev, prevIncl := string(from), true
	var (
		res core.FetchResult
		cur *core.Cursor
		seq uint64
		err error
	)
	position := func(at []byte) error {
		seq = vs.Seq(t.id)
		res, cur, err = t.primary.FetchNoLock(at, core.GE)
		return err
	}
	advance := func() error {
		seq = vs.Seq(t.id)
		res, err = t.primary.FetchNextNoLock(cur)
		return err
	}
	if err := position(from); err != nil {
		return err
	}
	for turnover := 0; ; {
		end := res.EOF || (to != nil && string(res.Key.Val) > string(to))
		k := string(res.Key.Val)
		if !end && !prevIncl && k == prev {
			// Tree keys are (value, RID) pairs and the cursor advances by
			// RID past the entry it just returned, so a concurrent
			// delete+reinsert of the same primary key at a higher RID puts
			// a second entry in the cursor's path. The first visit already
			// answered for this key at s (chain answers are stable while
			// the snapshot is registered; a validated no-chain page probe
			// is provably the committed state at s) — skip the revisit.
			if err := advance(); err != nil {
				return err
			}
			continue
		}
		if t.scanHook != nil {
			t.scanHook()
		}
		// The gap: chain-only keys between the last key answered for and
		// this one, or — closing the range — past the last cursor key.
		var rows []mvcc.Row
		switch {
		case !end:
			rows, err = vs.RowsBetween(t.id, prev, prevIncl, k, false, false, s)
		case to == nil:
			rows, err = vs.RowsBetween(t.id, prev, prevIncl, "", false, true, s)
		default:
			rows, err = vs.RowsBetween(t.id, prev, prevIncl, string(to), true, false, s)
		}
		if err != nil {
			return err
		}
		if vs.Seq(t.id) != seq {
			if turnover++; turnover > maxSnapshotRetries {
				return fmt.Errorf("db: snapshot scan past %q kept racing chain turnover", prev)
			}
			if err := position([]byte(prev)); err != nil {
				return err
			}
			continue
		}
		turnover = 0
		if cont, err := emitWindow(rows); err != nil || !cont || end {
			return err
		}
		row, found, err := t.snapshotReadAt(s, res.Key, seq)
		if err != nil {
			return err
		}
		if found {
			if cont, err := fn(row); err != nil || !cont {
				return err
			}
		}
		prev, prevIncl = k, false
		if err := advance(); err != nil {
			return err
		}
	}
}

// Secondary indexes: a second ARIES/IM tree per table, maintained in the
// same transaction as the base row.
//
// CreateIndex builds the tree and backfills it from the existing rows in
// one internal transaction whose pass over the table is the locked walk
// Scan runs (commit-duration S locks plus next-key locks on every gap), so
// it freezes the table's key population: any writer whose primary-index
// operation would change the row set blocks until the backfill commits,
// and by then the new index is published on the table handle — writers
// copy the secondary list only AFTER their primary index operation, so
// every row the backfill could not see is maintained by its own writer.
// From then on Insert/Update/Delete log entries into both trees under one
// transaction, rollback undoes the pair through the normal PrevLSN chain
// (index-op undo routes through core.Manager.Undo), and restart redo/undo
// drive both trees with no index-specific code.
//
// ScanIndex/ScanIndexRange read in secondary-key order with the same
// key-range (next-key) protocol as primary scans: every entry touched stays
// S-locked to commit and the gap beyond the range end is protected by the
// next-key fetch, so phantoms cannot appear in the scanned range. Snapshot
// transactions instead route to snapshotScanIndex, which re-keys the
// latch-only primary-order chain merge by secondary key (zero lock-manager
// calls; see its comment for why the secondary tree itself cannot be
// walked soundly under a snapshot).
package db

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"ariesim/internal/core"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// KeySpec is a secondary index's key, stored in its catalog row: the value
// up to its first Sep (when HasSep; all of it if none), then the first
// Prefix or last Suffix bytes of that, clamped to its length. The zero
// KeySpec is the whole value.
type KeySpec struct {
	Sep            byte
	HasSep         bool
	Prefix, Suffix int
}

// Key is the secondary key of value: a sub-slice of it, not a copy.
func (k KeySpec) Key(value []byte) []byte {
	if k.HasSep {
		if i := bytes.IndexByte(value, k.Sep); i >= 0 {
			value = value[:i:i]
		}
	}
	switch n := len(value); {
	case k.Prefix > 0 && k.Prefix < n:
		return value[:k.Prefix:k.Prefix]
	case k.Suffix > 0 && k.Suffix < n:
		return value[n-k.Suffix:]
	}
	return value
}

// valid reports whether k sets at most one of Prefix and Suffix, each a
// length a catalog row's u32 holds.
func (k KeySpec) valid() bool {
	return uint64(k.Prefix) <= math.MaxUint32 && uint64(k.Suffix) <= math.MaxUint32 && (k.Prefix == 0 || k.Suffix == 0)
}

// CreateIndex creates a non-unique secondary index named name over
// key.Key(value) and backfills it from the table's existing rows in one
// internal transaction.
//
// The backfill scan takes commit-duration S + next-key locks on every
// existing primary key, so under live write traffic CreateIndex can block
// behind writers (or lose a deadlock) — contention-class failures roll the
// catalog row back with the tree and may simply be retried.
func (t *Table) CreateIndex(name string, key KeySpec) error {
	if !key.valid() {
		return fmt.Errorf("db: invalid key spec %+v", key)
	}
	d := t.db
	d.mu.Lock()
	if err := d.ddlCheckLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if name == t.name+"_pk" || t.lookupSecondary(name) != nil {
		d.mu.Unlock()
		return fmt.Errorf("db: table %q already has index %q", t.name, name)
	}
	// Reserve the index ID under d.mu; a failed backfill leaks only the
	// number. The managers and the catalog heap are captured here so a
	// crash mid-backfill leaves this DDL a zombie of its own epoch, like any
	// in-flight transaction.
	id := d.nextIndexID
	d.nextIndexID++
	tm, im, cat := d.tm, d.im, d.catalog
	d.mu.Unlock()

	// The backfill transaction runs WITHOUT d.mu: its locked scan can wait
	// behind writers, and holding the engine mutex across a lock wait would
	// wedge every Begin/TableFor into the same queue.
	tx := tm.Begin()
	ix, err := im.CreateIndex(tx, d.indexConfig(id, false))
	if err != nil {
		_ = tx.Rollback()
		return err
	}
	fail := func(err error) error {
		if rbErr := tx.Rollback(); rbErr != nil {
			return fmt.Errorf("db: index backfill failed (%v); rollback failed: %w", err, rbErr)
		}
		return err
	}
	// The catalog row goes in before the backfill: restart registers the
	// index from it, so a backfill a crash cuts short can be undone.
	if _, err := cat.Insert(tx, catalogRow{kind: rowSecondary, table: t.id, index: id, page: ix.Root(), key: key, name: name}.encode()); err != nil {
		return fail(err)
	}
	res, cur, err := t.primary.Fetch(tx, nil, core.GE)
	if err != nil {
		return fail(err)
	}
	if err := t.walk(tx, t.primary, res, cur, func([]byte) bool { return false },
		func(at storage.Key, r Row) (bool, error) {
			return true, ix.Insert(tx, storage.Key{Val: key.Key(r.Value), RID: at.RID})
		}); err != nil {
		return fail(err)
	}
	// Publish before commit: a writer blocked on the backfill's locks
	// resumes only after the commit releases them, re-reads the secondary
	// list after its primary-index operation, and maintains the new tree.
	sec := &secondary{name: name, ix: ix, key: key}
	t.mu.Lock()
	t.secondaries = append(t.secondaries, sec)
	t.mu.Unlock()
	if err := tx.Commit(); err != nil {
		t.removeSecondary(sec)
		return err
	}
	return nil
}

// removeSecondary unpublishes a secondary whose creating transaction failed
// to commit.
func (t *Table) removeSecondary(sec *secondary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.secondaries {
		if s == sec {
			t.secondaries = append(t.secondaries[:i], t.secondaries[i+1:]...)
			return
		}
	}
}

// lookupSecondary returns the named secondary index, or nil.
func (t *Table) lookupSecondary(name string) *secondary {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.secondaries {
		if s.name == name {
			return s
		}
	}
	return nil
}

// ScanIndex iterates every (secondaryKey, row) pair of the named index in
// secondary-key order. Equivalent to ScanIndexRange over the full range.
func (t *Table) ScanIndex(tx *txn.Tx, name string, fn func(secKey []byte, r Row) (bool, error)) error {
	return t.ScanIndexRange(tx, name, nil, nil, fn)
}

// ScanIndexRange iterates (secondaryKey, row) pairs with
// from <= secondaryKey <= to (nil = unbounded) in secondary-key order.
//
// At repeatable read every entry touched stays S-locked to commit — under
// data-only locking the entry's key lock IS the base record's lock — and
// next-key locking protects the range's gaps from phantoms. Snapshot
// transactions route to the lock-free chain merge instead (emission is then
// in (secondaryKey, primaryKey) order from a buffered merge, not streamed
// off the tree).
func (t *Table) ScanIndexRange(tx *txn.Tx, name string, from, to []byte, fn func(secKey []byte, r Row) (bool, error)) error {
	sec := t.lookupSecondary(name)
	if sec == nil {
		return fmt.Errorf("db: no secondary index %q", name)
	}
	if s := tx.Snapshot(); s != nil {
		return t.snapshotScanIndex(s.LSN, sec, from, to, fn)
	}
	res, cur, err := sec.ix.Fetch(tx, from, core.GE)
	if err != nil {
		return err
	}
	return t.walk(tx, sec.ix, res, cur,
		func(key []byte) bool { return to != nil && string(key) > string(to) },
		func(at storage.Key, r Row) (bool, error) { return fn(append([]byte(nil), at.Val...), r) })
}

// snapshotScanIndex is ScanIndexRange under a snapshot: the primary-order
// latch-only scan re-keyed by secondary key.
//
// Version chains are keyed by PRIMARY key, so the only sound merge of page
// state with chains is the one snapshotScan already performs — window by
// window, immediately at each cursor step. A secondary-order tree walk
// cannot be merged that way: its gaps are secondary-key ranges, which name
// no chain, and deferring the chain query to the end of the walk loses any
// row whose writer was in flight when the cursor passed its entry and then
// ROLLED BACK before the query — undo restores the tree entry behind the
// cursor and the drained chain is retired regardless of registered
// snapshots (retirement only preserves chains whose newest COMMIT exceeds
// a registered snapshot; an aborter commits nothing). So the snapshot path
// does not read the secondary tree at all: it runs the proven primary-key
// merge, evaluates each visible row's secondary key on its value-at-s —
// which decides both visibility and emission key — filters to [from, to],
// and emits sorted by (secondaryKey, primaryKey). Emission was never
// streamed off the tree under a snapshot, so the buffering is not new
// cost; locked transactions keep the streaming secondary-order scan.
func (t *Table) snapshotScanIndex(s wal.LSN, sec *secondary, from, to []byte, fn func(secKey []byte, r Row) (bool, error)) error {
	type hit struct {
		skey, pk, value []byte
	}
	var hits []hit
	if err := t.snapshotScan(s, nil, nil, func(r Row) (bool, error) {
		sk := sec.key.Key(r.Value)
		if (from != nil && string(sk) < string(from)) || (to != nil && string(sk) > string(to)) {
			return true, nil
		}
		hits = append(hits, hit{skey: append([]byte(nil), sk...), pk: r.Key, value: r.Value})
		return true, nil
	}); err != nil {
		return err
	}
	sort.Slice(hits, func(i, j int) bool {
		if si, sj := string(hits[i].skey), string(hits[j].skey); si != sj {
			return si < sj
		}
		return string(hits[i].pk) < string(hits[j].pk)
	})
	for _, h := range hits {
		cont, err := fn(h.skey, Row{Key: h.pk, Value: h.value})
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

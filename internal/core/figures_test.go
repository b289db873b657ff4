package core

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// lockRecord plays the record manager's part under data-only locking: the
// transaction operating on a record holds its commit-duration X lock
// before touching the index (paper §2.1).
func (e *env) lockRecord(tx *txn.Tx, ix *Index, k storage.Key) {
	e.t.Helper()
	if err := tx.Lock(ix.keyLockName(k), lock.X, lock.Commit, false); err != nil {
		e.t.Fatal(err)
	}
}

// TestFigure1LogicalUndo reproduces the paper's Figure 1: T1 inserts K8
// into page P1; T2's inserts split P1, moving K8 to a new page P2; T1's
// rollback must retraverse the tree (logical undo) and write its CLR
// against P2, not P1.
func TestFigure1LogicalUndo(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 10; i++ {
		e.mustInsert(setup, ix, key(i*10))
	}
	e.commit(setup)

	t1 := e.tm.Begin()
	k8 := key(85) // a high key, destined for the right half of a split
	e.lockRecord(t1, ix, k8)
	e.mustInsert(t1, ix, k8)
	p1, present, err := ix.LeafOf(k8)
	if err != nil || !present {
		t.Fatalf("K8 not present after insert: %v", err)
	}

	// T2 splits P1 by volume.
	t2 := e.tm.Begin()
	for i := 0; i < 40; i++ {
		e.mustInsert(t2, ix, key(i+1000)) // distinct values, same leaf region via ordering
	}
	e.commit(t2)
	p2, present, err := ix.LeafOf(k8)
	if err != nil || !present {
		t.Fatalf("K8 lost after T2: %v", err)
	}
	if p2 == p1 {
		t.Skipf("K8 did not move (still on page %d); scenario needs a split of its leaf", p1)
	}

	before := e.stats.Snap()
	if err := t1.Rollback(); err != nil {
		t.Fatal(err)
	}
	d := trace.Diff(before, e.stats.Snap())
	if d.UndoLogical != 1 {
		t.Fatalf("logical undos = %d, want 1", d.UndoLogical)
	}
	// The CLR compensating the insert targets P2.
	var clr *wal.Record
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR && r.Op == wal.OpIdxDeleteKey && r.TxID == t1.ID {
			clr = r
		}
	}
	if clr == nil {
		t.Fatal("no delete CLR written by T1")
	}
	if clr.Page != p2 {
		t.Fatalf("CLR against page %d, want P2=%d (P1=%d)", clr.Page, p2, p1)
	}
	if _, found, _ := ix.LeafOf(k8); found {
		t.Fatal("K8 survived rollback")
	}
	e.checkTree(ix)
}

// TestFigure2LockTable regenerates the paper's Figure 2 locking summary
// from observed lock calls — every arm of every protocol: which lock, in
// which mode, for which duration, how many times. A row's cells are written
// in request order; the counters cannot see order, so they are compared as a
// set, and the commit-duration requests (the ones that leave a holding
// behind) are checked against the lock manager's grant order.
func TestFigure2LockTable(t *testing.T) {
	type cell struct {
		space lock.Space
		mode  lock.Mode
		dur   lock.Duration
		count uint64
	}
	const (
		rec  = lock.SpaceRecord
		eof  = lock.SpaceEOF
		kv   = lock.SpaceKeyValue
		page = lock.SpaceIndexPage
	)
	// dup is a second instance of key(50)'s value, sorting right after it.
	dup := storage.Key{Val: key(50).Val, RID: storage.RID{Page: 5000, Slot: 1}}

	fetch := func(val []byte, found, eof bool) func(*env, *Index, *txn.Tx) {
		return func(e *env, ix *Index, tx *txn.Tx) {
			res, _, err := ix.Fetch(tx, val, EQ)
			if err != nil || res.Found != found || res.EOF != eof {
				t.Fatalf("fetch %q: %+v %v", val, res, err)
			}
		}
	}
	fetchFound := fetch(key(50).Val, true, false)
	fetchEOF := fetch([]byte("zzz"), false, true)
	fetchCS := func(e *env, ix *Index, tx *txn.Tx) {
		if res, err := ix.FetchCS(tx, key(50).Val, EQ); err != nil || !res.Found {
			t.Fatalf("CS fetch: %+v %v", res, err)
		}
	}
	insert := func(k storage.Key) func(*env, *Index, *txn.Tx) {
		return func(e *env, ix *Index, tx *txn.Tx) { e.mustInsert(tx, ix, k) }
	}
	del := func(k storage.Key) func(*env, *Index, *txn.Tx) {
		return func(e *env, ix *Index, tx *txn.Tx) { e.mustDelete(tx, ix, k) }
	}
	insertDuplicate := func(e *env, ix *Index, tx *txn.Tx) {
		if err := ix.Insert(tx, dup); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("unique insert of an existing value: %v", err)
		}
	}
	seedDup := func(e *env, ix *Index, setup *txn.Tx) { e.mustInsert(setup, ix, dup) }
	// Forty more keys split the root leaf; boundary is then the last key of
	// the leftmost leaf, and the FetchNext under measurement crosses from it
	// to the first key of the next leaf.
	var boundary storage.Key
	seedTwoLeaves := func(e *env, ix *Index, setup *txn.Tx) {
		for i := 10; i < 50; i++ {
			e.mustInsert(setup, ix, key(i*10))
		}
		first, _, err := ix.LeafOf(key(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; ; i++ {
			pid, present, err := ix.LeafOf(key(i * 10))
			if err != nil || !present {
				t.Fatalf("seed key %d: present=%v %v", i*10, present, err)
			}
			if pid != first {
				boundary = key((i - 1) * 10)
				return
			}
		}
	}
	var cur *Cursor
	openAtBoundary := func(e *env, ix *Index, tx *txn.Tx) {
		res, c, err := ix.Fetch(tx, boundary.Val, EQ)
		if err != nil || !res.Found {
			t.Fatalf("fetch boundary key: %+v %v", res, err)
		}
		cur = c
	}
	fetchNext := func(e *env, ix *Index, tx *txn.Tx) {
		before, _, _ := ix.LeafOf(cur.Key())
		res, err := ix.FetchNext(tx, cur)
		if err != nil || !res.Found {
			t.Fatalf("fetch next: %+v %v", res, err)
		}
		if after, _, _ := ix.LeafOf(res.Key); after == before {
			t.Fatalf("fetch next stayed on leaf %d", before)
		}
	}

	for _, row := range []struct {
		name   string
		cfg    Config
		seed   func(*env, *Index, *txn.Tx) // extra committed keys, beside key(0), key(10) … key(90)
		prep   func(*env, *Index, *txn.Tx) // inside the measured transaction, before the counters are read
		op     func(*env, *Index, *txn.Tx)
		want   []cell
		noHold bool // nothing the operation took is held once it returns
	}{
		// ARIES/IM, data-only (Fig 2's left column). FETCH and FETCH NEXT: S
		// commit on the current key — one lock, nothing else; past the end the
		// EOF lock stands in for the next key. INSERT: X instant on the next
		// key, nothing on the current key (the record manager's lock covers
		// it). DELETE: X commit on the next key only.
		{name: "fetch/data-only", op: fetchFound, want: []cell{{rec, lock.S, lock.Commit, 1}}},
		{name: "fetch-eof/data-only", op: fetchEOF, want: []cell{{eof, lock.S, lock.Commit, 1}}},
		{name: "fetch-next/data-only", seed: seedTwoLeaves, prep: openAtBoundary, op: fetchNext,
			want: []cell{{rec, lock.S, lock.Commit, 1}}},
		{name: "fetch-cs/data-only", op: fetchCS, noHold: true, want: []cell{{rec, lock.S, lock.Manual, 1}}},
		{name: "insert/data-only", op: insert(key(55)), want: []cell{{rec, lock.X, lock.Instant, 1}}},
		{name: "delete/data-only", op: del(key(50)), want: []cell{{rec, lock.X, lock.Commit, 1}}},
		// Unique index (§2.4): a new value costs what any insert costs; an
		// existing one is S-locked for commit duration so the violation is
		// repeatable.
		{name: "insert-unique/data-only", cfg: Config{Unique: true}, op: insert(key(55)),
			want: []cell{{rec, lock.X, lock.Instant, 1}}},
		{name: "insert-unique-dup/data-only", cfg: Config{Unique: true}, op: insertDuplicate,
			want: []cell{{rec, lock.S, lock.Commit, 1}}},

		// Index-specific locking (Fig 2's right column): the same, on key-value
		// names, plus X commit on the inserted key and X instant on the
		// deleted one.
		{name: "fetch/index-specific", cfg: Config{Protocol: IndexSpecific}, op: fetchFound,
			want: []cell{{kv, lock.S, lock.Commit, 1}}},
		{name: "fetch-eof/index-specific", cfg: Config{Protocol: IndexSpecific}, op: fetchEOF,
			want: []cell{{eof, lock.S, lock.Commit, 1}}},
		{name: "fetch-next/index-specific", cfg: Config{Protocol: IndexSpecific}, seed: seedTwoLeaves, prep: openAtBoundary, op: fetchNext,
			want: []cell{{kv, lock.S, lock.Commit, 1}}},
		{name: "fetch-cs/index-specific", cfg: Config{Protocol: IndexSpecific}, op: fetchCS, noHold: true,
			want: []cell{{kv, lock.S, lock.Manual, 1}}},
		{name: "insert/index-specific", cfg: Config{Protocol: IndexSpecific}, op: insert(key(55)),
			want: []cell{{kv, lock.X, lock.Instant, 1}, {kv, lock.X, lock.Commit, 1}}},
		{name: "delete/index-specific", cfg: Config{Protocol: IndexSpecific}, op: del(key(50)),
			want: []cell{{kv, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Instant, 1}}},

		// ARIES/KVL: S commit on the fetched value. Insert of a new value: IX
		// instant on the next value, X commit on the new one; of another
		// instance of an existing value: IX commit on it alone. Delete of a
		// value's last instance: X commit on the next value and on the deleted
		// one; of one of several: IX commit on the value alone.
		{name: "fetch/aries-kvl", cfg: Config{Protocol: KVL}, op: fetchFound,
			want: []cell{{kv, lock.S, lock.Commit, 1}}},
		{name: "fetch-eof/aries-kvl", cfg: Config{Protocol: KVL}, op: fetchEOF,
			want: []cell{{eof, lock.S, lock.Commit, 1}}},
		{name: "fetch-next/aries-kvl", cfg: Config{Protocol: KVL}, seed: seedTwoLeaves, prep: openAtBoundary, op: fetchNext,
			want: []cell{{kv, lock.S, lock.Commit, 1}}},
		{name: "fetch-cs/aries-kvl", cfg: Config{Protocol: KVL}, op: fetchCS, noHold: true,
			want: []cell{{kv, lock.S, lock.Manual, 1}}},
		{name: "insert-new-value/aries-kvl", cfg: Config{Protocol: KVL}, op: insert(key(55)),
			want: []cell{{kv, lock.IX, lock.Instant, 1}, {kv, lock.X, lock.Commit, 1}}},
		{name: "insert-existing-value/aries-kvl", cfg: Config{Protocol: KVL}, op: insert(dup),
			want: []cell{{kv, lock.IX, lock.Commit, 1}}},
		{name: "delete-last-instance/aries-kvl", cfg: Config{Protocol: KVL}, op: del(key(50)),
			want: []cell{{kv, lock.X, lock.Commit, 2}}},
		{name: "delete-one-of-several/aries-kvl", cfg: Config{Protocol: KVL}, seed: seedDup, op: del(key(50)),
			want: []cell{{kv, lock.IX, lock.Commit, 1}}},

		// System R: index-specific locking plus a commit-duration lock on the
		// leaf page — S after the key lock for a reader that found a key (none
		// at EOF, none under cursor stability), X before everything else for
		// an insert or a delete, whatever the value's other instances.
		{name: "fetch/system-r", cfg: Config{Protocol: SystemR}, op: fetchFound,
			want: []cell{{kv, lock.S, lock.Commit, 1}, {page, lock.S, lock.Commit, 1}}},
		{name: "fetch-eof/system-r", cfg: Config{Protocol: SystemR}, op: fetchEOF,
			want: []cell{{eof, lock.S, lock.Commit, 1}}},
		{name: "fetch-next/system-r", cfg: Config{Protocol: SystemR}, seed: seedTwoLeaves, prep: openAtBoundary, op: fetchNext,
			want: []cell{{kv, lock.S, lock.Commit, 1}, {page, lock.S, lock.Commit, 1}}},
		{name: "fetch-cs/system-r", cfg: Config{Protocol: SystemR}, op: fetchCS, noHold: true,
			want: []cell{{kv, lock.S, lock.Manual, 1}}},
		{name: "insert-new-value/system-r", cfg: Config{Protocol: SystemR}, op: insert(key(55)),
			want: []cell{{page, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Instant, 1}, {kv, lock.X, lock.Commit, 1}}},
		{name: "insert-existing-value/system-r", cfg: Config{Protocol: SystemR}, op: insert(dup),
			want: []cell{{page, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Instant, 1}, {kv, lock.X, lock.Commit, 1}}},
		{name: "delete-last-instance/system-r", cfg: Config{Protocol: SystemR}, op: del(key(50)),
			want: []cell{{page, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Instant, 1}}},
		{name: "delete-one-of-several/system-r", cfg: Config{Protocol: SystemR}, seed: seedDup, op: del(key(50)),
			want: []cell{{page, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Commit, 1}, {kv, lock.X, lock.Instant, 1}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			e := newEnv(t, 512, 64)
			row.cfg.ID = 1
			ix := e.createIndex(row.cfg)
			setup := e.tm.Begin()
			for i := 0; i < 10; i++ {
				e.mustInsert(setup, ix, key(i*10))
			}
			if row.seed != nil {
				row.seed(e, ix, setup)
			}
			e.commit(setup)
			tx := e.tm.Begin()
			if row.prep != nil {
				row.prep(e, ix, tx)
			}
			heldBefore := len(e.locks.LocksOf(lock.Owner(tx.ID)))
			before := e.stats.Snap()
			row.op(e, ix, tx)
			d := trace.Diff(before, e.stats.Snap())
			held := e.locks.LocksOf(lock.Owner(tx.ID))[heldBefore:]
			e.commit(tx)

			var got []cell
			for s := lock.SpaceRecord; s <= lock.SpaceIndexPage; s++ {
				for m := lock.ModeNone; m <= lock.X; m++ {
					for dur := lock.Instant; dur <= lock.Commit; dur++ {
						if n := d.LockCalls[int(s)][int(m)][int(dur)]; n > 0 {
							got = append(got, cell{s, m, dur, n})
						}
					}
				}
			}
			sorted := append([]cell(nil), row.want...)
			sort.Slice(sorted, func(i, j int) bool {
				a, b := sorted[i], sorted[j]
				if a.space != b.space {
					return a.space < b.space
				}
				if a.mode != b.mode {
					return a.mode < b.mode
				}
				return a.dur < b.dur
			})
			if !reflect.DeepEqual(got, sorted) {
				t.Fatalf("lock cells %+v, want %+v", got, sorted)
			}
			// Grant order of what stayed held = request order of the
			// commit-duration cells.
			var wantHeld []lock.Held
			for _, c := range row.want {
				for n := uint64(0); c.dur == lock.Commit && !row.noHold && n < c.count; n++ {
					wantHeld = append(wantHeld, lock.Held{Name: lock.Name{Space: c.space}, Mode: c.mode})
				}
			}
			if len(held) != len(wantHeld) {
				t.Fatalf("holds %v afterwards, want %d locks", held, len(wantHeld))
			}
			for i, h := range held {
				if h.Name.Space != wantHeld[i].Name.Space || h.Mode != wantHeld[i].Mode {
					t.Fatalf("holding %d is %v %v, want %v %v (grant order %v)",
						i, h.Name, h.Mode, wantHeld[i].Name.Space, wantHeld[i].Mode, held)
				}
			}
		})
	}
}

// TestFigure3SMOInsertInteraction reproduces Figure 3's hazard: a leaf
// carries SM_Bit=1 from an SMO that is still in progress (tree latch
// held). An insert reaching that leaf must wait for the SMO to finish —
// even when it is unambiguous that this is the right leaf.
func TestFigure3SMOInsertInteraction(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 5; i++ {
		e.mustInsert(setup, ix, key(i*10))
	}
	e.commit(setup)

	// Simulate T1 mid-SMO: tree latch held in X, SM_Bit set on the leaf.
	ix.treeLatch.Acquire(latch.X)
	leafID, _, err := ix.LeafOf(key(20))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ix.fixLatched(leafID, latch.X)
	if err != nil {
		t.Fatal(err)
	}
	f.Page.SetSMBit(true)
	ix.unfixLatched(f, latch.X)

	// T2's insert of a key that belongs on that leaf must block.
	t2 := e.tm.Begin()
	doneCh := make(chan error, 1)
	go func() {
		doneCh <- ix.Insert(t2, key(25))
	}()
	select {
	case err := <-doneCh:
		t.Fatalf("insert proceeded during the SMO: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// T1 completes its SMO: the tree latch is released.
	ix.treeLatch.Release(latch.X)
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never resumed after SMO completion")
	}
	e.commit(t2)
	// The waiting insert reset the bit once the SMO was done.
	f2, _ := ix.fixLatched(leafID, latch.S)
	sm := f2.Page.SMBit()
	ix.unfixLatched(f2, latch.S)
	if sm {
		t.Fatal("SM_Bit not reset by the delayed insert")
	}
	if e.stats.SMBitWaits.Load() == 0 {
		t.Fatal("SM_Bit wait not recorded")
	}
	e.checkTree(ix)
}

// TestFigure9SplitLogSequence checks the exact log shape of a page split
// (Figure 9): the SMO's records form a nested top action whose dummy CLR
// points at the transaction's last pre-SMO record, and the key insert that
// necessitated the split is logged only after the dummy CLR.
func TestFigure9SplitLogSequence(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	i := 0
	for e.stats.PageSplits.Load() == 0 {
		e.mustInsert(setup, ix, key(i))
		i++
		if i > 1000 {
			t.Fatal("no split after 1000 inserts")
		}
	}
	e.commit(setup)

	// The splitting transaction is the one that inserted the last key.
	recs := e.log.SnapshotFrom(1)
	var dummyIdx, firstSMOIdx, insertIdx = -1, -1, -1
	for j, r := range recs {
		switch {
		case r.Type == wal.RecDummyCLR && dummyIdx == -1:
			dummyIdx = j
		case r.Op == wal.OpIdxFormat && j > 0 && firstSMOIdx == -1 && r.Page != ix.Root():
			firstSMOIdx = j
		}
	}
	if dummyIdx == -1 || firstSMOIdx == -1 {
		t.Fatalf("log lacks SMO structure: dummy=%d format=%d", dummyIdx, firstSMOIdx)
	}
	// The key insert that caused the split appears after the dummy CLR.
	for j := dummyIdx + 1; j < len(recs); j++ {
		if recs[j].Op == wal.OpIdxInsertKey {
			insertIdx = j
			break
		}
	}
	if insertIdx == -1 {
		t.Fatal("no insert logged after the dummy CLR")
	}
	// The dummy CLR's UndoNxtLSN points before the SMO's first record
	// (it bypasses the whole nested top action).
	dummy := recs[dummyIdx]
	if dummy.UndoNxtLSN >= recs[firstSMOIdx].LSN {
		t.Fatalf("dummy CLR UndoNxtLSN %d does not bypass the SMO starting at %d",
			dummy.UndoNxtLSN, recs[firstSMOIdx].LSN)
	}
	// And the SMO records are regular (undoable) updates, not CLRs.
	for j := firstSMOIdx; j < dummyIdx; j++ {
		if recs[j].IsCLR() {
			t.Fatalf("SMO record %d at %s is a CLR", j, recs[j])
		}
	}
}

// TestFigure10PageDeleteLogSequence checks the page-deletion log shape
// (Figure 10): the key delete is logged first, outside the nested top
// action, and the dummy CLR's UndoNxtLSN points exactly at it.
func TestFigure10PageDeleteLogSequence(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 120; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)

	tx := e.tm.Begin()
	i := 0
	for e.stats.PageDeletes.Load() == 0 && i < 120 {
		e.mustDelete(tx, ix, key(i))
		i++
	}
	if e.stats.PageDeletes.Load() == 0 {
		t.Fatal("no page delete triggered")
	}
	e.commit(tx)

	recs := e.log.SnapshotFrom(1)
	// Find the first dummy CLR of tx and the key delete preceding it.
	for j, r := range recs {
		if r.Type == wal.RecDummyCLR && r.TxID == tx.ID {
			// Walk back to the nearest preceding key-delete by this tx.
			var keyDel *wal.Record
			for k := j - 1; k >= 0; k-- {
				if recs[k].TxID == tx.ID && recs[k].Op == wal.OpIdxDeleteKey {
					keyDel = recs[k]
					break
				}
			}
			if keyDel == nil {
				t.Fatal("no key delete before the dummy CLR")
			}
			if r.UndoNxtLSN != keyDel.LSN {
				t.Fatalf("dummy CLR UndoNxtLSN = %d, want the key delete at %d", r.UndoNxtLSN, keyDel.LSN)
			}
			return
		}
	}
	t.Fatal("no dummy CLR found for the deleting transaction")
}

// TestPhantomPrevented: T1 fetches a missing value (locking the next key);
// T2's insert of exactly that value must block until T1 ends — repeatable
// read (§2.2, §2.4).
func TestPhantomPrevented(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	e.mustInsert(setup, ix, key(10))
	e.mustInsert(setup, ix, key(20))
	e.commit(setup)

	t1 := e.tm.Begin()
	res, _, err := ix.Fetch(t1, key(15).Val, EQ)
	if err != nil || res.Found {
		t.Fatalf("fetch: %+v %v", res, err)
	}

	t2 := e.tm.Begin()
	e.lockRecord(t2, ix, key(15))
	done := make(chan error, 1)
	go func() { done <- ix.Insert(t2, key(15)) }()
	select {
	case err := <-done:
		t.Fatalf("phantom inserted while reader active: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	e.commit(t1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert never unblocked")
	}
	e.commit(t2)
}

// TestFetchBlocksOnUncommittedInsert: with data-only locking a fetch of an
// uncommitted key blocks on the inserter's record lock.
func TestFetchBlocksOnUncommittedInsert(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	t1 := e.tm.Begin()
	e.lockRecord(t1, ix, key(5))
	e.mustInsert(t1, ix, key(5))

	t2 := e.tm.Begin()
	done := make(chan struct{})
	go func() {
		res, _, err := ix.Fetch(t2, key(5).Val, EQ)
		if err != nil || !res.Found {
			t.Errorf("fetch after commit: %+v %v", res, err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("fetch read an uncommitted insert without blocking")
	case <-time.After(50 * time.Millisecond):
	}
	e.commit(t1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fetch never unblocked")
	}
	e.commit(t2)
}

// TestUniqueUncommittedDelete: in a unique index, an insert of a value
// whose deletion is uncommitted must wait; if the deleter rolls back the
// insert fails with a unique violation, if it commits the insert succeeds
// (§1.1 question 10, §2.4).
func TestUniqueUncommittedDelete(t *testing.T) {
	run := func(t *testing.T, commitDeleter bool) {
		e := newEnv(t, 512, 64)
		ix := e.createIndex(Config{ID: 1, Unique: true})
		v := []byte("victim")
		orig := storage.Key{Val: v, RID: storage.RID{Page: 100, Slot: 1}}
		setup := e.tm.Begin()
		e.mustInsert(setup, ix, orig)
		e.mustInsert(setup, ix, key(900)) // the next key the delete will X-lock
		e.commit(setup)

		t1 := e.tm.Begin()
		e.lockRecord(t1, ix, orig)
		e.mustDelete(t1, ix, orig)

		t2 := e.tm.Begin()
		reborn := storage.Key{Val: v, RID: storage.RID{Page: 200, Slot: 2}}
		e.lockRecord(t2, ix, reborn)
		done := make(chan error, 1)
		go func() { done <- ix.Insert(t2, reborn) }()
		select {
		case err := <-done:
			t.Fatalf("insert did not trip on the uncommitted delete: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		if commitDeleter {
			e.commit(t1)
			if err := <-done; err != nil {
				t.Fatalf("insert after committed delete: %v", err)
			}
			e.commit(t2)
		} else {
			if err := t1.Rollback(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; !errors.Is(err, ErrDuplicate) {
				t.Fatalf("insert after rolled-back delete: %v, want unique violation", err)
			}
			_ = t2.Rollback()
		}
		e.checkTree(ix)
	}
	t.Run("deleter-commits", func(t *testing.T) { run(t, true) })
	t.Run("deleter-rolls-back", func(t *testing.T) { run(t, false) })
}

// TestFetchNextRepositionsAfterLeafChange: a cursor survives its leaf
// being reshaped (here: split) by repositioning via the remembered key
// (§2.3).
func TestFetchNextRepositionsAfterLeafChange(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 20; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)

	t1 := e.tm.Begin()
	res, cur, err := ix.Fetch(t1, key(0).Val, GE)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	// Another transaction splits the cursor's leaf.
	t2 := e.tm.Begin()
	for i := 100; i < 160; i++ {
		e.mustInsert(t2, ix, key(i))
	}
	e.commit(t2)

	// The scan must still see every original key in order.
	got := []storage.Key{res.Key}
	for {
		res, err := ix.FetchNext(t1, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.EOF {
			break
		}
		got = append(got, res.Key)
	}
	if len(got) != 20+60 {
		t.Fatalf("scan saw %d keys, want 80", len(got))
	}
	if e.stats.LeafReposition.Load() == 0 {
		t.Fatal("no repositioning recorded despite leaf change")
	}
	e.commit(t1)
}

// TestTraversalAmbiguityWaits: a traverser whose probe exceeds a nonleaf
// page's high keys while SM_Bit=1 must wait for the SMO (Fig 4) — locked
// and latch-only readers alike, since they share one traverse.
func TestTraversalAmbiguityWaits(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 300; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)
	if h, _ := ix.Height(); h < 2 {
		t.Fatal("tree too short for the scenario")
	}

	// Mark the root ambiguous and hold the tree latch (SMO in progress).
	ix.treeLatch.Acquire(latch.X)
	f, _ := ix.fixLatched(ix.Root(), latch.X)
	f.Page.SetSMBit(true)
	ix.unfixLatched(f, latch.X)

	// Probes beyond every high key hit the ambiguity test.
	t1 := e.tm.Begin()
	locked, latchOnly := make(chan error, 1), make(chan error, 1)
	go func() {
		_, _, err := ix.Fetch(t1, []byte("zzzzzz"), EQ)
		locked <- err
	}()
	go func() {
		_, _, err := ix.FetchNoLock([]byte("zzzzzz"), EQ)
		latchOnly <- err
	}()
	// A traverser counts its restart and then waits on the tree latch,
	// which is held X until the "SMO" below finishes: once both restarts
	// are counted, neither fetch can complete before the release.
	for e.stats.AmbiguityRestarts.Load() < 2 {
		select {
		case err := <-locked:
			t.Fatalf("ambiguous locked traversal proceeded: %v", err)
		case err := <-latchOnly:
			t.Fatalf("ambiguous latch-only traversal proceeded: %v", err)
		default:
			runtime.Gosched()
		}
	}
	// Finish the "SMO": clear the bit, release the latch.
	f2, _ := ix.fixLatched(ix.Root(), latch.X)
	f2.Page.SetSMBit(false)
	ix.unfixLatched(f2, latch.X)
	ix.treeLatch.Release(latch.X)
	if err := <-locked; err != nil {
		t.Fatal(err)
	}
	if err := <-latchOnly; err != nil {
		t.Fatal(err)
	}
	if n := e.stats.AmbiguityRestarts.Load(); n != 2 {
		t.Fatalf("%d ambiguity restarts recorded, want 2", n)
	}
	e.commit(t1)
}

// TestStaleSMBitIsSteppedOver: an SM_Bit on a nonleaf page with no SMO in
// progress is a crash leftover (Fig 8 makes resets optional). A conditional
// instant S on the tree latch, granted while the page is latched, proves
// it, so locked and latch-only fetches past every high key go down the
// rightmost child without a restart, and neither logs a bit reset: the bit
// stays for the next SMO on the page to reset.
func TestStaleSMBitIsSteppedOver(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 300; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)
	if h, _ := ix.Height(); h < 2 {
		t.Fatal("tree too short for the scenario")
	}
	f, _ := ix.fixLatched(ix.Root(), latch.X)
	f.Page.SetSMBit(true)
	ix.unfixLatched(f, latch.X)

	last := key(299)
	from := e.log.NextLSN()
	res, _, err := ix.FetchNoLock(last.Val, EQ)
	if err != nil || !res.Found || res.Key.Compare(last) != 0 {
		t.Fatalf("FetchNoLock(last) = %+v, %v", res, err)
	}
	tx := e.tm.Begin()
	res, _, err = ix.Fetch(tx, last.Val, EQ)
	if err != nil || !res.Found || res.Key.Compare(last) != 0 {
		t.Fatalf("Fetch(last) = %+v, %v", res, err)
	}
	e.commit(tx)
	if n := e.stats.AmbiguityRestarts.Load(); n != 0 {
		t.Fatalf("%d ambiguity restarts past a stale SM_Bit, want 0", n)
	}
	for _, r := range e.log.SnapshotFrom(from) {
		if r.Op == wal.OpIdxSetBits {
			t.Fatalf("a fetch logged a bit reset on page %d", r.Page)
		}
	}
	f, _ = ix.fixLatched(ix.Root(), latch.S)
	defer ix.unfixLatched(f, latch.S)
	if !f.Page.SMBit() {
		t.Fatal("a fetch reset the root's SM_Bit")
	}
}

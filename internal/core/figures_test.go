package core

import (
	"errors"
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
	for _, r := range e.log.Records(1) {
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
// from observed lock calls, for both data-only and index-specific
// protocols.
func TestFigure2LockTable(t *testing.T) {
	type cell struct {
		space lock.Space
		mode  lock.Mode
		dur   lock.Duration
		count uint64
	}
	measure := func(proto Protocol, op func(*env, *Index, *txn.Tx)) []cell {
		e := newEnv(t, 512, 64)
		ix := e.createIndex(Config{ID: 1, Protocol: proto})
		setup := e.tm.Begin()
		for i := 0; i < 10; i++ {
			e.mustInsert(setup, ix, key(i*10))
		}
		e.commit(setup)
		tx := e.tm.Begin()
		before := e.stats.Snap()
		op(e, ix, tx)
		d := trace.Diff(before, e.stats.Snap())
		e.commit(tx)
		var out []cell
		for s := lock.SpaceTable; s <= lock.SpaceIndexPage; s++ {
			for m := lock.ModeNone; m <= lock.X; m++ {
				for dur := lock.Instant; dur <= lock.Commit; dur++ {
					if n := d.LockCalls[int(s)][int(m)][int(dur)]; n > 0 {
						out = append(out, cell{s, m, dur, n})
					}
				}
			}
		}
		return out
	}
	expect := func(name string, got []cell, want []cell) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d lock cells %v, want %d %v", name, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: cell %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	// FETCH: S commit on the current key — one lock, nothing else.
	expect("fetch/data-only",
		measure(DataOnly, func(e *env, ix *Index, tx *txn.Tx) {
			if res, _, err := ix.Fetch(tx, key(50).Val, EQ); err != nil || !res.Found {
				t.Fatalf("fetch: %+v %v", res, err)
			}
		}),
		[]cell{{lock.SpaceRecord, lock.S, lock.Commit, 1}})

	// INSERT, data-only: X instant on the next key — and nothing on the
	// current key (the record manager's lock covers it).
	expect("insert/data-only",
		measure(DataOnly, func(e *env, ix *Index, tx *txn.Tx) {
			e.mustInsert(tx, ix, key(55))
		}),
		[]cell{{lock.SpaceRecord, lock.X, lock.Instant, 1}})

	// DELETE, data-only: X commit on the next key only.
	expect("delete/data-only",
		measure(DataOnly, func(e *env, ix *Index, tx *txn.Tx) {
			e.mustDelete(tx, ix, key(50))
		}),
		[]cell{{lock.SpaceRecord, lock.X, lock.Commit, 1}})

	// INSERT, index-specific: X instant next key + X commit current key.
	expect("insert/index-specific",
		measure(IndexSpecific, func(e *env, ix *Index, tx *txn.Tx) {
			e.mustInsert(tx, ix, key(55))
		}),
		[]cell{
			{lock.SpaceKeyValue, lock.X, lock.Instant, 1},
			{lock.SpaceKeyValue, lock.X, lock.Commit, 1},
		})

	// DELETE, index-specific: X instant current key + X commit next key.
	expect("delete/index-specific",
		measure(IndexSpecific, func(e *env, ix *Index, tx *txn.Tx) {
			e.mustDelete(tx, ix, key(50))
		}),
		[]cell{
			{lock.SpaceKeyValue, lock.X, lock.Instant, 1},
			{lock.SpaceKeyValue, lock.X, lock.Commit, 1},
		})

	// FETCH past the end: the EOF lock stands in for the next key.
	expect("fetch-eof/data-only",
		measure(DataOnly, func(e *env, ix *Index, tx *txn.Tx) {
			if res, _, err := ix.Fetch(tx, []byte("zzz"), EQ); err != nil || !res.EOF {
				t.Fatalf("eof fetch: %+v %v", res, err)
			}
		}),
		[]cell{{lock.SpaceEOF, lock.S, lock.Commit, 1}})
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
	recs := e.log.Records(1)
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

	recs := e.log.Records(1)
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
// page's high keys while SM_Bit=1 must wait for the SMO (Fig 4).
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

	t1 := e.tm.Begin()
	done := make(chan error, 1)
	go func() {
		// A probe beyond every high key hits the ambiguity test.
		_, _, err := ix.Fetch(t1, []byte("zzzzzz"), EQ)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("ambiguous traversal proceeded: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Finish the "SMO": clear the bit, release the latch.
	f2, _ := ix.fixLatched(ix.Root(), latch.X)
	f2.Page.SetSMBit(false)
	ix.unfixLatched(f2, latch.X)
	ix.treeLatch.Release(latch.X)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.stats.AmbiguityRestarts.Load() == 0 {
		t.Fatal("ambiguity restart not recorded")
	}
	e.commit(t1)
}

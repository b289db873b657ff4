package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
)

// countLocks runs op in a fresh transaction on a primed index and returns
// the per-space lock-call deltas.
func countLocks(t *testing.T, proto Protocol, op func(*env, *Index, *txn.Tx)) map[lock.Space]uint64 {
	t.Helper()
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
	out := map[lock.Space]uint64{}
	for s := 0; s < trace.MaxSpaces; s++ {
		var n uint64
		for m := 0; m < trace.MaxModes; m++ {
			for dur := 0; dur < trace.MaxDurations; dur++ {
				n += d.LockCalls[s][m][dur]
			}
		}
		if n > 0 {
			out[lock.Space(s)] = n
		}
	}
	return out
}

func total(m map[lock.Space]uint64) uint64 {
	var t uint64
	for _, n := range m {
		t += n
	}
	return t
}

// TestLockCountComparison quantifies the paper's §1/§5 claim: per
// single-record operation, ARIES/IM (data-only) acquires fewer index locks
// than ARIES/KVL, which acquires fewer than System R.
func TestLockCountComparison(t *testing.T) {
	insert := func(e *env, ix *Index, tx *txn.Tx) { e.mustInsert(tx, ix, key(55)) }
	delete_ := func(e *env, ix *Index, tx *txn.Tx) { e.mustDelete(tx, ix, key(50)) }
	fetch := func(e *env, ix *Index, tx *txn.Tx) {
		if res, _, err := ix.Fetch(tx, key(50).Val, EQ); err != nil || !res.Found {
			t.Fatalf("fetch: %+v %v", res, err)
		}
	}
	for _, tc := range []struct {
		name string
		op   func(*env, *Index, *txn.Tx)
	}{{"insert", insert}, {"delete", delete_}, {"fetch", fetch}} {
		im := total(countLocks(t, DataOnly, tc.op))
		kv := total(countLocks(t, KVL, tc.op))
		sr := total(countLocks(t, SystemR, tc.op))
		t.Logf("%s: ARIES/IM=%d ARIES/KVL=%d SystemR=%d lock calls", tc.name, im, kv, sr)
		if !(im <= kv && kv <= sr) {
			t.Errorf("%s: lock ordering violated: IM=%d KVL=%d SysR=%d", tc.name, im, kv, sr)
		}
		if tc.name != "fetch" && im >= sr {
			t.Errorf("%s: System R not strictly worse than ARIES/IM", tc.name)
		}
	}
}

// TestKVLInsertOfExistingValueTakesIX checks the KVL fast path: inserting
// another instance of an existing value takes a commit-duration IX on the
// value and no next-key lock.
func TestKVLInsertOfExistingValueTakesIX(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1, Protocol: KVL})
	setup := e.tm.Begin()
	e.mustInsert(setup, ix, storage.Key{Val: []byte("dup"), RID: storage.RID{Page: 1, Slot: 1}})
	e.mustInsert(setup, ix, storage.Key{Val: []byte("zzz"), RID: storage.RID{Page: 2, Slot: 2}})
	e.commit(setup)

	tx := e.tm.Begin()
	before := e.stats.Snap()
	e.mustInsert(tx, ix, storage.Key{Val: []byte("dup"), RID: storage.RID{Page: 3, Slot: 3}})
	d := trace.Diff(before, e.stats.Snap())
	if d.LockCalls[int(lock.SpaceKeyValue)][int(lock.IX)][int(lock.Commit)] != 1 {
		t.Errorf("existing-value insert: IX commit calls = %d, want 1",
			d.LockCalls[int(lock.SpaceKeyValue)][int(lock.IX)][int(lock.Commit)])
	}
	if d.LockCalls[int(lock.SpaceKeyValue)][int(lock.X)][int(lock.Commit)] != 0 {
		t.Error("existing-value insert took an X lock")
	}
	e.commit(tx)
}

// TestKVLDuplicateValueConflict demonstrates the concurrency loss §1
// attributes to value locking: two transactions inserting DIFFERENT keys
// with the SAME value conflict under KVL but not under ARIES/IM.
func TestKVLDuplicateValueConflict(t *testing.T) {
	mkKeys := func() (storage.Key, storage.Key) {
		return storage.Key{Val: []byte("shared"), RID: storage.RID{Page: 10, Slot: 1}},
			storage.Key{Val: []byte("shared"), RID: storage.RID{Page: 20, Slot: 2}}
	}
	// Under KVL: t2 blocks on t1's value lock.
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1, Protocol: KVL})
	k1, k2 := mkKeys()
	t1 := e.tm.Begin()
	e.mustInsert(t1, ix, k1)
	t2 := e.tm.Begin()
	done := make(chan error, 1)
	go func() { done <- ix.Insert(t2, k2) }()
	select {
	case err := <-done:
		t.Fatalf("KVL allowed concurrent duplicate-value inserts: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	e.commit(t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	e.commit(t2)

	// Under ARIES/IM data-only locking: no conflict (different records).
	e2 := newEnv(t, 512, 64)
	ix2 := e2.createIndex(Config{ID: 1, Protocol: DataOnly})
	j1, j2 := mkKeys()
	u1 := e2.tm.Begin()
	e2.mustInsert(u1, ix2, j1)
	u2 := e2.tm.Begin()
	if err := ix2.Insert(u2, j2); err != nil {
		t.Fatalf("ARIES/IM blocked concurrent duplicate-value insert: %v", err)
	}
	e2.commit(u1)
	e2.commit(u2)
}

// TestSystemRReadersBlockOnUncommittedSMO shows the §2.1/§5 claim: under
// System R, a completed-but-uncommitted split blocks readers of the split
// pages until the splitter commits; under ARIES/IM the reader proceeds.
func TestSystemRReadersBlockOnUncommittedSMO(t *testing.T) {
	run := func(proto Protocol) (blocked bool) {
		e := newEnv(t, 512, 64)
		ix := e.createIndex(Config{ID: 1, Protocol: proto})
		setup := e.tm.Begin()
		for i := 0; i < 20; i++ {
			e.mustInsert(setup, ix, key(i*10))
		}
		e.commit(setup)
		splitsBefore := e.stats.PageSplits.Load()
		writer := e.tm.Begin()
		i := 0
		for e.stats.PageSplits.Load() == splitsBefore {
			e.mustInsert(writer, ix, key(1000+i))
			i++
			if i > 500 {
				t.Fatal("no split")
			}
		}
		// The split is complete but the writer has not committed. A reader
		// now fetches a key from the original (pre-split) population; it is
		// blocked iff the lock manager queued its request.
		waitsBefore := e.stats.LockWaits.Load()
		reader := e.tm.Begin()
		done := make(chan struct{})
		go func() {
			if _, _, err := ix.Fetch(reader, key(0).Val, EQ); err != nil {
				t.Errorf("reader: %v", err)
			}
			close(done)
		}()
	outcome:
		for {
			select {
			case <-done:
				break outcome
			default:
			}
			if e.stats.LockWaits.Load() > waitsBefore {
				blocked = true
				break
			}
			runtime.Gosched()
		}
		e.commit(writer)
		<-done
		e.commit(reader)
		return blocked
	}
	if run(DataOnly) {
		t.Error("ARIES/IM reader blocked by an uncommitted SMO")
	}
	if !run(SystemR) {
		t.Error("System R reader NOT blocked by an uncommitted SMO (baseline too weak)")
	}
}

// TestSystemRWorkloadCorrectness sanity-checks that the heavyweight
// baseline still produces a correct tree.
func TestSystemRWorkloadCorrectness(t *testing.T) {
	e := newEnv(t, 512, 128)
	ix := e.createIndex(Config{ID: 1, Protocol: SystemR})
	tx := e.tm.Begin()
	var want []storage.Key
	for i := 0; i < 200; i++ {
		e.mustInsert(tx, ix, key(i))
	}
	for i := 50; i < 100; i++ {
		e.mustDelete(tx, ix, key(i))
	}
	e.commit(tx)
	for i := 0; i < 200; i++ {
		if i < 50 || i >= 100 {
			want = append(want, key(i))
		}
	}
	e.checkTree(ix)
	e.expectKeys(ix, want)
}

// TestKVLWorkloadCorrectness does the same for KVL, including duplicates.
func TestKVLWorkloadCorrectness(t *testing.T) {
	e := newEnv(t, 512, 128)
	ix := e.createIndex(Config{ID: 1, Protocol: KVL})
	tx := e.tm.Begin()
	for i := 0; i < 150; i++ {
		e.mustInsert(tx, ix, key(i))
	}
	// Duplicate values with distinct RIDs.
	for i := 0; i < 20; i++ {
		e.mustInsert(tx, ix, storage.Key{Val: []byte("dup"), RID: storage.RID{Page: storage.PageID(9000 + i), Slot: 1}})
	}
	for i := 0; i < 10; i++ {
		e.mustDelete(tx, ix, storage.Key{Val: []byte("dup"), RID: storage.RID{Page: storage.PageID(9000 + i), Slot: 1}})
	}
	e.commit(tx)
	e.checkTree(ix)
	got, _ := ix.Dump()
	if len(got) != 150+10 {
		t.Fatalf("index holds %d keys, want 160", len(got))
	}
}

// TestLadderFallbackEveryProtocol drives every caller of the §2.2 ladder
// (txn.Tx.LockLatched) down its fallback under every protocol: a holder owns
// the name one of the operation's conditional requests will hit, so the
// operation must drop its latches and queue, finish once the holder commits,
// and — the denied request having been waited for unconditionally — hold
// that name afterwards even where Figure 2 asks for it only instantly. A
// cursor-stability fetch alone gives it back.
func TestLadderFallbackEveryProtocol(t *testing.T) {
	k50, k60 := key(50), key(60)
	dup := storage.Key{Val: k50.Val, RID: storage.RID{Page: 5000, Slot: 1}}
	next := func(ix *Index) lock.Name { return ix.keyLockName(k60) }
	cur := func(ix *Index) lock.Name { return ix.keyLockName(k50) }
	// The request of DELETE's row that index-specific locking and System R
	// make instant is the deleted key's own; the others have only the next
	// key's, for commit.
	delName := func(ix *Index) lock.Name {
		if p := ix.Protocol(); p == IndexSpecific || p == SystemR {
			return ix.kvName(k50.Val)
		}
		return next(ix)
	}
	for _, op := range []struct {
		name    string
		unique  bool
		blocker func(*Index) lock.Name // what the holder owns
		run     func(*Index, *txn.Tx) error
		wantErr error
		giveUp  bool // the operation releases the lock itself
	}{
		{name: "fetch", blocker: cur, run: func(ix *Index, tx *txn.Tx) error {
			res, _, err := ix.Fetch(tx, k50.Val, EQ)
			if err == nil && !res.Found {
				err = errors.New("key not found")
			}
			return err
		}},
		{name: "fetch-cs", blocker: cur, giveUp: true, run: func(ix *Index, tx *txn.Tx) error {
			res, err := ix.FetchCS(tx, k50.Val, EQ)
			if err == nil && !res.Found {
				err = errors.New("key not found")
			}
			return err
		}},
		// The next-key request is instant under every protocol.
		{name: "insert", blocker: next, run: func(ix *Index, tx *txn.Tx) error { return ix.Insert(tx, key(55)) }},
		{name: "delete", blocker: delName, run: func(ix *Index, tx *txn.Tx) error { return ix.Delete(tx, k50) }},
		{name: "unique-insert", unique: true, blocker: cur, wantErr: ErrDuplicate,
			run: func(ix *Index, tx *txn.Tx) error { return ix.Insert(tx, dup) }},
	} {
		for _, proto := range []Protocol{DataOnly, IndexSpecific, KVL, SystemR} {
			t.Run(op.name+"/"+proto.String(), func(t *testing.T) {
				e := newEnv(t, 512, 64)
				ix := e.createIndex(Config{ID: 1, Protocol: proto, Unique: op.unique})
				setup := e.tm.Begin()
				for i := 0; i < 10; i++ {
					e.mustInsert(setup, ix, key(i*10))
				}
				e.commit(setup)

				name := op.blocker(ix)
				holder := e.tm.Begin()
				if err := holder.Lock(name, lock.X, lock.Commit, false); err != nil {
					t.Fatal(err)
				}
				tx := e.tm.Begin()
				waits := e.stats.LockWaits.Load()
				done := make(chan error, 1)
				go func() { done <- op.run(ix, tx) }()
				for e.stats.LockWaits.Load() == waits {
					select {
					case err := <-done:
						t.Fatalf("finished without queueing behind the holder of %v: %v", name, err)
					default:
						runtime.Gosched()
					}
				}
				e.commit(holder)
				if err := <-done; !errors.Is(err, op.wantErr) {
					t.Fatalf("after the holder committed: %v, want %v", err, op.wantErr)
				}
				held := false
				for _, h := range e.locks.LocksOf(lock.Owner(tx.ID)) {
					held = held || h.Name == name
				}
				if held == op.giveUp {
					t.Fatalf("holds %v afterwards: %v (locks %v)", name, held, e.locks.LocksOf(lock.Owner(tx.ID)))
				}
				e.commit(tx)
				e.checkTree(ix)
			})
		}
	}
}

// TestDataOnlyAllocations pins what one data-only Fetch, Insert and Delete
// allocate on a resident tree, so that the lock table and the ladder in
// protocol.go stay on the stack.
func TestDataOnlyAllocations(t *testing.T) {
	e := newEnv(t, 16384, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 100; i++ {
		e.mustInsert(setup, ix, key(i*10))
	}
	e.commit(setup)
	var tx *txn.Tx
	read := func(name string, limit float64, op func()) {
		tx = e.tm.Begin()
		n := testing.AllocsPerRun(200, op)
		e.commit(tx)
		t.Logf("%s: %.1f allocations", name, n)
		if n > limit {
			t.Errorf("%s allocates %.1f times, limit %.0f", name, n, limit)
		}
	}
	read("fetch", 4, func() {
		if res, _, err := ix.Fetch(tx, key(500).Val, EQ); err != nil || !res.Found {
			t.Fatalf("fetch: %+v %v", res, err)
		}
	})
	// Every run takes a new key, and the deletes take them back, so no run
	// meets a duplicate, a missing key or (on a 16 KiB page) a split.
	n := 0
	read("insert", 9, func() { n++; e.mustInsert(tx, ix, key(10*n+5)) })
	n = 0
	read("delete", 11, func() { n++; e.mustDelete(tx, ix, key(10*n+5)) })
}

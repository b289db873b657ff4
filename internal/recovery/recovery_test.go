package recovery

import (
	"fmt"
	"testing"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/data"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// env is a crashable engine: the disk and log survive Crash, everything
// else is rebuilt by restart.
type env struct {
	t     *testing.T
	stats *trace.Stats
	disk  *storage.Disk
	log   *wal.Log

	locks *lock.Manager
	tm    *txn.Manager
	pool  *buffer.Pool
	im    *core.Manager
	dm    *data.Manager
	ix    *core.Index

	cfg  core.Config
	root storage.PageID
}

func newEnv(t *testing.T, cfg core.Config) *env {
	t.Helper()
	e := &env{t: t, stats: &trace.Stats{}, cfg: cfg}
	e.disk = storage.NewDisk(512)
	e.log = wal.NewLog(e.stats)
	e.buildVolatile()
	tx := e.tm.Begin()
	ix, err := e.im.CreateIndex(tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.ix = ix
	e.root = ix.Root()
	return e
}

func (e *env) buildVolatile() {
	e.locks = lock.NewManager(e.stats)
	e.tm = txn.NewManager(e.log, e.locks)
	e.pool = buffer.NewPool(e.disk, e.log, 128, e.stats)
	e.im = core.NewManager(e.pool, e.stats)
	e.dm = data.NewManager(e.pool, lock.GranRecord)
	e.tm.SetUndoer(undoRouter{e.im, e.dm})
}

// undoRouter sends heap records to the record manager and everything else
// to the index manager, as the engine's does.
type undoRouter struct {
	im *core.Manager
	dm *data.Manager
}

func (u undoRouter) Undo(tx *txn.Tx, rec *wal.Record) error {
	if rec.Op >= wal.OpDataFormat && rec.Op <= wal.OpDataFree {
		return u.dm.Undo(tx, rec)
	}
	return u.im.Undo(tx, rec)
}

// crash loses all volatile state (unforced log tail, buffer pool, locks,
// transaction table).
func (e *env) crash() {
	e.log.Crash()
	e.pool.Crash()
}

// restart rebuilds the managers, reopens the index, and runs recovery.
func (e *env) restart() *Report {
	e.t.Helper()
	e.buildVolatile()
	e.ix = e.im.OpenIndex(e.cfg, e.root)
	rep, err := RestartWith(e.log, e.pool, e.tm, e.locks, e.stats, nil, RestartOpts{})
	if err != nil {
		e.t.Fatalf("restart: %v", err)
	}
	return rep
}

func key(i int) storage.Key {
	return storage.Key{
		Val: []byte(fmt.Sprintf("key%05d", i)),
		RID: storage.RID{Page: storage.PageID(1000 + i), Slot: uint16(i % 100)},
	}
}

func (e *env) insertRange(tx *txn.Tx, from, to int) {
	e.t.Helper()
	for i := from; i < to; i++ {
		if err := e.ix.Insert(tx, key(i)); err != nil {
			e.t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func (e *env) deleteRange(tx *txn.Tx, from, to int) {
	e.t.Helper()
	for i := from; i < to; i++ {
		if err := e.ix.Delete(tx, key(i)); err != nil {
			e.t.Fatalf("delete %d: %v", i, err)
		}
	}
}

func (e *env) expectKeySet(want map[int]bool) {
	e.t.Helper()
	if err := e.ix.CheckStructure(); err != nil {
		e.t.Fatal(err)
	}
	got, err := e.ix.Dump()
	if err != nil {
		e.t.Fatal(err)
	}
	gotSet := map[string]bool{}
	for _, k := range got {
		gotSet[string(k.Val)] = true
	}
	for i, present := range want {
		if present && !gotSet[string(key(i).Val)] {
			e.t.Fatalf("key %d missing after restart", i)
		}
		if !present && gotSet[string(key(i).Val)] {
			e.t.Fatalf("key %d present after restart, should be gone", i)
		}
	}
	if n := 0; true {
		for _, p := range want {
			if p {
				n++
			}
		}
		if len(got) != n {
			e.t.Fatalf("index holds %d keys, want %d", len(got), n)
		}
	}
}

func TestRestartRecoversCommittedWork(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 200)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := e.tm.Begin()
	e.deleteRange(tx2, 50, 100)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing was flushed: the whole tree lives only in the (forced) log.
	e.crash()
	rep := e.restart()
	if rep.RedosApplied == 0 {
		t.Fatal("no redos applied despite empty disk")
	}
	want := map[int]bool{}
	for i := 0; i < 200; i++ {
		want[i] = i < 50 || i >= 100
	}
	e.expectKeySet(want)
}

func TestRestartUndoesInFlight(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 100)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// An in-flight transaction with inserts and deletes.
	inflight := e.tm.Begin()
	e.insertRange(inflight, 200, 240)
	e.deleteRange(inflight, 10, 30)
	e.log.ForceAll() // everything stable, but no commit record
	e.crash()
	rep := e.restart()
	if rep.LosersUndone != 1 {
		t.Fatalf("losers undone = %d, want 1", rep.LosersUndone)
	}
	want := map[int]bool{}
	for i := 0; i < 100; i++ {
		want[i] = true
	}
	for i := 200; i < 240; i++ {
		want[i] = false
	}
	e.expectKeySet(want)
}

func TestRestartAfterPartialFlush(t *testing.T) {
	// Some pages flushed (steal), some not: redo must fill exactly the
	// gaps, guided by page LSNs.
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 300)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Flush roughly half the dirty pages.
	dpt := e.pool.DPT()
	for i, entry := range dpt {
		if i%2 == 0 {
			if err := e.pool.FlushPage(entry.Page); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.crash()
	rep := e.restart()
	if rep.RedosSkipped == 0 {
		t.Fatal("no redos skipped despite flushed pages")
	}
	if rep.RedosApplied == 0 {
		t.Fatal("no redos applied despite unflushed pages")
	}
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

func TestRedoIsPageOriented(t *testing.T) {
	// The redo pass must never traverse the tree (§3): the traversal
	// counter stays frozen across redo.
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 300)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.crash()
	e.buildVolatile()
	e.ix = e.im.OpenIndex(e.cfg, e.root)
	before := e.stats.Traversals.Load()
	rep, err := RestartWith(e.log, e.pool, e.tm, e.locks, e.stats, nil, RestartOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedosApplied == 0 {
		t.Fatal("nothing redone")
	}
	if got := e.stats.Traversals.Load(); got != before {
		t.Fatalf("redo pass performed %d tree traversals", got-before)
	}
}

func TestCrashMidSMORestoresStructure(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 60)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	splitsBefore := e.stats.PageSplits.Load()
	tx := e.tm.Begin()
	i := 60
	for e.stats.PageSplits.Load() == splitsBefore {
		if err := e.ix.Insert(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if i > 1000 {
			t.Fatal("no split")
		}
	}
	// Truncate the stable log in the middle of the SMO: keep the format
	// record but drop the dummy CLR and beyond.
	var cut wal.LSN
	for _, r := range e.log.SnapshotFrom(1) {
		if r.TxID == tx.ID && r.Op == wal.OpIdxSplitLeft {
			cut = r.LSN
		}
	}
	if cut == wal.NilLSN {
		t.Fatal("no split-left record found")
	}
	e.log.Force(cut)
	e.crash()
	rep := e.restart()
	if rep.LosersUndone != 1 {
		t.Fatalf("losers = %d", rep.LosersUndone)
	}
	// The partial SMO was rolled back page-oriented: an unsplit CLR exists.
	foundUnsplit := false
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR && r.Op == wal.OpIdxUnsplitLeft {
			foundUnsplit = true
		}
	}
	if !foundUnsplit {
		t.Fatal("no page-oriented unsplit CLR written")
	}
	want := map[int]bool{}
	for j := 0; j < 60; j++ {
		want[j] = true
	}
	for j := 60; j < i; j++ {
		want[j] = false
	}
	e.expectKeySet(want)
}

func TestFigure11DeleteBitPOSC(t *testing.T) {
	// T1 deletes a key, freeing space; T2's insert consumes that space
	// after establishing a POSC (Delete_Bit protocol) and commits; the
	// system crashes with T1 in flight. Restart must undo T1's delete
	// logically (a split is needed: the space is gone) — which is only
	// possible because the Delete_Bit forced T2 to wait out any SMO.
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 100)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// T2 will insert keys just after key(anchor); T1 deletes a key on the
	// SAME leaf that is neither adjacent to the insertion point (its
	// next-key lock must not block T2) nor a boundary key (a boundary
	// delete clears the Delete_Bit under its POSC).
	anchor := 15
	leaf, _, err := e.ix.LeafOf(key(anchor))
	if err != nil {
		t.Fatal(err)
	}
	var onLeaf []int
	for i := anchor + 2; i < 100; i++ {
		l, _, err := e.ix.LeafOf(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if l == leaf {
			onLeaf = append(onLeaf, i)
		}
	}
	if len(onLeaf) < 5 {
		t.Fatalf("leaf of key(%d) holds only %d later keys", anchor, len(onLeaf))
	}
	victim := onLeaf[len(onLeaf)/2]
	t1 := e.tm.Begin()
	if err := e.ix.Delete(t1, key(victim)); err != nil {
		t.Fatal(err)
	}

	// T2 fills the same leaf until it spills: the freed space is consumed.
	t2 := e.tm.Begin()
	poscBefore := e.stats.DeleteBitPOSCs.Load()
	j := 0
	for {
		k := storage.Key{Val: append(append([]byte(nil), key(anchor).Val...), byte('a'+j%26), byte('a'+(j/26)%26)),
			RID: storage.RID{Page: storage.PageID(5000 + j), Slot: 1}}
		if err := e.ix.Insert(t2, k); err != nil {
			t.Fatal(err)
		}
		l, _, err := e.ix.LeafOf(k)
		if err != nil {
			t.Fatal(err)
		}
		if l != leaf {
			break // the leaf split: definitely no room left on it
		}
		j++
		if j > 500 {
			t.Fatal("leaf never filled")
		}
	}
	if e.stats.DeleteBitPOSCs.Load() == poscBefore {
		t.Fatal("T2 consumed freed space without establishing a POSC")
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Crash with T1 in flight (everything logged is stable).
	e.log.ForceAll()
	e.crash()
	logicalBefore := e.stats.UndoLogical.Load()
	rep := e.restart()
	if rep.LosersUndone != 1 {
		t.Fatalf("losers = %d", rep.LosersUndone)
	}
	if e.stats.UndoLogical.Load() == logicalBefore {
		t.Fatal("undo of the delete was not logical despite consumed space")
	}
	// T1's deleted key is back; T2's committed inserts survive.
	if err := e.ix.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	dump, err := e.ix.Dump()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	t2Count := 0
	for _, k := range dump {
		if string(k.Val) == string(key(victim).Val) {
			found = true
		}
		if len(k.Val) == len(key(victim).Val)+2 {
			t2Count++
		}
	}
	if !found {
		t.Fatal("T1's deleted key not restored")
	}
	if t2Count < j {
		t.Fatalf("T2's committed inserts lost: %d of %d", t2Count, j)
	}
}

// limitedUndoer injects a failure after a budget of undos, simulating a
// crash in the middle of the restart undo pass.
type limitedUndoer struct {
	inner     txn.Undoer
	remaining int
}

func (u *limitedUndoer) Undo(tx *txn.Tx, rec *wal.Record) error {
	if u.remaining == 0 {
		return fmt.Errorf("injected crash during undo")
	}
	u.remaining--
	return u.inner.Undo(tx, rec)
}

func TestRepeatedCrashBoundedLogging(t *testing.T) {
	// Crash during restart undo, repeatedly: CLR chaining must bound the
	// total log growth — every update is compensated exactly once across
	// all attempts (§1.2).
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 50)
	e.log.ForceAll()
	e.crash()

	countCLRs := func() int {
		n := 0
		for _, r := range e.log.SnapshotFrom(1) {
			if r.Type == wal.RecCLR && r.Op != wal.OpNone {
				n++
			}
		}
		return n
	}

	// Three restarts that die mid-undo (with their partial CLRs forced,
	// as a real log buffer flush would), then a clean one.
	for round := 0; round < 3; round++ {
		e.buildVolatile()
		e.ix = e.im.OpenIndex(e.cfg, e.root)
		e.tm.SetUndoer(&limitedUndoer{inner: e.im, remaining: 10})
		if _, err := RestartWith(e.log, e.pool, e.tm, e.locks, e.stats, nil, RestartOpts{}); err == nil {
			t.Fatalf("round %d: injected crash did not surface", round)
		}
		e.log.ForceAll()
		e.crash()
	}
	e.restart()
	if got := countCLRs(); got > 50+5 {
		t.Fatalf("%d CLRs for 50 updates: logging not bounded across repeated failures", got)
	}
	e.expectKeySet(map[int]bool{})
}

func TestCheckpointBoundsAnalysis(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 100)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.tm.Checkpoint(e.pool)
	tx2 := e.tm.Begin()
	e.insertRange(tx2, 100, 110)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	e.crash()
	rep := e.restart()
	if rep.AnalyzedFrom == wal.NilLSN+1 {
		t.Fatal("analysis ignored the checkpoint")
	}
	// The checkpoint's DPT must still drive redo back before the
	// checkpoint (pages dirtied earlier and never flushed).
	want := map[int]bool{}
	for i := 0; i < 110; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

func TestMediaRecovery(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 200)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	img := TakeImageCopy(e.disk, e.log)

	// More committed work after the dump.
	tx2 := e.tm.Begin()
	e.deleteRange(tx2, 0, 20)
	e.insertRange(tx2, 300, 350)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Destroy every index page on disk, then rebuild each from the dump +
	// log roll-forward.
	e.pool.Crash() // drop cached frames so reads hit the damaged disk
	var damaged []storage.PageID
	for _, pid := range e.disk.PageIDs() {
		buf := make([]byte, 512)
		_ = e.disk.Read(pid, buf)
		if storage.PageFromBytes(buf).Type() == storage.PageTypeIndex {
			damaged = append(damaged, pid)
			e.disk.Corrupt(pid)
		}
	}
	if len(damaged) < 3 {
		t.Fatalf("only %d index pages to damage", len(damaged))
	}
	for _, pid := range damaged {
		if err := RecoverPage(e.disk, e.log, img, pid); err != nil {
			t.Fatalf("recover page %d: %v", pid, err)
		}
	}
	want := map[int]bool{}
	for i := 0; i < 200; i++ {
		want[i] = i >= 20
	}
	for i := 300; i < 350; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

func TestCrashAtEveryNthRecord(t *testing.T) {
	// Property: crash at many points through a scripted workload; after
	// restart, exactly the transactions whose commit record made it to
	// stable storage are visible, and the tree is structurally sound.
	type txScript struct {
		commitLSN wal.LSN
		from, to  int
		isDelete  bool
	}
	build := func() (*env, []txScript) {
		e := newEnv(t, core.Config{ID: 1})
		var scripts []txScript
		base := e.tm.Begin()
		e.insertRange(base, 0, 120)
		if err := base.Commit(); err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, txScript{commitLSN: base.LastLSN(), from: 0, to: 120})
		for g := 0; g < 6; g++ {
			tx := e.tm.Begin()
			from := 200 + g*50
			e.insertRange(tx, from, from+30)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			scripts = append(scripts, txScript{commitLSN: tx.LastLSN(), from: from, to: from + 30})
			del := e.tm.Begin()
			e.deleteRange(del, g*20, g*20+10)
			if err := del.Commit(); err != nil {
				t.Fatal(err)
			}
			scripts = append(scripts, txScript{commitLSN: del.LastLSN(), from: g * 20, to: g*20 + 10, isDelete: true})
		}
		// One in-flight transaction at the end.
		fly := e.tm.Begin()
		e.insertRange(fly, 900, 930)
		return e, scripts
	}

	// Probe crash points spread across the log: every 53rd record, a fixed
	// step so that the subtests keep their names when the workload's record
	// count moves (11 points over its ~600 records). Commits force the
	// log, so losing the tail requires the TruncateTo failure-injection
	// hook; that is only a faithful crash if no page ever reached the disk
	// with a higher LSN — asserted via the disk write counter.
	const step = 53
	probe, _ := build()
	all := probe.log.SnapshotFrom(1)
	if len(all) < 6*step {
		t.Fatalf("the workload logged %d records; the probe wants at least %d", len(all), 6*step)
	}
	for idx := step; idx < len(all); idx += step {
		idx := idx
		t.Run(fmt.Sprintf("crash-at-%d", idx), func(t *testing.T) {
			e, scripts := build()
			if e.disk.WriteCount() != 0 {
				t.Fatal("workload stole pages to disk; truncation would be unfaithful")
			}
			recs := e.log.SnapshotFrom(1)
			cut := recs[idx].LSN
			e.log.TruncateTo(cut)
			e.pool.Crash()
			e.restart()
			want := map[int]bool{}
			for _, s := range scripts {
				if s.commitLSN > cut {
					continue // commit record lost: transaction undone
				}
				for i := s.from; i < s.to; i++ {
					want[i] = !s.isDelete
				}
			}
			e.expectKeySet(want)
		})
	}
}

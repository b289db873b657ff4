package recovery

import (
	"fmt"
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// TestCrashMatrixWithPageDeletes extends the crash-point sweep with a
// workload whose deletes empty pages (page-deletion SMOs in the log), so
// truncation points land inside and around page-delete nested top actions.
func TestCrashMatrixWithPageDeletes(t *testing.T) {
	build := func() (*env, wal.LSN, wal.LSN) {
		e := newEnv(t, core.Config{ID: 1})
		tx := e.tm.Begin()
		e.insertRange(tx, 0, 150)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		insertCommit := tx.LastLSN()
		// Drain a large contiguous range: guarantees page deletions.
		drain := e.tm.Begin()
		e.deleteRange(drain, 20, 120)
		if err := drain.Commit(); err != nil {
			t.Fatal(err)
		}
		if e.stats.PageDeletes.Load() == 0 {
			t.Fatal("workload caused no page deletions")
		}
		return e, insertCommit, drain.LastLSN()
	}
	probe, _, _ := build()
	all := probe.log.SnapshotFrom(1)
	step := len(all) / 10
	for idx := step; idx < len(all); idx += step {
		idx := idx
		t.Run(fmt.Sprintf("cut-%d", idx), func(t *testing.T) {
			e, insertCommit, drainCommit := build()
			if e.disk.WriteCount() != 0 {
				t.Fatal("pages stolen; truncation unfaithful")
			}
			recs := e.log.SnapshotFrom(1)
			cut := recs[idx].LSN
			e.log.TruncateTo(cut)
			e.pool.Crash()
			e.restart()
			want := map[int]bool{}
			for i := 0; i < 150; i++ {
				want[i] = insertCommit <= cut
			}
			if drainCommit <= cut {
				for i := 20; i < 120; i++ {
					want[i] = false
				}
			}
			e.expectKeySet(want)
		})
	}
}

// TestMediaRecoveryOfFSMPage destroys the free-space-map page itself and
// rebuilds it from the dump + log; subsequent SMOs must still allocate
// correctly (no double allocation of live pages).
func TestMediaRecoveryOfFSMPage(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 150)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	img := TakeImageCopy(e.disk, e.log)
	tx2 := e.tm.Begin()
	e.insertRange(tx2, 150, 300) // more allocations after the dump
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.pool.Crash()
	e.disk.Corrupt(storage.FSMPageID)
	if err := RecoverPage(e.disk, e.log, img, storage.FSMPageID); err != nil {
		t.Fatal(err)
	}
	// The restored FSM must agree with the live tree: new inserts must not
	// clobber existing pages.
	tx3 := e.tm.Begin()
	e.insertRange(tx3, 300, 450)
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for i := 0; i < 450; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

// TestRestartIdempotent runs restart twice in a row (crash immediately
// after a completed restart): the second pass must be a no-op
// semantically.
func TestRestartIdempotent(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 80)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	loser := e.tm.Begin()
	e.insertRange(loser, 80, 100)
	e.log.ForceAll()
	e.crash()
	e.restart()
	e.crash() // nothing new forced beyond what restart wrote + forced
	rep := e.restart()
	if rep.LosersUndone != 0 {
		t.Fatalf("second restart undid %d losers", rep.LosersUndone)
	}
	want := map[int]bool{}
	for i := 0; i < 80; i++ {
		want[i] = true
	}
	for i := 80; i < 100; i++ {
		want[i] = false
	}
	e.expectKeySet(want)
}

// TestCheckpointMidWorkloadSweep takes a fuzzy checkpoint in the middle of
// live transactions, then crashes at points after it: analysis must start
// from the checkpoint yet still recover pre-checkpoint dirty pages via the
// checkpoint's DPT.
func TestCheckpointMidWorkloadSweep(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	t1 := e.tm.Begin()
	e.insertRange(t1, 0, 60) // dirties pages before the checkpoint
	// Fuzzy checkpoint with t1 still in flight.
	e.tm.Checkpoint(e.pool)
	e.insertRange(t1, 60, 90)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2 := e.tm.Begin()
	e.insertRange(t2, 100, 120)
	e.log.ForceAll()
	master := e.log.Master() // restart itself checkpoints, moving Master
	e.crash()
	rep := e.restart()
	if rep.AnalyzedFrom != master {
		t.Fatalf("analysis from %d, checkpoint at %d", rep.AnalyzedFrom, master)
	}
	if rep.RedoFrom >= master {
		t.Fatalf("redo from %d did not reach back before the checkpoint (master %d)",
			rep.RedoFrom, master)
	}
	want := map[int]bool{}
	for i := 0; i < 90; i++ {
		want[i] = true
	}
	for i := 100; i < 120; i++ {
		want[i] = false
	}
	e.expectKeySet(want)
}

// TestLoserWithLogicalUndoAtRestartAfterStolenPages combines steals (dirty
// pages on disk ahead of some log records) with restart logical undo.
func TestLoserWithLogicalUndoAtRestartAfterStolenPages(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 100)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Loser deletes a key...
	loser := e.tm.Begin()
	if err := e.ix.Delete(loser, key(30)); err != nil {
		t.Fatal(err)
	}
	// ...a committed transaction splits the loser's leaf (space reshaped).
	filler := e.tm.Begin()
	for j := 0; j < 60; j++ {
		k := storage.Key{Val: append(append([]byte(nil), key(25).Val...), byte('a'+j%26), byte('a'+(j/26)%26)),
			RID: storage.RID{Page: storage.PageID(7000 + j), Slot: 1}}
		if err := e.ix.Insert(filler, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := filler.Commit(); err != nil {
		t.Fatal(err)
	}
	// Steal everything to disk, then crash with the loser in flight.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.log.ForceAll()
	e.crash()
	rep := e.restart()
	if rep.LosersUndone != 1 {
		t.Fatalf("losers = %d", rep.LosersUndone)
	}
	if rep.RedosApplied != 0 {
		t.Fatalf("redo applied %d records onto fully flushed pages", rep.RedosApplied)
	}
	// The loser's delete was undone; all committed keys survive.
	if err := e.ix.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	dump, err := e.ix.Dump()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range dump {
		if string(k.Val) == string(key(30).Val) {
			found = true
		}
	}
	if !found {
		t.Fatal("loser's deleted key not restored")
	}
	if len(dump) != 100+60 {
		t.Fatalf("index holds %d keys, want 160", len(dump))
	}
}

// TestAnalysisSkipsEndedTransactions verifies the transaction-table
// bookkeeping: committed+ended and rolled-back+ended transactions leave no
// residue for the undo pass.
func TestAnalysisSkipsEndedTransactions(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	a := e.tm.Begin()
	e.insertRange(a, 0, 10)
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	b := e.tm.Begin()
	e.insertRange(b, 10, 20)
	if err := b.Rollback(); err != nil {
		t.Fatal(err)
	}
	e.log.ForceAll()
	e.crash()
	rep := e.restart()
	if rep.LosersUndone != 0 {
		t.Fatalf("ended transactions treated as losers: %d", rep.LosersUndone)
	}
	want := map[int]bool{}
	for i := 0; i < 10; i++ {
		want[i] = true
	}
	for i := 10; i < 20; i++ {
		want[i] = false
	}
	e.expectKeySet(want)
}

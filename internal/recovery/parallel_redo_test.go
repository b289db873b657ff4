package recovery

import (
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// restartWith is env.restart with explicit options (parallel redo tests).
func (e *env) restartWith(opts RestartOpts) *Report {
	e.t.Helper()
	e.buildVolatile()
	e.ix = e.im.OpenIndex(e.cfg, e.root)
	rep, err := RestartWith(e.log, e.pool, e.tm, e.locks, e.stats, nil, opts)
	if err != nil {
		e.t.Fatalf("restart: %v", err)
	}
	return rep
}

// TestAnalyzeCorruptEndCkptFallsBack is the regression test for the
// data-loss bug where analyze primed itself from an end-ckpt record whose
// payload failed to decode: it would start at the master LSN with an EMPTY
// tx table and DPT, silently dropping every pre-checkpoint loser and dirty
// page. The fix falls back to full-log analysis.
func TestAnalyzeCorruptEndCkptFallsBack(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})

	// Committed work that lives only in dirty buffer pages at checkpoint
	// time: its recovery depends entirely on the checkpoint's DPT (or, on
	// a corrupt checkpoint, on analyzing the full log).
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 120)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A checkpoint whose end record survived but whose tx-table/DPT
	// snapshot does not decode (torn on the media): a one-byte payload.
	master := e.log.Append(&wal.Record{Type: wal.RecBeginCkpt})
	e.log.Append(&wal.Record{Type: wal.RecEndCkpt, Payload: []byte{1}})
	e.log.ForceAll()
	e.log.SetMaster(master)

	// Post-checkpoint work plus an in-flight loser, so the corrupt-ckpt
	// restart has both redo and undo to get right.
	tx2 := e.tm.Begin()
	e.insertRange(tx2, 120, 160)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	loser := e.tm.Begin()
	e.insertRange(loser, 160, 170)
	e.log.ForceAll()
	e.crash()

	rep := e.restart()
	if rep.AnalyzedFrom != wal.NilLSN+1 {
		t.Fatalf("analysis started at LSN %d; a corrupt end-ckpt must force full-log analysis (LSN %d)",
			rep.AnalyzedFrom, wal.NilLSN+1)
	}
	want := map[int]bool{}
	for i := 0; i < 160; i++ {
		want[i] = true
	}
	for i := 160; i < 170; i++ {
		want[i] = false // the loser must be undone, not dropped
	}
	e.expectKeySet(want)
}

// TestReportRedoFromEmptyDPT covers the reporting bug where a restart with
// nothing to redo left Report.RedoFrom at the zero LSN, claiming redo
// started before the log began.
func TestReportRedoFromEmptyDPT(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 50)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Everything flushed before the checkpoint: the DPT is empty, and no
	// redoable record follows the checkpoint.
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.tm.Checkpoint(e.pool)
	e.log.ForceAll()
	e.crash()

	rep := e.restart()
	if rep.RedosApplied != 0 {
		t.Fatalf("redo applied %d records; everything was on disk", rep.RedosApplied)
	}
	if rep.RedoFrom == wal.NilLSN {
		t.Fatal("empty-DPT restart reported RedoFrom at the zero LSN")
	}
	if rep.RedoFrom != rep.AnalyzedFrom {
		t.Fatalf("RedoFrom = %d, want the analyzed-from LSN %d", rep.RedoFrom, rep.AnalyzedFrom)
	}
	want := map[int]bool{}
	for i := 0; i < 50; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

// TestRecoverPagesSingleScan asserts the batched media recovery rebuilds
// many damaged pages in ONE forward log pass — the scanned-record count
// is bounded by the log length, not pages × records.
func TestRecoverPagesSingleScan(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	e.insertRange(tx, 0, 300) // enough keys to split across many pages
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.log.ForceAll()

	ids := e.disk.PageIDs()
	if len(ids) < 3 {
		t.Fatalf("workload touched only %d pages; need >= 3", len(ids))
	}
	victims := []storage.PageID{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
	for _, pid := range victims {
		e.disk.Corrupt(pid)
	}

	img := &ImageCopy{Pages: map[storage.PageID][]byte{}}
	scanned, err := RecoverPages(e.disk, e.log, img, victims)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.log.NumRecords(); scanned > n {
		t.Fatalf("batched recovery of %d pages examined %d records; one scan of the %d-record log suffices",
			len(victims), scanned, n)
	}

	// The rebuilt pages must serve the full tree again.
	e.buildVolatile()
	e.ix = e.im.OpenIndex(e.cfg, e.root)
	want := map[int]bool{}
	for i := 0; i < 300; i++ {
		want[i] = true
	}
	e.expectKeySet(want)
}

// TestParallelRedoMatchesSerial runs the same crash through the serial
// baseline and a parallel restart and expects the same recovered key set
// and the same applied/skipped totals.
func TestParallelRedoMatchesSerial(t *testing.T) {
	build := func() *env {
		e := newEnv(t, core.Config{ID: 1})
		tx := e.tm.Begin()
		e.insertRange(tx, 0, 200)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		tx2 := e.tm.Begin()
		e.deleteRange(tx2, 40, 90)
		if err := tx2.Commit(); err != nil {
			t.Fatal(err)
		}
		e.tm.Checkpoint(e.pool)
		tx3 := e.tm.Begin()
		e.insertRange(tx3, 200, 260)
		if err := tx3.Commit(); err != nil {
			t.Fatal(err)
		}
		loser := e.tm.Begin()
		e.insertRange(loser, 260, 270)
		e.log.ForceAll()
		e.crash()
		return e
	}
	want := map[int]bool{}
	for i := 0; i < 260; i++ {
		want[i] = i < 40 || i >= 90
	}
	for i := 260; i < 270; i++ {
		want[i] = false
	}

	serial := build().restartWith(RestartOpts{RedoWorkers: 1})
	for _, workers := range []int{2, 8} {
		e := build()
		rep := e.restartWith(RestartOpts{RedoWorkers: workers})
		if rep.RedoWorkers < 2 {
			t.Fatalf("requested %d workers, effective %d", workers, rep.RedoWorkers)
		}
		if rep.RedosApplied != serial.RedosApplied || rep.RedosSkipped != serial.RedosSkipped {
			t.Fatalf("%d workers applied/skipped %d/%d, serial %d/%d",
				workers, rep.RedosApplied, rep.RedosSkipped, serial.RedosApplied, serial.RedosSkipped)
		}
		e.expectKeySet(want)
	}
}

package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// reference is the oracle every redo caller is held to: a straight-line
// pass that applies each redoable record, in log order, to an in-memory
// copy of the page it names, under nothing but the page_LSN guard. No
// plan, no DPT, no pool, no workers.
func reference(t *testing.T, pages map[storage.PageID]*storage.Page, recs []*wal.Record) {
	t.Helper()
	for _, r := range recs {
		if !r.Redoable() {
			continue
		}
		p := pages[r.Page]
		if p == nil {
			p = storage.NewPage(512)
			pages[r.Page] = p
		}
		if p.LSN() >= uint64(r.LSN) {
			continue
		}
		if err := routeRedo(p, r); err != nil {
			t.Fatalf("reference redo of %s: %v", r, err)
		}
		p.SetLSN(uint64(r.LSN))
	}
}

// imagePages copies a disk snapshot into the reference's page map.
func imagePages(snap map[storage.PageID][]byte) map[storage.PageID]*storage.Page {
	pages := make(map[storage.PageID]*storage.Page, len(snap))
	for pid, b := range snap {
		pages[pid] = storage.PageFromBytes(append([]byte(nil), b...))
	}
	return pages
}

// expectDisk fails unless disk holds exactly the reference's pages, byte
// for byte (the checksum is stamped at write-back, so the reference's
// copy is stamped the same way before comparing).
func expectDisk(t *testing.T, what string, disk *storage.Disk, want map[storage.PageID]*storage.Page) {
	t.Helper()
	got := disk.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages on disk, reference has %d", what, len(got), len(want))
	}
	for pid, p := range want {
		w := p.Clone()
		w.UpdateChecksum()
		if !bytes.Equal(got[pid], w.Bytes()) {
			t.Fatalf("%s: page %d (page_LSN %d on disk, %d in the reference) differs from the serial reference",
				what, pid, storage.PageFromBytes(got[pid]).LSN(), p.LSN())
		}
	}
}

// fork clones e's stable state — the disk as it is now, the log cut at
// boundary L — into an engine of its own.
func (e *env) fork(L wal.LSN) *env {
	f := &env{t: e.t, stats: &trace.Stats{}, cfg: e.cfg, root: e.root, disk: e.disk.Clone()}
	f.log = e.log.Clone(f.stats)
	f.log.TruncateTo(L)
	f.buildVolatile()
	f.ix = f.im.OpenIndex(f.cfg, f.root)
	return f
}

// buildSweepWorkload is the recovery package's crash-sweep workload: a
// flushed base (so the crash image and the DPT's recLSNs are not trivial),
// then splits, page deletes, a rollback's CLRs, a fuzzy checkpoint with a
// transaction in flight, and two trailing losers — one with deletes (undone
// before an online restart opens) and one with inserts and updates only
// (undone after). Beside the tree a few heap rows are updated in place by
// each of them: same length, grown, rolled back, in the losers. Every record
// after the returned LSN is a legal crash boundary.
func buildSweepWorkload(t *testing.T) (*env, wal.LSN) {
	t.Helper()
	e := newEnv(t, core.Config{ID: 1})
	base := e.tm.Begin()
	e.insertRange(base, 0, 120)
	heap, err := e.dm.CreateTable(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	rids := make([]storage.RID, 5)
	for i := range rids {
		if rids[i], err = heap.Insert(base, bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	update := func(tx *txn.Tx, row int, b byte, size int) {
		t.Helper()
		if ok, err := heap.Update(tx, rids[row], bytes.Repeat([]byte{b}, size), false); err != nil || !ok {
			t.Fatalf("update of heap row %d in place: %v, %v", row, ok, err)
		}
	}
	if err := base.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	setup, writes := e.log.MaxLSN(), e.disk.WriteCount()

	grow := e.tm.Begin()
	update(grow, 0, 'A', 40)
	e.insertRange(grow, 120, 200)
	update(grow, 1, 'B', 64)
	if err := grow.Commit(); err != nil {
		t.Fatal(err)
	}
	undone := e.tm.Begin()
	update(undone, 2, 'C', 72)
	e.deleteRange(undone, 20, 60)
	update(undone, 2, 'c', 72)
	if err := undone.Rollback(); err != nil {
		t.Fatal(err)
	}
	shrink := e.tm.Begin()
	e.deleteRange(shrink, 100, 150)
	if err := shrink.Commit(); err != nil {
		t.Fatal(err)
	}
	straddler := e.tm.Begin()
	e.insertRange(straddler, 300, 320)
	update(straddler, 3, 'D', 48)
	e.tm.Checkpoint(e.pool)
	e.insertRange(straddler, 320, 330)
	update(straddler, 3, 'd', 56)
	if err := straddler.Commit(); err != nil {
		t.Fatal(err)
	}
	deleter := e.tm.Begin()
	e.insertRange(deleter, 400, 410)
	e.deleteRange(deleter, 0, 8)
	update(deleter, 4, 'E', 40)
	inserter := e.tm.Begin()
	e.insertRange(inserter, 500, 510)
	update(inserter, 0, 'F', 80)
	update(inserter, 1, 'G', 64)
	e.log.ForceAll()
	if e.disk.WriteCount() != writes {
		t.Fatal("workload stole pages to disk; truncating the log under them would not be a crash")
	}
	return e, setup
}

// TestReplayMatchesSerialReference holds all four redo callers to the
// straight-line reference, at every crash boundary of the sweep workload:
// the restart coordinator's flushed disk (offline with 1 and 8 workers,
// online after Wait) against the reference run over the crash image and
// the log that restart left behind; a standby fed the log in 1-, 7- and
// 64-record batches, and media recovery of every page from an empty image,
// against the reference run from nothing. (-short restarts at every eighth
// boundary only; the race pass is what runs it so.)
func TestReplayMatchesSerialReference(t *testing.T) {
	e, setup := buildSweepWorkload(t)
	crashImage := e.disk.Snapshot()
	recs := e.log.SnapshotFrom(1)
	var updates, updateCLRs int
	for _, r := range recs {
		if r.Op == wal.OpDataUpdate && r.Type == wal.RecUpdate {
			updates++
		} else if r.Op == wal.OpDataUpdate {
			updateCLRs++
		}
	}
	if updates < 9 || updateCLRs < 2 {
		t.Fatalf("the workload logged %d updates in place and %d of their CLRs", updates, updateCLRs)
	}

	restarts := []struct {
		name string
		run  func(f *env) error
	}{
		{"offline/1", func(f *env) error {
			_, err := RestartWith(f.log, f.pool, f.tm, f.locks, f.stats, nil, RestartOpts{RedoWorkers: 1})
			return err
		}},
		{"offline/8", func(f *env) error {
			_, err := RestartWith(f.log, f.pool, f.tm, f.locks, f.stats, nil, RestartOpts{RedoWorkers: 8})
			return err
		}},
		{"online", func(f *env) error {
			o, err := StartOnline(f.log, f.pool, f.tm, f.locks, f.stats, nil,
				OnlineOpts{RestartOpts: RestartOpts{RedoWorkers: 2}})
			if err == nil {
				_, err = o.Wait()
			}
			return err
		}},
	}

	// The standbys: an empty disk each, fed the log front to back.
	type standby struct {
		batch int
		disk  *storage.Disk
		pool  *buffer.Pool
		fed   int
	}
	var standbys []*standby
	for _, batch := range []int{1, 7, 64} {
		d := storage.NewDisk(512)
		standbys = append(standbys, &standby{batch: batch, disk: d, pool: buffer.NewPool(d, e.log, 128, nil)})
	}
	fromNothing := map[storage.PageID]*storage.Page{} // the reference of recs[:i+1] over no image

	boundaries := 0
	for i, r := range recs {
		reference(t, fromNothing, recs[i:i+1])
		for _, s := range standbys {
			if i+1-s.fed < s.batch && i+1 < len(recs) {
				continue
			}
			if _, err := ApplyRecords(s.pool, recs[s.fed:i+1], 2, nil); err != nil {
				t.Fatalf("standby/%d at LSN %d: %v", s.batch, r.LSN, err)
			}
			s.fed = i + 1
			if err := s.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			expectDisk(t, fmt.Sprintf("standby/%d at LSN %d", s.batch, r.LSN), s.disk, fromNothing)
		}
		if r.LSN <= setup || (testing.Short() && i%8 != 0) {
			continue
		}
		boundaries++
		for _, rs := range restarts {
			f := e.fork(r.LSN)
			if err := rs.run(f); err != nil {
				t.Fatalf("%s at LSN %d: %v", rs.name, r.LSN, err)
			}
			if err := f.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			want := imagePages(crashImage)
			reference(t, want, f.log.SnapshotFrom(1))
			expectDisk(t, fmt.Sprintf("%s at LSN %d", rs.name, r.LSN), f.disk, want)
		}

		mdisk, mlog := storage.NewDisk(512), e.log.Clone(nil)
		mlog.TruncateTo(r.LSN)
		var all []storage.PageID
		for pid := range fromNothing {
			all = append(all, pid)
		}
		if _, err := RecoverPages(mdisk, mlog, &ImageCopy{}, all); err != nil {
			t.Fatalf("media at LSN %d: %v", r.LSN, err)
		}
		expectDisk(t, fmt.Sprintf("media at LSN %d", r.LSN), mdisk, fromNothing)
	}
	if boundaries < 300 && !testing.Short() {
		t.Fatalf("only %d crash boundaries: the workload shrank", boundaries)
	}
}

// TestRestartInterruptedRerunMatches crashes the restart itself: for every
// undo-step budget that interrupts it, and for both fates of the records
// the dead restart wrote (forced, so the rerun continues from its CLRs;
// lost, so the rerun starts over), the rerun must recover the key set the
// uninterrupted restart does, onto pages equal to the serial reference of
// its own log, and no exit may leave the recovery hook in the pool.
func TestRestartInterruptedRerunMatches(t *testing.T) {
	e, _ := buildSweepWorkload(t)
	crashImage := e.disk.Snapshot()
	L := e.log.MaxLSN()
	want := map[int]bool{}
	for i := 0; i < 200; i++ {
		want[i] = i < 100 || i >= 150
	}
	for i := 300; i < 330; i++ {
		want[i] = true
	}
	clean := e.fork(L)
	clean.restartWith(RestartOpts{})
	clean.expectKeySet(want)

	for _, forceTail := range []bool{true, false} {
		for budget := 1; ; budget++ {
			what := fmt.Sprintf("budget %d, tail forced=%v", budget, forceTail)
			f := e.fork(L)
			_, err := RestartWith(f.log, f.pool, f.tm, f.locks, f.stats, nil, RestartOpts{MaxUndoSteps: budget, RedoWorkers: 2})
			if hooked(f.pool) {
				t.Fatalf("%s: restart returned (%v) with the recovery hook still installed", what, err)
			}
			if err == nil {
				if budget < 20 {
					t.Fatalf("restart completed within %d undo steps: the losers shrank", budget)
				}
				break // every budget that interrupts has been covered
			}
			if !errors.Is(err, ErrRestartInterrupted) {
				t.Fatalf("%s: %v", what, err)
			}
			if forceTail {
				f.log.ForceAll()
			}
			f.crash()
			f.restartWith(RestartOpts{RedoWorkers: 2})
			if hooked(f.pool) {
				t.Fatalf("%s: the rerun left the recovery hook installed", what)
			}
			f.expectKeySet(want)
			if err := f.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			ref := imagePages(crashImage)
			reference(t, ref, f.log.SnapshotFrom(1))
			expectDisk(t, what, f.disk, ref)
		}
	}
}

// hooked reports whether pool has a recovery hook installed. The pool has
// no accessor for it (nothing outside a test wants one), so this reads the
// field's nil-ness by name; a rename panics here rather than passing.
func hooked(pool *buffer.Pool) bool {
	return !reflect.ValueOf(pool).Elem().FieldByName("recHook").IsNil()
}

package data

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

type env struct {
	log   *wal.Log
	disk  *storage.Disk
	pool  *buffer.Pool
	locks *lock.Manager
	mgr   *txn.Manager
	dm    *Manager
	stats *trace.Stats
}

// router sends data ops to the data manager and FSM ops to space.
type router struct{ e *env }

func (r router) Undo(tx *txn.Tx, rec *wal.Record) error {
	switch rec.Op {
	case wal.OpFSMAlloc, wal.OpFSMFree:
		return space.Undo(tx, r.e.pool, rec)
	default:
		return r.e.dm.Undo(tx, rec)
	}
}

func newEnv(t *testing.T, pageSize int, gran lock.Granularity) *env {
	t.Helper()
	e := &env{stats: &trace.Stats{}}
	e.log = wal.NewLog(e.stats)
	e.disk = storage.NewDisk(pageSize)
	e.pool = buffer.NewPool(e.disk, e.log, 64, e.stats)
	e.locks = lock.NewManager(e.stats)
	e.mgr = txn.NewManager(e.log, e.locks)
	e.dm = NewManager(e.pool, gran)
	e.mgr.SetUndoer(router{e})
	return e
}

func (e *env) createTable(t *testing.T) *Table {
	t.Helper()
	tx := e.mgr.Begin()
	tbl, err := e.dm.CreateTable(tx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestInsertFetchRoundTrip(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	rid, err := tbl.Insert(tx, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Fetch(tx, rid, false)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	// The inserter holds a commit-duration X lock on the RID.
	if !e.locks.HoldsAtLeast(lock.Owner(tx.ID), e.dm.LockName(rid), lock.X) {
		t.Fatal("inserted record not X-locked")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteGhostsThenFetchFails(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	rid, _ := tbl.Insert(tx, []byte("doomed"))
	_ = tx.Commit()

	tx2 := e.mgr.Begin()
	if err := tbl.Delete(tx2, rid, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Fetch(tx2, rid, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch of deleted: %v", err)
	}
	if err := tbl.Delete(tx2, rid, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	_ = tx2.Commit()
}

func TestRollbackRestoresInsertAndDelete(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	setup := e.mgr.Begin()
	keep, _ := tbl.Insert(setup, []byte("keep"))
	_ = setup.Commit()

	tx := e.mgr.Begin()
	added, _ := tbl.Insert(tx, []byte("added"))
	if err := tbl.Delete(tx, keep, false); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := e.mgr.Begin()
	if got, err := tbl.Fetch(check, keep, false); err != nil || string(got) != "keep" {
		t.Fatalf("deleted record not restored: %q, %v", got, err)
	}
	if _, err := tbl.Fetch(check, added, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("inserted record survived rollback: %v", err)
	}
	_ = check.Commit()
}

func TestScanAllSeesOnlyLiveRecords(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	var rids []storage.RID
	for i := 0; i < 5; i++ {
		rid, err := tbl.Insert(tx, []byte{byte('a' + i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	_ = tbl.Delete(tx, rids[2], true) // inserter already holds the lock
	_ = tx.Commit()
	all, err := tbl.ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("ScanAll = %d records, want 4", len(all))
	}
	if _, ok := all[rids[2]]; ok {
		t.Fatal("ghost visible in scan")
	}
}

func TestTableExtensionAcrossPages(t *testing.T) {
	e := newEnv(t, 256, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	rec := bytes.Repeat([]byte{'r'}, 30)
	seen := map[storage.PageID]bool{}
	for i := 0; i < 40; i++ {
		rid, err := tbl.Insert(tx, rec)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		seen[rid.Page] = true
	}
	if len(seen) < 3 {
		t.Fatalf("only %d pages used; extension not exercised", len(seen))
	}
	_ = tx.Commit()
	all, _ := tbl.ScanAll()
	if len(all) != 40 {
		t.Fatalf("ScanAll = %d", len(all))
	}
}

func TestExtensionSurvivesRollback(t *testing.T) {
	// The NTA makes the new page permanent even though the extender
	// rolls back; another transaction's record on that page survives.
	e := newEnv(t, 256, lock.GranRecord)
	tbl := e.createTable(t)
	filler := e.mgr.Begin()
	rec := bytes.Repeat([]byte{'f'}, 30)
	var lastRID storage.RID
	for i := 0; i < 20; i++ {
		lastRID, _ = tbl.Insert(filler, rec)
	}
	_ = filler.Commit()

	extender := e.mgr.Begin()
	rid, err := tbl.Insert(extender, bytes.Repeat([]byte{'x'}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page == lastRID.Page {
		t.Skip("insert did not extend; adjust sizes")
	}
	// Another transaction rides on the new page.
	rider := e.mgr.Begin()
	riderRID, err := tbl.Insert(rider, []byte("rider"))
	if err != nil {
		t.Fatal(err)
	}
	_ = rider.Commit()
	if err := extender.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := e.mgr.Begin()
	if got, err := tbl.Fetch(check, riderRID, false); err != nil || string(got) != "rider" {
		t.Fatalf("rider record lost: %q, %v", got, err)
	}
	if _, err := tbl.Fetch(check, rid, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("extender's record survived: %v", err)
	}
	_ = check.Commit()
	// The extension page must still be allocated (NTA completed).
	if ok, _ := space.IsAllocated(e.pool, riderRID.Page); !ok {
		t.Fatal("extension page deallocated by rollback")
	}
}

// chainLen counts the pages of tbl's chain.
func chainLen(t testing.TB, e *env, tbl *Table) int {
	t.Helper()
	n := 0
	for pid := tbl.FirstPage; pid != storage.InvalidPageID; n++ {
		f, err := e.pool.Fix(pid)
		if err != nil {
			t.Fatal(err)
		}
		pid = f.Page.Next()
		e.pool.Unfix(f)
	}
	return n
}

// Once the deleter has committed, a full page's ghost space is reused
// before the table extends.
func TestGhostPurgeReclaimsSpace(t *testing.T) {
	e := newEnv(t, 256, lock.GranRecord)
	tbl := e.createTable(t)
	// Fill three pages, then delete everything on the first and commit.
	fill := e.mgr.Begin()
	rec := bytes.Repeat([]byte{'g'}, 30)
	perPage := 0
	var onFirst []storage.RID
	for chainLen(t, e, tbl) < 3 || perPage == 0 {
		rid, err := tbl.Insert(fill, rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page == tbl.FirstPage {
			onFirst = append(onFirst, rid)
		} else if perPage == 0 {
			perPage = len(onFirst) // the first page is full
		}
	}
	for n := 1; n < perPage; n++ { // fill the third page too
		if _, err := tbl.Insert(fill, rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rid := range onFirst {
		if err := tbl.Delete(fill, rid, true); err != nil {
			t.Fatal(err)
		}
	}
	_ = fill.Commit()
	if got := chainLen(t, e, tbl); got != 3 {
		t.Fatalf("setup: chain of %d pages, want 3 full ones", got)
	}

	// The ghosts' space holds exactly as many records again; only the next
	// one may extend the table.
	tx := e.mgr.Begin()
	for range onFirst {
		rid, err := tbl.Insert(tx, rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != tbl.FirstPage {
			t.Fatalf("insert went to page %d with ghost space left on page %d", rid.Page, tbl.FirstPage)
		}
	}
	if got := chainLen(t, e, tbl); got != 3 {
		t.Fatalf("table extended to %d pages while ghost space was left", got)
	}
	if _, err := tbl.Insert(tx, rec); err != nil {
		t.Fatal(err)
	}
	if got := chainLen(t, e, tbl); got != 4 {
		t.Fatalf("chain of %d pages after filling every page, want 4", got)
	}
	_ = tx.Commit()
}

func TestGhostOfUncommittedDeleteNotPurged(t *testing.T) {
	e := newEnv(t, 256, lock.GranRecord)
	tbl := e.createTable(t)
	fill := e.mgr.Begin()
	rec := bytes.Repeat([]byte{'u'}, 30)
	var rids []storage.RID
	for {
		rid, err := tbl.Insert(fill, rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != tbl.FirstPage {
			break
		}
		rids = append(rids, rid)
	}
	_ = fill.Commit()

	deleter := e.mgr.Begin()
	if err := tbl.Delete(deleter, rids[0], false); err != nil {
		t.Fatal(err)
	}
	// deleter has NOT committed: its ghost must not be purged.
	other := e.mgr.Begin()
	rid, err := tbl.Insert(other, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page == tbl.FirstPage {
		t.Fatal("insert consumed an uncommitted delete's space")
	}
	_ = other.Commit()
	// After the deleter rolls back, the record is intact.
	if err := deleter.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := e.mgr.Begin()
	if _, err := tbl.Fetch(check, rids[0], false); err != nil {
		t.Fatalf("undone delete lost its record: %v", err)
	}
	_ = check.Commit()
}

// TestInsertWaitsOutLingeringSlotLock takes Insert down the fallback of the
// §2.2 ladder: someone still holds the lock of the slot the insert picks, so
// the insert must unlatch the page, queue, and finish — on a revalidated
// page, holding the lock — once the holder ends.
func TestInsertWaitsOutLingeringSlotLock(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	setup := e.mgr.Begin()
	first, err := tbl.Insert(setup, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	_ = setup.Commit()

	slot := storage.RID{Page: first.Page, Slot: first.Slot + 1} // the next insert's
	holder := e.mgr.Begin()
	if err := holder.Lock(e.dm.LockName(slot), lock.X, lock.Commit, false); err != nil {
		t.Fatal(err)
	}
	tx := e.mgr.Begin()
	waits := e.stats.LockWaits.Load()
	type result struct {
		rid storage.RID
		err error
	}
	done := make(chan result, 1)
	go func() {
		rid, err := tbl.Insert(tx, []byte("second"))
		done <- result{rid, err}
	}()
	for e.stats.LockWaits.Load() == waits {
		select {
		case r := <-done:
			t.Fatalf("insert did not queue behind the slot's lock: %+v", r)
		default:
			runtime.Gosched()
		}
	}
	// The page is unlatched while the insert waits: a reader gets its latch.
	if got, err := tbl.Fetch(holder, first, false); err != nil || string(got) != "first" {
		t.Fatalf("Fetch beside the waiter = %q, %v", got, err)
	}
	_ = holder.Commit()
	r := <-done
	if r.err != nil || r.rid != slot {
		t.Fatalf("insert after the holder ended: %+v, want slot %v", r, slot)
	}
	if !e.locks.HoldsAtLeast(lock.Owner(tx.ID), e.dm.LockName(slot), lock.X) {
		t.Fatal("inserted record not X-locked")
	}
	if got, err := tbl.Fetch(tx, slot, false); err != nil || string(got) != "second" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	_ = tx.Commit()
}

func TestPageGranularityLocking(t *testing.T) {
	e := newEnv(t, 512, lock.GranPage)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	rid, _ := tbl.Insert(tx, []byte("pagelocked"))
	name := e.dm.LockName(rid)
	if name.Space != lock.SpacePage {
		t.Fatalf("lock space = %v", name.Space)
	}
	// Another transaction cannot touch any record on the same page.
	other := e.mgr.Begin()
	err := e.locks.Request(lock.Owner(other.ID), name, lock.S, lock.Commit, true)
	if !errors.Is(err, lock.ErrNotGranted) {
		t.Fatalf("page lock not exclusive: %v", err)
	}
	_ = tx.Commit()
	_ = other.Commit()
}

func TestFetchWithLockTakesSLock(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	w := e.mgr.Begin()
	rid, _ := tbl.Insert(w, []byte("x"))
	_ = w.Commit()
	r := e.mgr.Begin()
	if _, err := tbl.Fetch(r, rid, true); err != nil {
		t.Fatal(err)
	}
	if !e.locks.HoldsAtLeast(lock.Owner(r.ID), e.dm.LockName(rid), lock.S) {
		t.Fatal("locking fetch left no S lock")
	}
	_ = r.Commit()
}

func TestOversizeRecordRejected(t *testing.T) {
	e := newEnv(t, 256, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	if _, err := tbl.Insert(tx, bytes.Repeat([]byte{'z'}, 400)); err == nil {
		t.Fatal("oversize record accepted")
	}
	_ = tx.Rollback()
}

// replayTwice rebuilds every data page from the log on virgin pages the way
// restart redo does — a record is applied when the page's LSN is below its
// own, and stamps it — and then offers the whole log again: the second pass
// must apply nothing.
func replayTwice(t *testing.T, e *env, pageSize int) map[storage.PageID]*storage.Page {
	t.Helper()
	rebuilt := map[storage.PageID]*storage.Page{}
	for pass := 0; pass < 2; pass++ {
		for _, r := range e.log.SnapshotFrom(1) {
			if !r.Redoable() || r.Page == storage.FSMPageID {
				continue
			}
			p := rebuilt[r.Page]
			if p == nil {
				p = storage.NewPage(pageSize)
				rebuilt[r.Page] = p
			}
			if p.LSN() >= uint64(r.LSN) {
				continue
			}
			if pass == 1 {
				t.Fatalf("second pass applied %s", r)
			}
			if err := ApplyRedo(p, r); err != nil {
				t.Fatalf("redo %s: %v", r, err)
			}
			p.SetLSN(uint64(r.LSN))
		}
	}
	return rebuilt
}

// sameAsLive compares replayed pages with the flushed live ones, slot by
// slot, ghost flags included.
func sameAsLive(t *testing.T, e *env, rebuilt map[storage.PageID]*storage.Page) {
	t.Helper()
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id, p := range rebuilt {
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("replayed page: %v", err)
		}
		live := make([]byte, p.Size())
		_ = e.disk.Read(id, live)
		lp := storage.PageFromBytes(live)
		if lp.NSlots() != p.NSlots() || lp.LiveCells() != p.LiveCells() || lp.FreeSpace() != p.FreeSpace() {
			t.Fatalf("page %d: slots %d/%d live %d/%d free %d/%d", id, lp.NSlots(), p.NSlots(),
				lp.LiveCells(), p.LiveCells(), lp.FreeSpace(), p.FreeSpace())
		}
		for i := 0; i < lp.NSlots(); i++ {
			lc, lok := lp.Cell(i)
			rc, rok := p.Cell(i)
			if lok != rok || !bytes.Equal(lc, rc) {
				t.Fatalf("page %d slot %d: live %q, replayed %q", id, i, lc, rc)
			}
		}
	}
}

func TestApplyRedoReconstructsPage(t *testing.T) {
	// Run a workload, then replay its log onto virgin pages and compare
	// against the live pages — the page-oriented redo contract.
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	tx := e.mgr.Begin()
	var rids []storage.RID
	for i := 0; i < 8; i++ {
		rid, _ := tbl.Insert(tx, []byte(fmt.Sprintf("rec-%d", i)))
		rids = append(rids, rid)
	}
	_ = tbl.Delete(tx, rids[3], true)
	_ = tx.Commit()
	sameAsLive(t, e, replayTwice(t, e, 512))
}

func TestDataUndoErrorsOnForeignOp(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tx := e.mgr.Begin()
	err := e.dm.Undo(tx, &wal.Record{Op: wal.OpIdxInsertKey, Page: 3})
	if err == nil {
		t.Fatal("foreign op undone")
	}
	_ = tx.Rollback()
}

// benchEnv builds a minimal data-manager environment for benchmarks.
type benchT struct {
	mgr *txn.Manager
	tbl *Table
}

func benchEnv(b *testing.B) *benchT {
	b.Helper()
	e := &env{stats: &trace.Stats{}}
	e.log = wal.NewLog(e.stats)
	e.disk = storage.NewDisk(4096)
	e.pool = buffer.NewPool(e.disk, e.log, 512, e.stats)
	e.locks = lock.NewManager(e.stats)
	e.mgr = txn.NewManager(e.log, e.locks)
	e.dm = NewManager(e.pool, lock.GranRecord)
	e.mgr.SetUndoer(router{e})
	tx := e.mgr.Begin()
	tbl, err := e.dm.CreateTable(tx, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return &benchT{mgr: e.mgr, tbl: tbl}
}

// A delete logs its slot, not its record: the ghost keeps the bytes until a
// purge, and a purge waits for the deleter to commit. Its log record is the
// same size for a 1-byte row as for a 3,000-byte one. The CLR that undoes it
// names the slot alone as well (its LSN fields vary by a byte), after which
// the row reads back whole.
func TestDeleteLogsOnlyItsSlot(t *testing.T) {
	e := newEnv(t, 4096, lock.GranRecord)
	tbl := e.createTable(t)
	var deletes []int
	for _, n := range []int{1, 3000} {
		row := bytes.Repeat([]byte{'r'}, n)
		setup := e.mgr.Begin()
		rid, err := tbl.Insert(setup, row)
		if err != nil {
			t.Fatal(err)
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		from := e.log.MaxLSN()
		tx := e.mgr.Begin()
		if err := tbl.Delete(tx, rid, false); err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		var del, clr *wal.Record
		for _, r := range e.log.SnapshotFrom(from + 1) {
			switch {
			case r.Op == wal.OpDataDelete:
				del = r
			case r.Op == wal.OpDataInsert && r.IsCLR():
				clr = r
			}
		}
		if del == nil || del.EncodedSize() > 24 || clr == nil || clr.EncodedSize() > 24 || len(clr.Payload) != 2 {
			t.Fatalf("a %d-byte row's delete logged %v and its undo %v; want each at most 24 bytes", n, del, clr)
		}
		deletes = append(deletes, del.EncodedSize())
		check := e.mgr.Begin()
		if got, err := tbl.Fetch(check, rid, false); err != nil || !bytes.Equal(got, row) {
			t.Fatalf("the undone delete of a %d-byte row left %d bytes, %v", n, len(got), err)
		}
		_ = check.Commit()
	}
	if deletes[0] != deletes[1] {
		t.Fatalf("a delete logged %d bytes for a 1-byte row, %d for a 3,000-byte row", deletes[0], deletes[1])
	}
}

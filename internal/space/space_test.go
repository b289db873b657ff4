package space

import (
	"testing"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

type env struct {
	log  *wal.Log
	pool *buffer.Pool
	mgr  *txn.Manager
}

func newEnv() *env {
	log := wal.NewLog(nil)
	disk := storage.NewDisk(512)
	pool := buffer.NewPool(disk, log, 16, nil)
	mgr := txn.NewManager(log, lock.NewManager(nil))
	return &env{log: log, pool: pool, mgr: mgr}
}

// fsmUndoer routes FSM undos to space.Undo (the full router lives in db).
type fsmUndoer struct{ pool *buffer.Pool }

func (u fsmUndoer) Undo(tx *txn.Tx, rec *wal.Record) error { return Undo(tx, u.pool, rec) }

func TestAllocAssignsDistinctPages(t *testing.T) {
	e := newEnv()
	tx := e.mgr.Begin()
	a, err := Alloc(tx, e.pool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Alloc(tx, e.pool)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("duplicate allocation: %d", a)
	}
	if a < storage.FirstAllocatablePageID || b < storage.FirstAllocatablePageID {
		t.Fatalf("allocated reserved pages: %d %d", a, b)
	}
	for _, id := range []storage.PageID{a, b} {
		ok, err := IsAllocated(e.pool, id)
		if err != nil || !ok {
			t.Fatalf("page %d not recorded allocated: %v", id, err)
		}
	}
}

func TestFreeMakesPageReusable(t *testing.T) {
	e := newEnv()
	tx := e.mgr.Begin()
	a, _ := Alloc(tx, e.pool)
	if err := Free(tx, e.pool, a); err != nil {
		t.Fatal(err)
	}
	if ok, _ := IsAllocated(e.pool, a); ok {
		t.Fatal("freed page still allocated")
	}
	b, _ := Alloc(tx, e.pool)
	if b != a {
		t.Fatalf("freed page not reused: got %d, want %d", b, a)
	}
	if err := Free(tx, e.pool, b); err != nil {
		t.Fatal(err)
	}
	if err := Free(tx, e.pool, b); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestAllocIsLogged(t *testing.T) {
	e := newEnv()
	tx := e.mgr.Begin()
	a, _ := Alloc(tx, e.pool)
	_ = Free(tx, e.pool, a)
	recs := e.log.SnapshotFrom(1)
	if len(recs) != 2 || recs[0].Op != wal.OpFSMAlloc || recs[1].Op != wal.OpFSMFree {
		t.Fatalf("log = %v", recs)
	}
	if recs[0].Page != storage.FSMPageID {
		t.Fatalf("FSM record against page %d", recs[0].Page)
	}
}

func TestUndoAllocFreesBit(t *testing.T) {
	e := newEnv()
	e.mgr.SetUndoer(fsmUndoer{e.pool})
	tx := e.mgr.Begin()
	a, _ := Alloc(tx, e.pool)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := IsAllocated(e.pool, a); ok {
		t.Fatal("rollback did not free the allocation")
	}
	// CLR present and chained.
	var clr *wal.Record
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR {
			clr = r
		}
	}
	if clr == nil || clr.Op != wal.OpFSMFree {
		t.Fatalf("CLR = %v", clr)
	}
}

func TestUndoFreeReallocatesBit(t *testing.T) {
	e := newEnv()
	e.mgr.SetUndoer(fsmUndoer{e.pool})
	setup := e.mgr.Begin()
	a, _ := Alloc(setup, e.pool)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := e.mgr.Begin()
	_ = Free(tx, e.pool, a)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := IsAllocated(e.pool, a); !ok {
		t.Fatal("rollback did not restore the allocation")
	}
}

func TestApplyRedoRebuildsBitmap(t *testing.T) {
	e := newEnv()
	tx := e.mgr.Begin()
	a, _ := Alloc(tx, e.pool)
	b, _ := Alloc(tx, e.pool)
	_ = Free(tx, e.pool, a)
	// Replay the log onto a virgin page, as restart redo would.
	p := storage.NewPage(512)
	for _, r := range e.log.SnapshotFrom(1) {
		if err := ApplyRedo(p, r); err != nil {
			t.Fatal(err)
		}
	}
	bitA, _ := storage.FSMBitForPage(a)
	bitB, _ := storage.FSMBitForPage(b)
	if storage.FSMIsSet(p, bitA) {
		t.Fatal("freed bit set after replay")
	}
	if !storage.FSMIsSet(p, bitB) {
		t.Fatal("allocated bit clear after replay")
	}
}

func TestApplyRedoRejectsForeignOps(t *testing.T) {
	p := storage.NewPage(512)
	if err := ApplyRedo(p, &wal.Record{Op: wal.OpIdxInsertKey}); err == nil {
		t.Fatal("foreign op applied")
	}
	if err := ApplyRedo(p, &wal.Record{Op: wal.OpFSMAlloc, Payload: []byte{1}}); err == nil {
		t.Fatal("short payload applied")
	}
}

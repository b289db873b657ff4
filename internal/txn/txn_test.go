package txn

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// recordingUndoer applies the standard CLR protocol without touching pages,
// recording which records it was asked to compensate.
type recordingUndoer struct {
	undone []wal.LSN
	fail   error
}

func (u *recordingUndoer) Undo(tx *Tx, rec *wal.Record) error {
	if u.fail != nil {
		return u.fail
	}
	u.undone = append(u.undone, rec.LSN)
	logCLR(tx, rec.Page, rec.Op, rec.Payload, rec.PrevLSN)
	return nil
}

func newEnv() (*Manager, *wal.Log, *lock.Manager, *recordingUndoer) {
	log := wal.NewLog(nil)
	locks := lock.NewManager(nil)
	m := NewManager(log, locks)
	u := &recordingUndoer{}
	m.SetUndoer(u)
	return m, log, locks, u
}

// logUpdate and logCLR append page records with no page behind them: the
// undo-chain tests below need the records, not their effect.
func logUpdate(tx *Tx, page storage.PageID, op wal.OpCode, payload []byte, redoOnly bool) wal.LSN {
	return tx.Log(&wal.Record{Type: wal.RecUpdate, Page: page, Op: op, Payload: payload, RedoOnly: redoOnly})
}

func logCLR(tx *Tx, page storage.PageID, op wal.OpCode, payload []byte, undoNxt wal.LSN) wal.LSN {
	return tx.Log(&wal.Record{Type: wal.RecCLR, Page: page, Op: op, Payload: payload, UndoNxtLSN: undoNxt, RedoOnly: true})
}

func TestBeginAssignsUniqueIDs(t *testing.T) {
	m, _, _, _ := newEnv()
	t1, t2 := m.Begin(), m.Begin()
	if t1.ID == t2.ID {
		t.Fatal("duplicate tx IDs")
	}
	if m.Lookup(t1.ID) != t1 || m.Lookup(t2.ID) != t2 {
		t.Fatal("Lookup broken")
	}
}

func TestLogChainsPrevLSN(t *testing.T) {
	m, log, _, _ := newEnv()
	tx := m.Begin()
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	l2 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("b"), false)
	r2, _ := log.Read(l2)
	if r2.PrevLSN != l1 {
		t.Fatalf("PrevLSN = %d, want %d", r2.PrevLSN, l1)
	}
	if tx.LastLSN() != l2 || tx.UndoNxtLSN() != l2 {
		t.Fatalf("LastLSN=%d UndoNxt=%d", tx.LastLSN(), tx.UndoNxtLSN())
	}
}

func TestCommitForcesLogAndReleasesLocks(t *testing.T) {
	m, log, locks, _ := newEnv()
	tx := m.Begin()
	n := lock.Name{Space: lock.SpaceRecord, A: 1}
	if err := tx.Lock(n, lock.X, lock.Commit, false); err != nil {
		t.Fatal(err)
	}
	lsn := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if log.StableLSN() <= lsn {
		t.Fatal("commit did not force the log past the update")
	}
	if locks.NumLocks() != 0 {
		t.Fatal("locks survived commit")
	}
	if m.Lookup(tx.ID) != nil {
		t.Fatal("tx survived commit in table")
	}
	// Records: update, commit; no end record follows a commit.
	recs := log.SnapshotFrom(1)
	if last := recs[len(recs)-1]; last.Type != wal.RecCommit || last.LSN != tx.CommitLSN() {
		t.Fatalf("last record is %s, want the commit record", last)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestRollbackUndoesInReverseOrder(t *testing.T) {
	m, log, locks, u := newEnv()
	tx := m.Begin()
	_ = tx.Lock(lock.Name{Space: lock.SpaceRecord, A: 1}, lock.X, lock.Commit, false)
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	l2 := logUpdate(tx, 6, wal.OpIdxInsertKey, []byte("b"), false)
	l3 := logUpdate(tx, 7, wal.OpIdxDeleteKey, []byte("c"), false)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	want := []wal.LSN{l3, l2, l1}
	if len(u.undone) != 3 {
		t.Fatalf("undone %d records", len(u.undone))
	}
	for i := range want {
		if u.undone[i] != want[i] {
			t.Fatalf("undo order %v, want %v", u.undone, want)
		}
	}
	if locks.NumLocks() != 0 {
		t.Fatal("locks survived rollback")
	}
	// CLRs chain correctly: each CLR's UndoNxtLSN = undone record's PrevLSN.
	var clrs []*wal.Record
	for _, r := range log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR {
			clrs = append(clrs, r)
		}
	}
	if len(clrs) != 3 {
		t.Fatalf("%d CLRs", len(clrs))
	}
	if clrs[0].UndoNxtLSN != l2 || clrs[1].UndoNxtLSN != l1 || clrs[2].UndoNxtLSN != wal.NilLSN {
		t.Fatalf("CLR UndoNxt chain wrong: %d %d %d", clrs[0].UndoNxtLSN, clrs[1].UndoNxtLSN, clrs[2].UndoNxtLSN)
	}
}

func TestRedoOnlyRecordsSkippedInUndo(t *testing.T) {
	m, _, _, u := newEnv()
	tx := m.Begin()
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	logUpdate(tx, 5, wal.OpIdxSetBits, []byte{0}, true) // redo-only
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 1 || u.undone[0] != l1 {
		t.Fatalf("undone = %v, want [%d]", u.undone, l1)
	}
}

func TestPartialRollbackToSavepoint(t *testing.T) {
	m, _, locks, u := newEnv()
	tx := m.Begin()
	kept := lock.Name{Space: lock.SpaceRecord, A: 5}
	_ = tx.Lock(kept, lock.X, lock.Commit, false)
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	_ = l1
	save := tx.Savepoint()
	dropped := lock.Name{Space: lock.SpaceRecord, A: 9}
	_ = tx.Lock(dropped, lock.X, lock.Commit, false)
	l2 := logUpdate(tx, 6, wal.OpIdxInsertKey, []byte("b"), false)
	l3 := logUpdate(tx, 7, wal.OpIdxInsertKey, []byte("c"), false)
	if err := tx.RollbackTo(save); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != l3 || u.undone[1] != l2 {
		t.Fatalf("undone = %v, want [%d %d]", u.undone, l3, l2)
	}
	// Locks held at the savepoint are retained; locks acquired after it are
	// released. The transaction stays active.
	if !locks.HoldsAtLeast(lock.Owner(tx.ID), kept, lock.X) {
		t.Fatal("partial rollback dropped a pre-savepoint lock")
	}
	if locks.HoldsAtLeast(lock.Owner(tx.ID), dropped, lock.IS) {
		t.Fatal("partial rollback kept a post-savepoint lock")
	}
	if tx.State() != wal.TxActive {
		t.Fatalf("state = %v", tx.State())
	}
	// Continue and commit; undo chain must not revisit undone records.
	u.undone = nil
	l4 := logUpdate(tx, 8, wal.OpIdxInsertKey, []byte("d"), false)
	_ = l4
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != l4 || u.undone[1] != l1 {
		t.Fatalf("full rollback after partial: undone %v, want [%d %d]", u.undone, l4, l1)
	}
}

// TestSavepointReleaseUnblocksContender is the contention story behind
// savepoint lock release: transaction 1 grabs a hot lock after a savepoint,
// transaction 2 blocks on it, and RollbackTo — not commit, not full abort —
// is what hands the lock over. Tx 2 then re-executes the contended work
// successfully while tx 1 is still active and later commits.
func TestSavepointReleaseUnblocksContender(t *testing.T) {
	m, _, locks, _ := newEnv()
	hot := lock.Name{Space: lock.SpaceRecord, A: 42}

	tx1 := m.Begin()
	pre := lock.Name{Space: lock.SpaceRecord, A: 1}
	if err := tx1.Lock(pre, lock.X, lock.Commit, false); err != nil {
		t.Fatal(err)
	}
	logUpdate(tx1, 5, wal.OpIdxInsertKey, []byte("pre"), false)
	save := tx1.Savepoint()
	if err := tx1.Lock(hot, lock.X, lock.Commit, false); err != nil {
		t.Fatal(err)
	}
	logUpdate(tx1, 6, wal.OpIdxInsertKey, []byte("hot"), false)

	// Tx 2 blocks on the hot lock; only the partial rollback can free it.
	tx2 := m.Begin()
	tx2got := make(chan error, 1)
	go func() { tx2got <- tx2.Lock(hot, lock.X, lock.Commit, false) }()
	select {
	case err := <-tx2got:
		t.Fatalf("tx2 acquired a held lock: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := tx1.RollbackTo(save); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-tx2got:
		if err != nil {
			t.Fatalf("tx2 lock after partial rollback: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("partial rollback did not wake the contender")
	}
	// Tx 2 re-executes the contended work and commits.
	logUpdate(tx2, 6, wal.OpIdxInsertKey, []byte("hot2"), false)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Tx 1 is still active, still holds its pre-savepoint lock, and commits.
	if !locks.HoldsAtLeast(lock.Owner(tx1.ID), pre, lock.X) {
		t.Fatal("pre-savepoint lock lost")
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if locks.NumLocks() != 0 {
		t.Fatalf("locks leaked: %d", locks.NumLocks())
	}
}

func TestNestedTopActionBypassedOnRollback(t *testing.T) {
	m, _, _, u := newEnv()
	tx := m.Begin()
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("pre"), false)
	tok := tx.BeginNTA()
	logUpdate(tx, 20, wal.OpIdxFormat, []byte("smo1"), false)
	logUpdate(tx, 21, wal.OpIdxSplitLeft, []byte("smo2"), false)
	tx.EndNTA(tok)
	l5 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("post"), false)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Only pre and post are undone; the SMO survives.
	if len(u.undone) != 2 || u.undone[0] != l5 || u.undone[1] != l1 {
		t.Fatalf("undone = %v, want [%d %d]", u.undone, l5, l1)
	}
}

func TestIncompleteNTAIsUndone(t *testing.T) {
	m, _, _, u := newEnv()
	tx := m.Begin()
	logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("pre"), false)
	_ = tx.BeginNTA()
	smo1 := logUpdate(tx, 20, wal.OpIdxFormat, []byte("smo1"), false)
	// No EndNTA: the dummy CLR was never written (failure mid-SMO).
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if len(u.undone) != 2 || u.undone[0] != smo1 {
		t.Fatalf("incomplete NTA not undone: %v", u.undone)
	}
}

// TestUndoerErrorPropagates: a rollback whose undo fails returns the error,
// and a second Rollback resumes the undo and ends the transaction, with one
// abort record in the log.
func TestUndoerErrorPropagates(t *testing.T) {
	m, log, _, u := newEnv()
	tx := m.Begin()
	logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	u.fail = errors.New("page vanished")
	if err := tx.Rollback(); err == nil {
		t.Fatal("rollback swallowed undoer error")
	}
	u.fail = nil
	if err := tx.Rollback(); err != nil {
		t.Fatalf("retried rollback: %v", err)
	}
	var types []wal.RecType
	for _, r := range log.SnapshotFrom(1) {
		types = append(types, r.Type)
	}
	want := []wal.RecType{wal.RecUpdate, wal.RecAbort, wal.RecCLR, wal.RecEnd}
	if !slices.Equal(types, want) {
		t.Fatalf("log holds %v, want %v", types, want)
	}
}

// TestSecondRollbackLogsNothing: once a rollback has ended the transaction,
// Rollback, like Commit and RollbackTo, returns ErrTxDone and appends no
// abort or end record.
func TestSecondRollbackLogsNothing(t *testing.T) {
	m, log, _, _ := newEnv()
	tx := m.Begin()
	logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	n := len(log.SnapshotFrom(1))
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second Rollback = %v, want ErrTxDone", err)
	}
	if got := len(log.SnapshotFrom(1)); got != n {
		t.Fatalf("second Rollback grew the log from %d to %d records", n, got)
	}
}

// stubbornUndoer never logs a CLR: the manager must detect the stall
// rather than loop forever.
type stubbornUndoer struct{}

func (stubbornUndoer) Undo(tx *Tx, rec *wal.Record) error { return nil }

func TestUndoStallDetected(t *testing.T) {
	log := wal.NewLog(nil)
	m := NewManager(log, lock.NewManager(nil))
	m.SetUndoer(stubbornUndoer{})
	tx := m.Begin()
	logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	if err := tx.Rollback(); err == nil {
		t.Fatal("stalled undo not detected")
	}
}

// undoLoser finishes an adopted loser the way restart's undo pass does:
// one UndoStep at a time until its chain is exhausted, then EndLoser.
func undoLoser(t *testing.T, loser *Tx) {
	t.Helper()
	for loser.UndoNxtLSN() != wal.NilLSN {
		if err := loser.UndoStep(); err != nil {
			t.Fatal(err)
		}
	}
	loser.EndLoser()
}

func TestAdoptLoserContinuesUndo(t *testing.T) {
	m, log, _, u := newEnv()
	tx := m.Begin()
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	l2 := logUpdate(tx, 6, wal.OpIdxInsertKey, []byte("b"), false)
	// Simulate crash: rebuild manager state from an analysis-style entry.
	m2 := NewManager(log, lock.NewManager(nil))
	m2.SetUndoer(u)
	loser := m2.AdoptLoser(wal.TxTableEntry{TxID: tx.ID, State: wal.TxActive, LastLSN: l2, UndoNxtLSN: l2})
	undoLoser(t, loser)
	if len(u.undone) != 2 || u.undone[0] != l2 || u.undone[1] != l1 {
		t.Fatalf("restart undo = %v", u.undone)
	}
	// New transactions get IDs above the adopted loser.
	if m2.Begin().ID <= tx.ID {
		t.Fatal("tx ID reuse after adoption")
	}
}

func TestBoundedLoggingOnRepeatedRollback(t *testing.T) {
	// Undo half, "crash", adopt, undo rest: total CLRs == total updates.
	m, log, _, _ := newEnv()
	tx := m.Begin()
	var updates []wal.LSN
	for i := 0; i < 6; i++ {
		updates = append(updates, logUpdate(tx, storage.PageID(5+i), wal.OpIdxInsertKey, []byte{byte(i)}, false))
	}
	// Manually undo three records (simulating an interrupted rollback).
	half := &recordingUndoer{}
	m.SetUndoer(half)
	tx.mu.Lock()
	tx.rollingBack = true
	tx.mu.Unlock()
	for i := 0; i < 3; i++ {
		rec, _ := log.Read(tx.UndoNxtLSN())
		if err := half.Undo(tx, rec); err != nil {
			t.Fatal(err)
		}
	}
	lastLSN := tx.LastLSN()
	undoNxt := tx.UndoNxtLSN()
	// Crash and adopt; finish the rollback.
	m2 := NewManager(log, lock.NewManager(nil))
	rest := &recordingUndoer{}
	m2.SetUndoer(rest)
	loser := m2.AdoptLoser(wal.TxTableEntry{TxID: tx.ID, State: wal.TxRollingBack, LastLSN: lastLSN, UndoNxtLSN: undoNxt})
	undoLoser(t, loser)
	if len(rest.undone) != 3 {
		t.Fatalf("second pass undid %d, want 3", len(rest.undone))
	}
	clrs := 0
	for _, r := range log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR {
			clrs++
		}
	}
	if clrs != len(updates) {
		t.Fatalf("CLRs = %d, want %d (bounded logging)", clrs, len(updates))
	}
}

func TestCheckpointCapturesTables(t *testing.T) {
	m, log, _, _ := newEnv()
	disk := storage.NewDisk(512)
	pool := buffer.NewPool(disk, log, 4, nil)
	tx := m.Begin()
	f, _ := pool.Fix(5)
	lsn := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	f.Page.SetLSN(uint64(lsn))
	pool.MarkDirty(f, lsn)
	pool.Unfix(f)

	begin := m.Checkpoint(pool)
	if log.Master() != begin {
		t.Fatalf("master = %d, want %d", log.Master(), begin)
	}
	// Decode the end-checkpoint payload.
	var end *wal.Record
	for _, r := range log.SnapshotFrom(begin) {
		if r.Type == wal.RecEndCkpt {
			end = r
		}
	}
	if end == nil {
		t.Fatal("no end-checkpoint record")
	}
	data, err := wal.DecodeCheckpointData(end.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Txs) != 1 || data.Txs[0].TxID != tx.ID {
		t.Fatalf("checkpoint txs = %+v", data.Txs)
	}
	if len(data.DPT) != 1 || data.DPT[0].Page != 5 || data.DPT[0].RecLSN != lsn {
		t.Fatalf("checkpoint DPT = %+v", data.DPT)
	}
	if log.StableLSN() < end.LSN {
		t.Fatal("checkpoint not forced")
	}
}

// TestCheckpointEntryCoversRecordsBelowBegin: restart analysis starts at a
// checkpoint's begin record and takes each transaction's LastLSN and
// UndoNxtLSN from the checkpoint's entry, so the entry must cover every
// record the transaction logged below that begin record. A transaction logs
// in a loop while checkpoints are taken beside it, and every checkpoint's
// entry is checked against the log. When Log appended outside the Tx mutex,
// about one checkpoint in five read the entry between an append and its
// bookkeeping (two parallel goroutines; with one P they never overlap, and
// the test passes trivially).
func TestCheckpointEntryCoversRecordsBelowBegin(t *testing.T) {
	for round := 0; round < 4; round++ {
		m, log, _, _ := newEnv()
		pool := buffer.NewPool(storage.NewDisk(512), log, 4, nil)
		tx := m.Begin()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 20000; i++ {
				logUpdate(tx, 5, wal.OpIdxInsertKey, nil, false)
			}
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			m.Checkpoint(pool)
		}
		last := wal.NilLSN // tx's last record so far in the scan
		atBegin := map[wal.LSN]wal.LSN{}
		for _, r := range log.SnapshotFrom(1) {
			switch {
			case r.TxID == tx.ID:
				last = r.LSN
			case r.Type == wal.RecBeginCkpt:
				atBegin[r.LSN] = last
			case r.Type == wal.RecEndCkpt:
				data, err := wal.DecodeCheckpointData(r.Payload)
				if err != nil {
					t.Fatal(err)
				}
				below := atBegin[r.PrevLSN]
				for _, e := range data.Txs {
					if e.TxID == tx.ID && (e.LastLSN < below || e.UndoNxtLSN < below) {
						t.Fatalf("checkpoint at %d: entry LastLSN %d, UndoNxtLSN %d; tx logged %d below the begin record",
							r.PrevLSN, e.LastLSN, e.UndoNxtLSN, below)
					}
				}
			}
		}
	}
}

func TestNTATokenDuringRollbackResumesAtUndoneRecord(t *testing.T) {
	// During rollback (logical undo needing an SMO), the dummy CLR must
	// point at the record being undone — not at LastLSN (a CLR).
	m, _, _, _ := newEnv()
	tx := m.Begin()
	l1 := logUpdate(tx, 5, wal.OpIdxInsertKey, []byte("a"), false)
	_ = l1
	l2 := logUpdate(tx, 6, wal.OpIdxDeleteKey, []byte("b"), false)
	smoUndoer := &smoDuringUndoUndoer{}
	m.SetUndoer(smoUndoer)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// The dummy CLR written while undoing l2 must carry UndoNxtLSN == l2.
	if smoUndoer.dummyUndoNxt != l2 {
		t.Fatalf("undo-time NTA resume = %d, want %d", smoUndoer.dummyUndoNxt, l2)
	}
	if len(smoUndoer.undone) != 2 {
		t.Fatalf("undone = %v", smoUndoer.undone)
	}
}

type smoDuringUndoUndoer struct {
	undone       []wal.LSN
	dummyUndoNxt wal.LSN
	didSMO       bool
}

func (u *smoDuringUndoUndoer) Undo(tx *Tx, rec *wal.Record) error {
	u.undone = append(u.undone, rec.LSN)
	if !u.didSMO {
		u.didSMO = true
		tok := tx.BeginNTA()
		logUpdate(tx, 30, wal.OpIdxFormat, []byte("undo-smo"), false)
		dummy := tx.EndNTA(tok)
		r, _ := tx.mgr.log.Read(dummy)
		u.dummyUndoNxt = r.UndoNxtLSN
		// NOTE: tx.UndoNxtLSN now equals the token (rec.LSN); the CLR below
		// moves it past rec.
	}
	logCLR(tx, rec.Page, rec.Op, rec.Payload, rec.PrevLSN)
	return nil
}

// TestLockLatched walks the §2.2 ladder: a grantable lock is taken with the
// latches kept; a denied one makes LockLatched unlatch — once, before it
// waits — and wait, and keeps an instant lock it had to wait for until
// commit; a failed wait comes back as the error, latches gone.
func TestLockLatched(t *testing.T) {
	stats := &trace.Stats{}
	locks := lock.NewManager(stats)
	m := NewManager(wal.NewLog(nil), locks)
	name := lock.Name{Space: lock.SpaceRecord, A: 7, B: 1}
	unlatched := 0
	unlatch := func() { unlatched++ }
	type result struct {
		waited bool
		err    error
	}
	done := make(chan result, 1)
	// contend requests name for tx under "latches" and returns once the
	// request is queued.
	contend := func(tx *Tx, mode lock.Mode, dur lock.Duration) {
		t.Helper()
		waits := stats.LockWaits.Load()
		go func() {
			waited, err := tx.LockLatched(name, mode, dur, unlatch)
			done <- result{waited, err}
		}()
		for stats.LockWaits.Load() == waits {
			select {
			case r := <-done:
				t.Fatalf("did not queue: %+v", r)
			default:
				runtime.Gosched()
			}
		}
	}

	tx := m.Begin()
	if waited, err := tx.LockLatched(name, lock.X, lock.Instant, unlatch); waited || err != nil || unlatched != 0 {
		t.Fatalf("free lock: waited=%v err=%v unlatched=%d", waited, err, unlatched)
	}
	if tx.HoldsLock(name) {
		t.Fatal("an instant lock granted at once was kept")
	}

	holder := m.Begin()
	if err := holder.Lock(name, lock.S, lock.Commit, false); err != nil {
		t.Fatal(err)
	}
	contend(tx, lock.X, lock.Instant)
	if unlatched != 1 {
		t.Fatalf("queued with the latches held (unlatched=%d)", unlatched)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := <-done; !r.waited || r.err != nil || unlatched != 1 {
		t.Fatalf("held lock: %+v unlatched=%d", r, unlatched)
	}
	if !locks.HoldsAtLeast(lock.Owner(tx.ID), name, lock.X) {
		t.Fatal("the instant lock waited for was not retained")
	}

	// A wait that fails: the lock manager goes down under the waiter.
	contend(m.Begin(), lock.S, lock.Commit)
	locks.Shutdown()
	if r := <-done; !r.waited || !errors.Is(r.err, lock.ErrShutdown) || unlatched != 2 {
		t.Fatalf("failed wait: %+v unlatched=%d", r, unlatched)
	}
}

// TestCheckpointDuringApplyListsThePage: a checkpoint whose begin record
// follows an update's record must list the updated page in its DPT at a
// recLSN no later than the record, or restart analysis, which starts at the
// begin record, never redoes it. The redo routine takes the checkpoint, so it
// lands between the update's append and the end of apply.
func TestCheckpointDuringApplyListsThePage(t *testing.T) {
	m, log, _, _ := newEnv()
	pool := buffer.NewPool(storage.NewDisk(512), log, 4, nil)
	tx := m.Begin()
	f, _ := pool.Fix(5)
	defer pool.Unfix(f)
	var begin wal.LSN
	redo := func(p *storage.Page, rec *wal.Record) error {
		begin = m.Checkpoint(pool)
		p.SetFlags(rec.Payload[0])
		return nil
	}
	lsn := tx.ApplyUpdate(pool, f, redo, wal.OpIdxSetBits, []byte{3}, false)
	if begin <= lsn {
		t.Fatalf("checkpoint begin %d not after the update at %d", begin, lsn)
	}
	recs := log.SnapshotFrom(begin)
	end := recs[len(recs)-1]
	if end.Type != wal.RecEndCkpt {
		t.Fatalf("last record is %s, want the end-checkpoint record", end.Type)
	}
	data, err := wal.DecodeCheckpointData(end.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range data.DPT {
		if e.Page == 5 && e.RecLSN <= lsn {
			return
		}
	}
	t.Fatalf("record %d below checkpoint begin %d, but page 5 missing from its DPT %v", lsn, begin, data.DPT)
}

// TestApplyRunsRedoOnTheLoggedRecord pins the one way a transaction changes
// a page: the record is logged first, the same record is handed to the redo
// routine, and the page is stamped and dirtied at its LSN. A CLR sets the
// undo chain to its undo-next LSN. Redo failing on a record that is already
// logged panics.
func TestApplyRunsRedoOnTheLoggedRecord(t *testing.T) {
	m, log, _, _ := newEnv()
	pool := buffer.NewPool(storage.NewDisk(512), log, 4, nil)
	tx := m.Begin()
	f, _ := pool.Fix(5)
	var seen []wal.Record
	redo := func(p *storage.Page, rec *wal.Record) error {
		if got := log.MaxLSN(); got < rec.LSN || rec.LSN == wal.NilLSN {
			t.Fatalf("redo ran before its record was logged (max %d, record %d)", got, rec.LSN)
		}
		seen = append(seen, *rec)
		p.SetFlags(rec.Payload[0])
		return nil
	}
	lsn := tx.ApplyUpdate(pool, f, redo, wal.OpIdxSetBits, []byte{3}, false)
	if len(seen) != 1 || seen[0].Page != 5 || seen[0].Op != wal.OpIdxSetBits || seen[0].LSN != lsn {
		t.Fatalf("redo saw %v, want the update at LSN %d on page 5", seen, lsn)
	}
	if f.Page.Flags() != 3 || f.Page.LSN() != uint64(lsn) {
		t.Fatalf("page flags %d LSN %d, want 3 and %d", f.Page.Flags(), f.Page.LSN(), lsn)
	}
	if dpt := pool.DPT(); len(dpt) != 1 || dpt[0].Page != 5 || dpt[0].RecLSN != lsn {
		t.Fatalf("DPT = %v, want page 5 at recLSN %d", dpt, lsn)
	}
	clr := tx.ApplyCLR(pool, f, redo, wal.OpIdxSetBits, []byte{0}, wal.NilLSN)
	if f.Page.Flags() != 0 || f.Page.LSN() != uint64(clr) || tx.UndoNxtLSN() != wal.NilLSN {
		t.Fatalf("after CLR: flags %d LSN %d undoNxt %d", f.Page.Flags(), f.Page.LSN(), tx.UndoNxtLSN())
	}
	if r, err := log.Read(clr); err != nil || !r.IsCLR() || r.Page != 5 {
		t.Fatalf("CLR at %d reads %v, %v", clr, r, err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a failing redo of a logged record did not panic")
		}
		if tx.LastLSN() <= clr {
			t.Fatal("the failing record was not logged before its redo")
		}
	}()
	tx.ApplyUpdate(pool, f, func(*storage.Page, *wal.Record) error { return errors.New("mismatch") },
		wal.OpIdxSetBits, []byte{1}, false)
}

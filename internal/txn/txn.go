// Package txn implements ariesim's transaction manager: the transaction
// table, commit (force-at-commit), total and partial rollback driven by
// the UndoNxtLSN chain, nested top actions (dummy CLRs), and fuzzy
// checkpoints. A transaction ends in one of two ways: Commit, or EndLoser
// once its undo chain is exhausted (Rollback, or restart's undo pass).
//
// Rollback follows ARIES (paper §1.2): records are undone in reverse
// chronological order; every undo writes a compensation log record whose
// UndoNxtLSN points at the predecessor of the record undone, so logging is
// bounded even across repeated failures. A nested top action's dummy CLR
// points just before the action began, letting rollback bypass it — the
// mechanism ARIES/IM uses to make completed SMOs permanent regardless of
// the enclosing transaction's fate (paper §3).
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/mvcc"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// Snapshot is a read-only transaction's captured visibility point plus
// its registration in the version store's active-snapshot registry.
type Snapshot struct {
	LSN wal.LSN
	ID  uint64
}

// Undoer compensates one undoable log record on behalf of tx. The
// implementation (the owning resource manager) must log and apply the
// inverse page action with tx.ApplyCLR, passing rec.PrevLSN as the undo-next
// pointer; it may first perform logical undo work (tree traversal, SMOs
// logged as regular records inside a nested top action).
type Undoer interface {
	Undo(tx *Tx, rec *wal.Record) error
}

// ErrTxDone reports an operation on a finished transaction.
var ErrTxDone = errors.New("txn: transaction already finished")

// Tx is one transaction. A Tx is driven by a single goroutine; the small
// mutex exists only so the fuzzy checkpointer can snapshot its fields.
type Tx struct {
	ID wal.TxID

	mu          sync.Mutex
	state       wal.TxState
	lastLSN     wal.LSN
	undoNxtLSN  wal.LSN
	commitLSN   wal.LSN
	rollingBack bool
	ended       bool        // EndLoser has run
	saves       []savepoint // Savepoint history, oldest first

	// versions lists the chains holding the transaction's in-flight
	// versions. Only the transaction's own goroutine touches it (the
	// version store's PushTo, then commit or rollback), hence not under mu.
	versions mvcc.Chains

	// applyRec is the record apply logs and hands to redo. Redo is called
	// through a func value, so a record built per call would escape to the
	// heap; only the transaction's own goroutine touches this one.
	applyRec wal.Record

	// snap is non-nil for a snapshot-mode read-only transaction. It is set
	// once, before the transaction is used, and read on every lock request
	// and every table operation — hence not under mu.
	snap atomic.Pointer[Snapshot]

	mgr *Manager
}

// savepoint pairs the log position of a savepoint with the lock manager's
// grant sequence at the same moment, so RollbackTo can release the locks
// the rolled-back fragment acquired.
type savepoint struct {
	lsn     wal.LSN
	lockTok uint64
}

// State returns the transaction's current state.
func (t *Tx) State() wal.TxState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// LastLSN returns the LSN of the transaction's most recent log record.
func (t *Tx) LastLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// CommitLSN returns the LSN of the transaction's commit record, or zero if
// it has not committed. Replication uses it as the durability watermark a
// standby must acknowledge before the commit is acked to the client.
func (t *Tx) CommitLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commitLSN
}

// UndoNxtLSN returns the next record rollback would examine.
func (t *Tx) UndoNxtLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.undoNxtLSN
}

// Manager owns the transaction table. Like the lock table, it is volatile:
// restart rebuilds it from the log during analysis.
type Manager struct {
	mu     sync.Mutex
	table  map[wal.TxID]*Tx
	nextID wal.TxID

	log    *wal.Log
	locks  *lock.Manager
	undoer Undoer
	store  *mvcc.Store
	stats  *trace.Stats
}

// NewManager creates a transaction manager over log and locks.
func NewManager(log *wal.Log, locks *lock.Manager) *Manager {
	return &Manager{table: make(map[wal.TxID]*Tx), nextID: 1, log: log, locks: locks, stats: &trace.Stats{}}
}

// SetUndoer wires the resource-manager undo dispatcher (done once at
// engine assembly; a separate call breaks the package cycle).
func (m *Manager) SetUndoer(u Undoer) { m.undoer = u }

// SetVersionStore wires the MVCC version store (done once at engine
// assembly, per epoch: the manager and the store share the epoch's fate).
// A transaction passes it the list of chains that hold its in-flight
// versions (Tx.Versions), and only one whose list is not empty calls it,
// so version-less commits pay nothing.
func (m *Manager) SetVersionStore(s *mvcc.Store) { m.store = s }

// SetStats wires the trace sink (read-only lock-call accounting).
func (m *Manager) SetStats(s *trace.Stats) { m.stats = trace.OrNew(s) }

// Locks exposes the lock manager (index/record managers lock through tx).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Log exposes the log manager.
func (m *Manager) Log() *wal.Log { return m.log }

// SetNextID ensures future transaction IDs start above id (restart sets
// this to one past the highest ID seen in the log, preventing reuse).
func (m *Manager) SetNextID(id wal.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id > m.nextID {
		m.nextID = id
	}
}

// NextID returns the next transaction ID this manager would assign. The
// engine carries it across a crash/restart (the lock and transaction tables
// are rebuilt, but in-process ID uniqueness must span epochs so a pre-crash
// zombie and a post-restart transaction never share a lock owner ID).
func (m *Manager) NextID() wal.TxID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// Owns reports whether t was begun by (or adopted into) this manager.
// db.RunTxn uses it as an epoch check: a transaction from a pre-crash
// manager must not be committed against the restarted engine.
func (m *Manager) Owns(t *Tx) bool { return t.mgr == m }

// Begin starts a transaction.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Tx{ID: m.nextID, state: wal.TxActive, mgr: m}
	m.nextID++
	m.table[t.ID] = t
	return t
}

// BeginDetached starts a transaction that is deliberately NOT entered in
// the transaction table: the snapshot-mode read-only transaction. It
// never logs, locks, or commits, so checkpoints and restart analysis
// must not see it; keeping mgr set preserves the Owns epoch check.
func (m *Manager) BeginDetached() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Tx{ID: m.nextID, state: wal.TxActive, mgr: m}
	m.nextID++
	return t
}

// SetSnapshot marks t as a snapshot-mode reader.
func (t *Tx) SetSnapshot(s Snapshot) { t.snap.Store(&s) }

// Snapshot returns the reader's snapshot, or nil for ordinary (locked)
// transactions.
func (t *Tx) Snapshot() *Snapshot { return t.snap.Load() }

// Versions is t's chain list, for the version store's PushTo to add to.
func (t *Tx) Versions() *mvcc.Chains { return &t.versions }

// storeFor returns the version store if t must drive it: if some chain
// holds an in-flight version of t.
func (t *Tx) storeFor() *mvcc.Store {
	if len(t.versions) == 0 {
		return nil
	}
	return t.mgr.store
}

// AdoptLoser reconstructs an in-flight transaction from analysis output so
// the undo pass can drive it. Restart offers each loser once.
func (m *Manager) AdoptLoser(e wal.TxTableEntry) *Tx {
	t := &Tx{ID: e.TxID, state: e.State, lastLSN: e.LastLSN, undoNxtLSN: e.UndoNxtLSN, mgr: m}
	if e.State == wal.TxRollingBack {
		t.rollingBack = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table[t.ID] = t
	if t.ID >= m.nextID {
		m.nextID = t.ID + 1
	}
	return t
}

// Lookup returns the live transaction with the given ID, if any.
func (m *Manager) Lookup(id wal.TxID) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table[id]
}

// Active snapshots the transaction table for a fuzzy checkpoint.
func (m *Manager) Active() []wal.TxTableEntry {
	m.mu.Lock()
	txs := make([]*Tx, 0, len(m.table))
	for _, t := range m.table {
		txs = append(txs, t)
	}
	m.mu.Unlock()
	out := make([]wal.TxTableEntry, 0, len(txs))
	for _, t := range txs {
		t.mu.Lock()
		out = append(out, wal.TxTableEntry{TxID: t.ID, State: t.state, LastLSN: t.lastLSN, UndoNxtLSN: t.undoNxtLSN})
		t.mu.Unlock()
	}
	return out
}

func (m *Manager) finish(t *Tx) {
	m.mu.Lock()
	delete(m.table, t.ID)
	m.mu.Unlock()
}

// Lock requests a lock on behalf of the transaction.
func (t *Tx) Lock(name lock.Name, mode lock.Mode, dur lock.Duration, conditional bool) error {
	if t.snap.Load() != nil {
		// Snapshot readers must never reach the lock manager; the counter
		// is the benchmark's zero-lock proof (and trips the gate if a code
		// path regresses).
		t.mgr.stats.ReadOnlyLockCalls.Add(1)
	}
	return t.mgr.locks.Request(lock.Owner(t.ID), name, mode, dur, conditional)
}

// LockLatched is the rule for taking a lock while holding latches (paper
// §2.2): request it conditionally; if that is denied, release every latch
// (unlatch), wait for the lock unconditionally, and report waited=true so
// the caller revalidates whatever the latches were protecting. The wait
// RETAINS an instant lock to commit: an instant grant would evaporate before
// the caller's retry, whose conditional request could then lose the race
// again, forever under sustained contention; held, it answers the retry's
// request from the owner's own table if the name is still the one wanted, so
// the retry converges. Conservative, never unsafe. err is the wait's outcome
// (deadlock victim, timeout, shutdown); the latches are gone by then.
func (t *Tx) LockLatched(name lock.Name, mode lock.Mode, dur lock.Duration, unlatch func()) (waited bool, err error) {
	if t.Lock(name, mode, dur, true) == nil {
		return false, nil
	}
	unlatch()
	if dur == lock.Instant {
		dur = lock.Commit
	}
	return true, t.Lock(name, mode, dur, false)
}

// Unlock releases one manual-duration lock.
func (t *Tx) Unlock(name lock.Name) { t.mgr.locks.Release(lock.Owner(t.ID), name) }

// IsRollingBack reports whether the transaction is mid-rollback; rolling-
// back transactions never request locks (§4), so protocol code consults
// this before acquiring baseline-specific locks on undo paths.
func (t *Tx) IsRollingBack() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rollingBack
}

// HoldsLock reports whether the transaction holds any lock on name.
func (t *Tx) HoldsLock(name lock.Name) bool {
	return t.mgr.locks.HoldsAtLeast(lock.Owner(t.ID), name, lock.IS)
}

// Log appends a record stamped with this transaction's ID and PrevLSN
// chain, updating LastLSN and UndoNxtLSN per ARIES rules. The append and
// the update are one critical section under t.mu, which the fuzzy
// checkpointer (Manager.Active) takes to read them: a record whose LSN is
// below a checkpoint's begin record is therefore in the checkpoint's entry
// for t, and restart analysis, which starts at that begin record, loses no
// record of t. Appending outside t.mu would let a checkpoint read the entry
// between the append and the update, and analysis would miss that record:
// a forward update never undone, or a CLR whose undo runs twice. A plain
// append never waits on the device, so t.mu is held for no I/O.
func (t *Tx) Log(rec *wal.Record) wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.TxID = t.ID
	rec.PrevLSN = t.lastLSN
	lsn := t.mgr.log.Append(rec)
	t.lastLSN = lsn
	switch {
	case rec.IsCLR():
		t.undoNxtLSN = rec.UndoNxtLSN
	case rec.Type == wal.RecUpdate && rec.RedoOnly:
		// Redo-only updates are never undone; rollback must not revisit
		// them, so they leave the undo chain untouched. (Essential when a
		// redo-only record — an SM_Bit reset — is written *during* undo:
		// advancing the chain would orphan the remaining rollback work.)
	default:
		t.undoNxtLSN = lsn
	}
	return lsn
}

// Redo applies one logged page action to its page: the owning resource
// manager's ApplyRedo, the routine restart, standby apply and media
// recovery replay the record with.
type Redo func(*storage.Page, *wal.Record) error

// ApplyUpdate logs a forward page action on f's page (undo-redo unless
// redoOnly) and applies it; see apply.
func (t *Tx) ApplyUpdate(pool *buffer.Pool, f *buffer.Frame, redo Redo, op wal.OpCode, payload []byte, redoOnly bool) wal.LSN {
	t.applyRec = wal.Record{Type: wal.RecUpdate, Op: op, Payload: payload, RedoOnly: redoOnly}
	return t.apply(pool, f, redo)
}

// ApplyCLR logs a compensation record for a page action performed during
// undo and applies it; see apply. undoNxt must be the PrevLSN of the
// record being compensated.
func (t *Tx) ApplyCLR(pool *buffer.Pool, f *buffer.Frame, redo Redo, op wal.OpCode, payload []byte, undoNxt wal.LSN) wal.LSN {
	t.applyRec = wal.Record{Type: wal.RecCLR, Op: op, Payload: payload, UndoNxtLSN: undoNxt, RedoOnly: true}
	return t.apply(pool, f, redo)
}

// apply is the one way a transaction changes a page: it marks the frame
// dirty, logs t.applyRec for f's page, applies that same record to the page
// with redo and stamps the page LSN. The caller holds f's X latch. Forward
// processing and rollback thus run the code every replay runs, and a
// record that does not reproduce its change fails the operation that wrote
// it, not a later restart. The record is already in the log when redo
// runs, so a failure there means page and log disagree: apply panics.
// Redo must not keep the record; apply clears it, so no payload outlives
// the call. The frame is dirtied first, at the log's next LSN (at most the
// record's), so a fuzzy checkpoint that begins after the record lists the
// page in its DPT.
func (t *Tx) apply(pool *buffer.Pool, f *buffer.Frame, redo Redo) wal.LSN {
	rec := &t.applyRec
	rec.Page = f.ID()
	pool.MarkDirty(f, t.mgr.log.NextLSN())
	lsn := t.Log(rec)
	if err := redo(f.Page, rec); err != nil {
		panic(fmt.Sprintf("txn %d: redo of logged %s on page %d failed: %v", t.ID, rec.Op, rec.Page, err))
	}
	*rec = wal.Record{}
	f.Page.SetLSN(uint64(lsn))
	return lsn
}

// NTAToken marks the start of a nested top action.
type NTAToken struct{ resume wal.LSN }

// BeginNTA starts a nested top action: the returned token captures the
// point rollback should resume from if the action completes. In forward
// processing that is the transaction's last log record; during rollback it
// is the record currently being undone (so an undo-time SMO is bypassed
// but the interrupted undo itself is not lost).
func (t *Tx) BeginNTA() NTAToken {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rollingBack {
		return NTAToken{resume: t.undoNxtLSN}
	}
	return NTAToken{resume: t.lastLSN}
}

// EndNTA completes a nested top action by writing the dummy CLR whose
// UndoNxtLSN bypasses the action's records (paper Figs 8–10).
func (t *Tx) EndNTA(tok NTAToken) wal.LSN {
	return t.Log(&wal.Record{Type: wal.RecDummyCLR, UndoNxtLSN: tok.resume})
}

// Savepoint returns a token for partial rollback to the current point. It
// also records the lock manager's grant sequence, so RollbackTo can release
// the locks acquired after this point.
func (t *Tx) Savepoint() wal.LSN {
	tok := t.mgr.locks.Token()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.saves = append(t.saves, savepoint{lsn: t.lastLSN, lockTok: tok})
	return t.lastLSN
}

// Commit terminates the transaction: commit record, lock release,
// synchronous log force. No end record follows: restart analysis finishes
// a transaction at its commit record, so an end record would buy nothing
// but log bytes. The force is the group-commit path: concurrent
// committers coalesce onto one in-flight flush (wal.Log.Force), and Commit
// returns only once the commit record's LSN is covered by the stable LSN —
// a transaction is never acknowledged while its commit record is volatile.
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.state != wal.TxActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.state = wal.TxCommitted
	t.mu.Unlock()
	// The version store brackets the commit record's append/force so the
	// MVCC visibility watermark never covers a volatile commit: ticket in
	// before the append, LSN attached once known, stamp only after the
	// force proves durability (or abandon if a crash fences it).
	vs := t.storeFor()
	if vs != nil {
		vs.EnterCommit(t.ID)
	}
	// Early lock release: append the commit record, drop locks, then wait
	// for the force. Safe because a dependent transaction's commit record
	// necessarily lands at a higher LSN, so any force that makes it stable
	// makes ours stable first — no transaction can be acknowledged having
	// read state that later rolls back. Releasing before the device wait
	// keeps hot locks held only for the in-memory work, not the flush
	// latency.
	lsn := t.Log(&wal.Record{Type: wal.RecCommit})
	t.mu.Lock()
	t.commitLSN = lsn
	t.mu.Unlock()
	if vs != nil {
		vs.CommitAt(t.ID, lsn)
	}
	t.mgr.locks.ReleaseAll(lock.Owner(t.ID))
	if !t.mgr.log.Force(lsn) {
		// A crash fenced the force: the commit record died with its epoch
		// and must never be acknowledged. The transaction's locks and table
		// entry die with the orphaned manager.
		if vs != nil {
			vs.AbortCommit(t.ID, &t.versions)
		}
		return wal.ErrLogCrashed
	}
	if vs != nil {
		vs.StampCommit(t.ID, lsn, &t.versions)
	}
	t.mgr.finish(t)
	return nil
}

// Rollback undoes the whole transaction and ends it through EndLoser. A call
// after an undo that failed part-way resumes it; a call after the end
// returns ErrTxDone and logs nothing.
func (t *Tx) Rollback() error {
	t.mu.Lock()
	if t.state == wal.TxCommitted || t.ended {
		t.mu.Unlock()
		return ErrTxDone
	}
	first := t.state == wal.TxActive
	t.state = wal.TxRollingBack
	t.rollingBack = true
	t.mu.Unlock()
	if first {
		t.Log(&wal.Record{Type: wal.RecAbort})
	}
	if err := t.undoTo(wal.NilLSN); err != nil {
		return err
	}
	t.EndLoser()
	return nil
}

// RollbackTo partially rolls back to a savepoint; the transaction remains
// active. Locks acquired after the savepoint are released (and upgrades
// reverted) once the undo completes, so a partially-rolled-back transaction
// does not keep starving the waiters that made it a deadlock victim. ARIES
// permits either policy on partial rollback; releasing is safe here because
// the undo is complete before any lock is dropped. Locks held at the
// savepoint are kept. A save LSN without a matching Savepoint call (e.g. a
// raw LastLSN) conservatively releases nothing.
func (t *Tx) RollbackTo(save wal.LSN) error {
	t.mu.Lock()
	if t.state != wal.TxActive {
		t.mu.Unlock()
		return ErrTxDone
	}
	t.rollingBack = true
	// Find the most recent Savepoint record at this LSN, dropping the
	// history of later savepoints (they are being rolled over).
	var sp *savepoint
	for i := len(t.saves) - 1; i >= 0; i-- {
		if t.saves[i].lsn == save {
			sp = &t.saves[i]
			t.saves = t.saves[:i+1]
			break
		}
	}
	t.mu.Unlock()
	err := t.undoTo(save)
	t.mu.Lock()
	t.rollingBack = false
	t.mu.Unlock()
	if err == nil {
		if vs := t.storeFor(); vs != nil {
			vs.DropTxSince(t.ID, save, &t.versions)
		}
	}
	if err == nil && sp != nil {
		t.mgr.locks.ReleaseSince(lock.Owner(t.ID), sp.lockTok)
	}
	return err
}

// UndoStep processes exactly one record of the rollback chain: a CLR is
// skipped via its UndoNxtLSN, an undoable update is compensated through
// the undoer, and anything else steps back via PrevLSN. Restart recovery
// uses this to interleave the undo of several losers in global reverse-LSN
// order (which guarantees incomplete SMOs are undone before any logical
// undo needs to traverse the tree).
func (t *Tx) UndoStep() error {
	t.mu.Lock()
	next := t.undoNxtLSN
	t.rollingBack = true
	t.mu.Unlock()
	if next == wal.NilLSN {
		return nil
	}
	rec, err := t.mgr.log.Read(next)
	if err != nil {
		return fmt.Errorf("txn %d: undo chain broken: %w", t.ID, err)
	}
	switch {
	case rec.IsCLR():
		t.mu.Lock()
		t.undoNxtLSN = rec.UndoNxtLSN
		t.mu.Unlock()
	case rec.Undoable():
		if t.mgr.undoer == nil {
			return fmt.Errorf("txn %d: no undoer wired for op %s", t.ID, rec.Op)
		}
		if err := t.mgr.undoer.Undo(t, rec); err != nil {
			return fmt.Errorf("txn %d: undo of %s at LSN %d: %w", t.ID, rec.Op, rec.LSN, err)
		}
		if t.UndoNxtLSN() >= next {
			return fmt.Errorf("txn %d: undoer did not advance past LSN %d (no CLR logged?)", t.ID, rec.LSN)
		}
	default:
		// Redo-only updates and status records: skip backward.
		t.mu.Lock()
		t.undoNxtLSN = rec.PrevLSN
		t.mu.Unlock()
	}
	return nil
}

// undoTo drives the UndoNxtLSN chain down to (exclusive) stopAfter.
func (t *Tx) undoTo(stopAfter wal.LSN) error {
	for {
		t.mu.Lock()
		next := t.undoNxtLSN
		t.mu.Unlock()
		if next == wal.NilLSN || next <= stopAfter {
			return nil
		}
		if err := t.UndoStep(); err != nil {
			return err
		}
	}
}

// EndLoser finalizes a fully-undone transaction — a rollback, or a restart
// loser once the undo pass has exhausted its chain: in-flight versions
// dropped, locks released (a live rollback's, or the X locks online
// restart reinstated), end record written, table entry removed.
func (t *Tx) EndLoser() {
	if vs := t.storeFor(); vs != nil {
		vs.DropTx(t.ID, &t.versions)
	}
	t.mgr.locks.ReleaseAll(lock.Owner(t.ID))
	t.Log(&wal.Record{Type: wal.RecEnd})
	t.ended = true
	t.mgr.finish(t)
}

// Checkpoint takes a fuzzy checkpoint: begin record, end record carrying
// the transaction table and pool's dirty page table, force, then master
// record update. No pages are flushed and no activity is quiesced.
func (m *Manager) Checkpoint(pool *buffer.Pool) wal.LSN {
	begin := m.log.Append(&wal.Record{Type: wal.RecBeginCkpt})
	data := &wal.CheckpointData{Txs: m.Active(), DPT: pool.DPT()}
	end := m.log.Append(&wal.Record{Type: wal.RecEndCkpt, PrevLSN: begin, Payload: data.Encode()})
	if m.log.Force(end) {
		// Only anchor the master record if the checkpoint actually reached
		// stable storage; a crash-fenced force leaves the old anchor valid.
		m.log.SetMaster(begin)
	}
	return begin
}

// Package db assembles the full engine: disk, write-ahead log, buffer
// pool, lock manager, transaction manager, record manager, and the
// ARIES/IM index manager, behind a small table-oriented API.
//
// The engine exposes the failure model the paper assumes: Crash() discards
// every volatile structure (buffer pool, lock table, transaction table,
// unforced log tail); Restart() rebuilds them and runs ARIES restart
// recovery. Stable storage (the simulated disk and the forced log prefix)
// persists across the pair.
package db

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/data"
	"ariesim/internal/lock"
	"ariesim/internal/mvcc"
	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// ErrNotFound reports a missing row.
var ErrNotFound = errors.New("db: key not found")

// ErrDuplicate reports a primary-key violation.
var ErrDuplicate = core.ErrDuplicate

// ErrCrashed reports that the engine is down (after Crash, or after an
// interrupted restart) and must be Restarted before accepting work.
var ErrCrashed = errors.New("db: engine is crashed; call Restart first")

// ErrRecovering reports an operation that genuinely cannot proceed while
// online restart recovery is still running in the background — DDL and
// whole-engine verification, which would observe loser data that the
// background undo has not yet rolled back. It wraps ErrCrashed so generic
// callers degrade the same way, but the engine is UP: ordinary
// transactions proceed normally, and retry loops (db.RunTxn) distinguish
// "down" from "degraded" via errors.Is and retry immediately instead of
// parking on AwaitUp.
var ErrRecovering = fmt.Errorf("db: online recovery in progress: %w", ErrCrashed)

// ErrMediaFailure reports a page that could not be rebuilt by media
// recovery — the disk copy is corrupt and the image copy + log replay
// also failed. Data loss is possible; the error wraps the cause.
var ErrMediaFailure = errors.New("db: unrecoverable media failure")

// Options configures an engine.
type Options struct {
	// PageSize in bytes (default 4096).
	PageSize int
	// PoolSize in frames (default 256).
	PoolSize int
	// Granularity of data locking (record by default; page for coarse).
	Granularity lock.Granularity
	// Protocol selects the index locking protocol for every index:
	// core.DataOnly (ARIES/IM, default), core.IndexSpecific, core.KVL or
	// core.SystemR (baselines).
	Protocol core.Protocol
	// LockWaitTimeout bounds every unconditional lock wait; a request
	// still queued after it fails with lock.ErrLockTimeout. Zero keeps
	// waits unbounded (deadlock detection alone resolves cycles).
	LockWaitTimeout time.Duration
	// CleanerInterval enables the background page cleaner, which flushes
	// dirty frames ahead of the clock hand every interval so foreground
	// evictions find clean victims and checkpoint DPTs stay small. Zero
	// (the default) disables it.
	CleanerInterval time.Duration
	// RedoWorkers is how many goroutines replay pages in restart redo (and,
	// on a replica, in standby apply): the pages to redo are split across N
	// workers by page id, and each replays its share one page at a time.
	// Zero or one is a single goroutine: Restart's own, or with
	// OnlineRestart the background drain's (see recovery.RestartOpts).
	RedoWorkers int
	// OnlineRestart chooses when Restart opens the engine, not how it
	// recovers: right after the analysis pass, with redo on demand at
	// buffer-fix time beside a background drain and loser undo in the
	// background under reinstated locks, instead of after all of it.
	// Requires the default data-only protocol (lock reinstatement derives
	// record locks from the log, which only ARIES/IM's "key lock IS the
	// record lock" rule permits); other protocols open late.
	OnlineRestart bool
	// Stats receives instrumentation; one is created when nil.
	Stats *trace.Stats
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.PoolSize == 0 {
		o.PoolSize = 256
	}
	o.Stats = trace.OrNew(o.Stats)
	return o
}

// DB is an engine instance.
type DB struct {
	opts  Options
	stats *trace.Stats
	disk  *storage.Disk
	log   *wal.Log

	// epochMu serializes Crash (exclusive) against in-flight commit
	// acknowledgements (shared). Commits hold it in read mode across the
	// epoch check, the commit force, and the acknowledgement, so a crash
	// can never land inside that window — yet commits run concurrently
	// with each other, which is what lets group commit batch their log
	// forces. Lock order: epochMu before mu; nothing acquires them in the
	// reverse order.
	epochMu sync.RWMutex
	// ddlMu admits one CreateTable at a time, so names stay unique and only
	// the first DDL creates the catalog heap. Lock order: ddlMu before mu.
	ddlMu sync.Mutex

	mu    sync.Mutex
	locks *lock.Manager
	tm    *txn.Manager
	pool  *buffer.Pool
	im    *core.Manager
	dm    *data.Manager
	// vs is this epoch's MVCC version store (see internal/mvcc and
	// snapshot.go). buildVolatile replaces it wholesale, so restart and
	// standby promotion invalidate every chain for free; the transaction
	// manager points at the same store, keeping a zombie transaction's
	// pushes on its own orphaned epoch.
	vs *mvcc.Store
	// catalog is the catalog heap (catalog.go), nil until a DDL commits.
	// The next IDs are one past the highest its rows name.
	catalog     *data.Table
	nextTableID uint64
	nextIndexID uint32
	tables      map[string]*Table
	downed      bool
	// replica marks an unpromoted standby (see replica.go): closed to
	// transactions like a crashed engine, opened by Promote.
	replica bool
	// commitGate, when set, must confirm each commit LSN against the
	// standby before the commit is acknowledged (semi-sync replication).
	commitGate func(wal.LSN) error
	// recov is the live online-restart coordinator, non-nil from an online
	// Restart until the next Crash/reopen. It may already be done (its
	// Recovering() false); Crash aborts it so a zombie coordinator never
	// checkpoints the new epoch.
	recov *recovery.Online
	// upCh is closed while the engine is up; Crash replaces it with an
	// open channel and Restart closes that one. AwaitUp blocks on it.
	upCh chan struct{}

	// img is the latest image copy, the restore base for automatic media
	// recovery. Nil means recovery replays each page's full log history
	// (valid here because the simulated log is never pruned).
	imgMu sync.Mutex
	img   *recovery.ImageCopy
}

// Open creates a fresh engine on a new simulated disk.
func Open(opts Options) *DB {
	opts = opts.withDefaults()
	return newDB(opts, storage.NewDisk(opts.PageSize), wal.NewLog(opts.Stats), true)
}

// newDB is the one engine constructor: the volatile machinery for opts
// (defaults applied) over the given disk and log. An engine built down
// accepts no transactions until Restart (or, for a replica, Promote)
// opens it.
func newDB(opts Options, disk *storage.Disk, log *wal.Log, up bool) *DB {
	d := &DB{
		opts:  opts,
		stats: opts.Stats,
		disk:  disk,
		log:   log,
		upCh:  make(chan struct{}),
	}
	if up {
		close(d.upCh)
	}
	d.buildVolatile()
	d.downed = !up
	return d
}

func (d *DB) buildVolatile() {
	// Capture this epoch's stable handles: the pool's media recoverer must
	// keep healing against the disk and log the pool itself writes to, even
	// after a later Crash swaps d.disk/d.log to their successors — a
	// straggler from the old epoch must never touch the new one.
	disk, log := d.disk, d.log
	if d.pool != nil {
		// A predecessor pool's cleaner must not keep writing to the
		// orphaned epoch's disk after the engine moves on.
		d.pool.StopCleaner()
	}
	d.locks = lock.NewManager(d.stats)
	d.locks.SetWaitTimeout(d.opts.LockWaitTimeout)
	d.tm = txn.NewManager(log, d.locks)
	d.pool = buffer.NewPool(disk, log, d.opts.PoolSize, d.stats)
	if d.opts.CleanerInterval > 0 {
		d.pool.StartCleaner(d.opts.CleanerInterval, buffer.DefaultCleanerBatch)
	}
	d.im = core.NewManager(d.pool, d.stats)
	d.dm = data.NewManager(d.pool, d.opts.Granularity)
	d.tm.SetUndoer(&undoRouter{im: d.im, dm: d.dm})
	d.vs = mvcc.NewStore(d.stats)
	// Pre-epoch commits live in pages with no chains; start the snapshot
	// watermark past them so a fresh snapshot orders after every one.
	d.vs.StartAt(log.MaxLSN())
	d.tm.SetVersionStore(d.vs)
	d.tm.SetStats(d.stats)
	d.pool.SetMediaRecoverer(func(id storage.PageID) error {
		return d.recoverPageOn(disk, log, id)
	})
	d.tables = make(map[string]*Table)
	d.catalog, d.nextTableID, d.nextIndexID = nil, 1, 1
	d.downed = false
}

// undoRouter dispatches rollback work to the owning resource manager. It
// holds the managers of its own epoch (not the DB) so a transaction rolling
// back across a Crash keeps undoing against the world it modified.
type undoRouter struct {
	im *core.Manager
	dm *data.Manager
}

func (r *undoRouter) Undo(tx *txn.Tx, rec *wal.Record) error {
	switch {
	case rec.Op >= wal.OpIdxInsertKey && rec.Op <= wal.OpIdxUndeleteChild,
		rec.Op == wal.OpFSMAlloc, rec.Op == wal.OpFSMFree:
		return r.im.Undo(tx, rec)
	case rec.Op >= wal.OpDataFormat && rec.Op <= wal.OpDataFree:
		return r.dm.Undo(tx, rec)
	default:
		return fmt.Errorf("db: no undo route for op %s", rec.Op)
	}
}

// Stats returns the engine's instrumentation sink.
func (d *DB) Stats() *trace.Stats { return d.stats }

// Log exposes the write-ahead log (benches, verification). Crash installs
// a successor log, so don't cache the result across a crash.
func (d *DB) Log() *wal.Log {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log
}

// Disk exposes the simulated disk (image copies, media-failure injection).
// Crash installs a successor disk, so don't cache the result across a crash.
func (d *DB) Disk() *storage.Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.disk
}

// Pool exposes the buffer pool (checkpoint flushes in tests).
func (d *DB) Pool() *buffer.Pool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pool
}

// Begin starts a transaction. After a Crash (and before Restart) it fails
// with ErrCrashed so callers can degrade gracefully instead of dying.
func (d *DB) Begin() (*txn.Tx, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed {
		return nil, ErrCrashed
	}
	return d.tm.Begin(), nil
}

// MustBegin starts a transaction, panicking on ErrCrashed. Convenience
// for tests, benches, and examples that control the crash schedule.
func (d *DB) MustBegin() *txn.Tx {
	tx, err := d.Begin()
	if err != nil {
		panic(err)
	}
	return tx
}

// TakeImageCopy takes a fuzzy image copy of the disk (no quiescing; the
// log makes it action-consistent), installs it as the restore base for
// automatic media recovery, and returns it. Corrupt on-disk pages are
// excluded from the image — they are rebuilt from the log instead.
func (d *DB) TakeImageCopy() *recovery.ImageCopy {
	d.mu.Lock()
	disk, log := d.disk, d.log
	d.mu.Unlock()
	img := recovery.TakeImageCopy(disk, log)
	d.imgMu.Lock()
	d.img = img
	d.imgMu.Unlock()
	return img
}

// recoverPage is the engine's media recoverer: restore the page from the
// latest image copy (or from scratch when none exists) and roll it forward
// from the stable log. The buffer pool invokes it when a page read fails
// its checksum or hits a permanent device error; VerifyConsistency invokes
// it from its checksum sweep.
func (d *DB) recoverPageOn(disk *storage.Disk, log *wal.Log, id storage.PageID) error {
	return d.recoverPagesOn(disk, log, []storage.PageID{id})
}

// recoverPagesOn rebuilds a batch of damaged pages in one forward log scan
// (recovery.RecoverPages), so a multi-page media failure — a dying device
// corrupting a whole region — costs one scan instead of one per page.
func (d *DB) recoverPagesOn(disk *storage.Disk, log *wal.Log, ids []storage.PageID) error {
	d.imgMu.Lock()
	img := d.img
	d.imgMu.Unlock()
	if img == nil {
		// No archive taken yet: replay each page's entire log history onto
		// a zero page. Valid because the simulated log is never pruned.
		img = &recovery.ImageCopy{Pages: map[storage.PageID][]byte{}}
	}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if _, err = recovery.RecoverPages(disk, log, img, ids); err == nil {
			d.stats.MediaRecoveries.Add(uint64(len(ids)))
			return nil
		}
		if !errors.Is(err, storage.ErrTransientIO) {
			break
		}
	}
	return fmt.Errorf("%w: pages %v: %v", ErrMediaFailure, ids, err)
}

// Checkpoint takes a fuzzy checkpoint (a no-op while the engine is down).
//
// While online recovery is pending the checkpoint is skipped (and counted):
// its DPT would omit the planned-but-not-yet-resident pages, so a re-crash
// would analyze from it and lose their redo. The coordinator takes the
// bounding checkpoint itself once drain and undo finish.
func (d *DB) Checkpoint() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed {
		return
	}
	if d.recoveringLocked() {
		d.stats.CheckpointsSkippedRecovering.Add(1)
		return
	}
	d.tm.Checkpoint(d.pool)
}

// recoveringLocked reports whether online recovery is still pending.
// Caller holds d.mu.
func (d *DB) recoveringLocked() bool {
	return d.recov != nil && d.recov.Recovering()
}

// abortRecoveryLocked fences off a live online-restart coordinator: its
// background goroutines observe the abort flag and stop without touching
// the hook or taking the bounding checkpoint. Caller holds d.mu.
func (d *DB) abortRecoveryLocked() {
	if d.recov != nil {
		d.recov.Abort()
		d.recov = nil
	}
}

// Recovering reports whether the engine is up but still recovering in the
// background (online restart). Ordinary transactions run; DDL and
// VerifyConsistency fail with ErrRecovering until AwaitRecovered.
func (d *DB) Recovering() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.downed && d.recoveringLocked()
}

// AwaitRecovered blocks until the engine is up AND any background recovery
// has finished, returning the completed restart report. After an offline
// restart it returns (nil, nil) as soon as the engine is up. If a re-crash
// aborts an online recovery mid-flight, it waits for the next restart's
// recovery instead of reporting the aborted one.
func (d *DB) AwaitRecovered() (*recovery.Report, error) {
	for {
		d.AwaitUp()
		d.mu.Lock()
		o := d.recov
		d.mu.Unlock()
		if o == nil {
			return nil, nil
		}
		rep, err := o.Wait()
		if errors.Is(err, recovery.ErrRecoveryAborted) {
			d.mu.Lock()
			superseded := d.recov != o
			d.mu.Unlock()
			if superseded {
				continue // a crash raced us; await the successor recovery
			}
		}
		return rep, err
	}
}

// AwaitUpFor is AwaitUp with a deadline: it returns true once the engine
// is up, or false if timeout elapses first. A non-positive timeout waits
// forever.
func (d *DB) AwaitUpFor(timeout time.Duration) bool {
	d.mu.Lock()
	ch := d.upCh
	d.mu.Unlock()
	if timeout <= 0 {
		<-ch
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// Table is a handle on one table: a record heap plus a unique primary
// index over the row key, with optional secondary indexes.
type Table struct {
	db      *DB
	name    string
	id      uint64
	data    *data.Table
	primary *core.Index
	// vs is the version store of the epoch this handle was built in. Kept
	// on the handle (not read through db) so a zombie writer holding a
	// pre-crash handle pushes versions into its own orphaned store, never
	// into the successor epoch's.
	vs *mvcc.Store

	mu          sync.Mutex
	secondaries []*secondary

	// scanHook, when set by a test, is called by a snapshot scan between a
	// cursor step and the read of the chains in the gap it jumped.
	scanHook func()
}

type secondary struct {
	name string
	ix   *core.Index
	key  KeySpec
}

// secondaryList copies the table's secondary indexes under t.mu.
func (t *Table) secondaryList() []*secondary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*secondary(nil), t.secondaries...)
}

// ddlCheckLocked refuses DDL on a crashed engine, and during background
// recovery, whose drain and loser undo DDL would race over the FSM and the
// catalog; callers retry. Caller holds d.mu.
func (d *DB) ddlCheckLocked() error {
	if d.downed {
		return ErrCrashed
	}
	if d.recoveringLocked() {
		return ErrRecovering
	}
	return nil
}

// CreateTable creates a table with its primary index in one internal
// transaction. Like CreateIndex's, it runs without d.mu: under page locking
// its catalog insert can wait for a CreateIndex's, whose backfill can wait
// for a writer that needs d.mu to commit.
func (d *DB) CreateTable(name string) (*Table, error) {
	d.ddlMu.Lock()
	defer d.ddlMu.Unlock()
	d.mu.Lock()
	err := d.ddlCheckLocked()
	if _, dup := d.tables[name]; err == nil && dup {
		err = fmt.Errorf("db: table %q exists", name)
	}
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	// A failed DDL leaks only its reserved IDs.
	tm, dm, im, cat := d.tm, d.dm, d.im, d.catalog
	tableID, indexID := d.nextTableID, d.nextIndexID
	d.nextTableID++
	d.nextIndexID++
	d.mu.Unlock()
	tx := tm.Begin()
	var dt *data.Table
	var ix *core.Index
	if cat == nil { // the first DDL creates the heap, on the first page allocated
		cat, err = dm.CreateTable(tx, catalogID)
		if err == nil && cat.FirstPage != storage.FirstAllocatablePageID {
			err = fmt.Errorf("db: catalog heap created on page %d", cat.FirstPage)
		}
	}
	if err == nil {
		dt, err = dm.CreateTable(tx, tableID)
	}
	if err == nil {
		ix, err = im.CreateIndex(tx, d.indexConfig(indexID, true))
	}
	if err == nil {
		_, err = cat.Insert(tx, catalogRow{kind: rowTable, table: tableID, page: dt.FirstPage, name: name}.encode())
	}
	if err == nil {
		_, err = cat.Insert(tx, catalogRow{kind: rowPrimary, table: tableID, index: indexID, page: ix.Root(), name: name + "_pk"}.encode())
	}
	if err != nil {
		_ = tx.Rollback()
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed || d.tm != tm {
		return nil, ErrCrashed // the restart's log decides whether the table exists
	}
	d.catalog = cat
	t := &Table{db: d, name: name, id: tableID, data: dt, primary: ix, vs: d.vs}
	d.tables[name] = t
	return t, nil
}

func (d *DB) indexConfig(id uint32, unique bool) core.Config {
	return core.Config{
		ID: id, Unique: unique, Protocol: d.opts.Protocol,
		Granularity: d.opts.Granularity,
	}
}

// Table returns an open table handle by name.
func (d *DB) Table(name string) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// TableFor returns the table handle belonging to tx's epoch, or ErrCrashed
// when the engine has crashed under tx. Retry loops that cache nothing
// across restarts (db.RunTxn bodies) fetch their handles through this so a
// new-epoch transaction never operates through a pre-crash handle — the
// handle's pool and disk would be the orphaned ones — and vice versa.
func (d *DB) TableFor(tx *txn.Tx, name string) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed || !d.tm.Owns(tx) {
		return nil, ErrCrashed
	}
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("db: no table %q", name)
	}
	return t, nil
}

// row codec: u16 keyLen | key | value.
func encodeRow(key, value []byte) []byte {
	b := make([]byte, 2+len(key)+len(value))
	b[0] = byte(len(key))
	b[1] = byte(len(key) >> 8)
	copy(b[2:], key)
	copy(b[2+len(key):], value)
	return b
}

// decodeRow splits a row into slices of rec. The key's capacity ends where
// the value begins, so appending to the key cannot overwrite the value.
func decodeRow(rec []byte) (key, value []byte, err error) {
	if len(rec) < 2 {
		return nil, nil, fmt.Errorf("db: row too short")
	}
	kl := int(rec[0]) | int(rec[1])<<8
	if len(rec) < 2+kl {
		return nil, nil, fmt.Errorf("db: row truncated")
	}
	return rec[2 : 2+kl : 2+kl], rec[2+kl:], nil
}

// Insert stores a row. The record manager X-locks the new record for
// commit duration; under data-only locking that same lock protects every
// index key referencing it, so the index inserts add only instant
// next-key locks (the paper's minimal-locking claim).
func (t *Table) Insert(tx *txn.Tx, key, value []byte) error {
	if tx.Snapshot() != nil {
		return fmt.Errorf("%w: insert %q", ErrReadOnlyTxn, key)
	}
	save := tx.Savepoint()
	rid, err := t.data.Insert(tx, encodeRow(key, value))
	if err != nil {
		return err
	}
	// Version push BEFORE the index insert: the heap record is not yet
	// reachable by key, so no snapshot reader can observe this insert
	// until the chain that hides it exists. A failure from here on rolls
	// back to save, and DropTxSince discards the version with the pages.
	if err := t.pushVersion(tx, key, true, value, t.insertSeed(tx, key)); err != nil {
		if rbErr := tx.RollbackTo(save); rbErr != nil {
			return fmt.Errorf("db: version push failed (%v); rollback failed: %w", err, rbErr)
		}
		return err
	}
	if err := t.primary.Insert(tx, storage.Key{Val: key, RID: rid}); err != nil {
		if rbErr := tx.RollbackTo(save); rbErr != nil {
			return fmt.Errorf("db: insert failed (%v); rollback failed: %w", err, rbErr)
		}
		return err
	}
	for _, s := range t.secondaryList() {
		if err := s.ix.Insert(tx, storage.Key{Val: s.key.Key(value), RID: rid}); err != nil {
			if rbErr := tx.RollbackTo(save); rbErr != nil {
				return fmt.Errorf("db: secondary insert failed (%v); rollback failed: %w", err, rbErr)
			}
			return err
		}
	}
	return nil
}

// recordLockNeeded reports whether reads must lock records explicitly:
// under ARIES/IM data-only locking the index key lock IS the record lock,
// so the record manager skips it; under every index-specific protocol
// (including the baselines) "the record manager would have to do that
// locking also" (§2.1).
func (t *Table) recordLockNeeded() bool {
	return !t.db.opts.Protocol.KeyLockIsRecordLock()
}

// fetchRow is the single repeatable-read record fetch: the point reads, the
// positioning reads of Delete and Update, and every row of the table's
// locked walk resolve their RID through here, so the lock-or-not decision —
// and its divergence from the lock-free snapshot path, which replaces this
// call entirely — lives in exactly one place. key and value are slices of a
// private copy of the record: a scan hands them to its caller as they are.
func (t *Table) fetchRow(tx *txn.Tx, rid storage.RID) (key, value []byte, err error) {
	rec, err := t.data.Fetch(tx, rid, t.recordLockNeeded())
	if err != nil {
		return nil, nil, err
	}
	return decodeRow(rec)
}

// Get fetches a row by primary key at repeatable-read isolation. The index
// fetch locks the key — which under data-only locking is the record lock,
// so the record manager does not lock again (§2.1). Under a snapshot
// transaction the read routes to the lock-free MVCC path instead.
func (t *Table) Get(tx *txn.Tx, key []byte) ([]byte, error) {
	if s := tx.Snapshot(); s != nil {
		return t.snapshotGet(s.LSN, key)
	}
	res, _, err := t.primary.Fetch(tx, key, core.EQ)
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	_, value, err := t.fetchRow(tx, res.Key.RID)
	return value, err
}

// Delete removes a row by primary key. The positioning fetch locks the
// key X up front (fetch-for-update): fetching S and upgrading during the
// delete would let two deleters of the same key each hold S and wait for
// the other's X — a guaranteed conversion deadlock under contention.
func (t *Table) Delete(tx *txn.Tx, key []byte) error {
	if tx.Snapshot() != nil {
		return fmt.Errorf("%w: delete %q", ErrReadOnlyTxn, key)
	}
	save := tx.Savepoint()
	res, _, err := t.primary.FetchForUpdate(tx, key, core.EQ)
	if err != nil {
		return err
	}
	if !res.Found {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	rid := res.Key.RID
	_, value, err := t.fetchRow(tx, rid)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if rbErr := tx.RollbackTo(save); rbErr != nil {
			return fmt.Errorf("db: delete failed (%v); rollback failed: %w", err, rbErr)
		}
		return err
	}
	// Tombstone push BEFORE the ghosting update: a snapshot reader that
	// observes any trace of this delete must find the chain that hides it.
	// The row image in hand is the committed state (the X key lock from
	// the positioning fetch excludes other writers), so a chain seeded
	// here needs no page probe.
	if err := t.pushVersion(tx, key, false, nil, func() (bool, []byte, uint64, error) {
		return true, value, t.vs.Seq(t.id), nil
	}); err != nil {
		return fail(err)
	}
	if err := t.data.Delete(tx, rid, !t.recordLockNeeded()); err != nil { // data-only: X already held by the fetch
		return fail(err)
	}
	if err := t.primary.Delete(tx, storage.Key{Val: res.Key.Val, RID: rid}); err != nil {
		return fail(err)
	}
	for _, s := range t.secondaryList() {
		if err := s.ix.Delete(tx, storage.Key{Val: s.key.Key(value), RID: rid}); err != nil {
			return fail(err)
		}
	}
	return nil
}

// Update replaces a row's value in place: the positioning fetch X-locks the
// key — under data-only locking that is the record's lock and the lock on
// every index entry carrying its RID — the record manager rewrites the row
// where it lies under one log record, and the RID, the primary tree and every
// secondary index whose key is unchanged are left alone. A value
// shorter than the one it replaces, or one its page has no room for, moves
// the row instead: delete + insert in the same transaction, under a new RID.
func (t *Table) Update(tx *txn.Tx, key, value []byte) error {
	if tx.Snapshot() != nil {
		return fmt.Errorf("%w: update %q", ErrReadOnlyTxn, key)
	}
	save := tx.Savepoint()
	res, _, err := t.primary.FetchForUpdate(tx, key, core.EQ)
	if err != nil {
		return err
	}
	if !res.Found {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	rid := res.Key.RID
	_, old, err := t.fetchRow(tx, rid)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		if rbErr := tx.RollbackTo(save); rbErr != nil {
			return fmt.Errorf("db: update failed (%v); rollback failed: %w", err, rbErr)
		}
		return err
	}
	if len(value) >= len(old) {
		// Version push BEFORE the page changes, seeded like Delete's tombstone
		// with the committed image the X lock lets us hold.
		if err := t.pushVersion(tx, key, true, value, func() (bool, []byte, uint64, error) {
			return true, old, t.vs.Seq(t.id), nil
		}); err != nil {
			return fail(err)
		}
		inPlace, err := t.data.Update(tx, rid, encodeRow(key, value), !t.recordLockNeeded())
		if err != nil {
			return fail(err)
		}
		if inPlace {
			for _, s := range t.secondaryList() {
				was, is := s.key.Key(old), s.key.Key(value)
				if bytes.Equal(was, is) {
					continue
				}
				if err := s.ix.Delete(tx, storage.Key{Val: was, RID: rid}); err != nil {
					return fail(err)
				}
				if err := s.ix.Insert(tx, storage.Key{Val: is, RID: rid}); err != nil {
					return fail(err)
				}
			}
			return nil
		}
		// The version the refused grow pushed stays: the delete's tombstone
		// and the insert's image follow it in this transaction and win.
	}
	if err := t.Delete(tx, key); err != nil {
		return fail(err)
	}
	if err := t.Insert(tx, key, value); err != nil {
		return fail(err)
	}
	return nil
}

// Row is one scan result. Its slices are the caller's to keep: no later
// step of the scan reads or writes them, and appending to Key cannot reach
// Value.
type Row struct {
	Key   []byte
	Value []byte
}

// Scan iterates rows with from <= key <= to (nil to = unbounded) in key
// order at repeatable-read isolation: every row touched stays S-locked to
// commit, and next-key locking protects the range's gaps from phantoms.
// Under a snapshot transaction the scan routes to the lock-free MVCC
// merge of the page cursor with the version chains.
func (t *Table) Scan(tx *txn.Tx, from, to []byte, fn func(Row) (bool, error)) error {
	if s := tx.Snapshot(); s != nil {
		return t.snapshotScan(s.LSN, from, to, fn)
	}
	res, cur, err := t.primary.Fetch(tx, from, core.GE)
	if err != nil {
		return err
	}
	return t.walk(tx, t.primary, res, cur,
		func(key []byte) bool { return to != nil && string(key) > string(to) },
		func(_ storage.Key, r Row) (bool, error) { return fn(r) })
}

// walk is the table's locked walk (§2.3): from res, the position of cur on
// ix, Fetch Next runs until EOF or until past reports a key beyond the
// range, and every key on the way stays S-locked to commit. past is tested
// before fetchRow, so the lock on the first key beyond the range ends the
// range and that key's record is never read. visit gets each index key
// (for its RID) with its row, and stops the walk by returning false.
func (t *Table) walk(tx *txn.Tx, ix *core.Index, res core.FetchResult, cur *core.Cursor,
	past func(key []byte) bool, visit func(at storage.Key, r Row) (bool, error)) error {
	for !res.EOF && !past(res.Key.Val) {
		k, v, err := t.fetchRow(tx, res.Key.RID)
		if err != nil {
			return err
		}
		if cont, err := visit(res.Key, Row{Key: k, Value: v}); err != nil || !cont {
			return err
		}
		if res, err = ix.FetchNext(tx, cur); err != nil {
			return err
		}
	}
	return nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// PrimaryIndex exposes the primary index (benches, verification).
func (t *Table) PrimaryIndex() *core.Index { return t.primary }

// DataTable exposes the record heap (verification).
func (t *Table) DataTable() *data.Table { return t.data }

// Crash discards every volatile structure: the unforced log tail, the
// buffer pool contents, the lock table, and the transaction table. Stable
// storage survives. The engine refuses work until Restart.
//
// Crash is safe under live traffic. Goroutines still inside the engine
// ("zombies" of the crashed epoch) are fenced off rather than waited for:
// the disk and log are cloned at the crash instant and the engine continues
// on the clones, so everything a zombie writes afterwards lands on the
// orphaned originals — exactly the in-flight I/O a real power cut loses.
// The lock manager is shut down so zombies blocked in lock waits wake with
// lock.ErrShutdown and unwind; commits racing the crash are fenced by
// epochMu (see commitAcked), so a commit either acks before the crash
// instant and is durable, or observes the crash and fails with ErrCrashed.
//
// The disk is cloned before the log: WAL discipline forces the log before
// any page write, so every page present in the cloned disk is covered by
// the cloned log's stable prefix (the reverse order could capture a stolen
// page whose undo information misses the log snapshot).
//
// The log clone is also the crash fence for the lock-free append pipeline:
// Clone holds the log's crash fence exclusively, draining zombie appenders
// out of their claim→publish window, so the clone is truncated at the
// contiguity watermark — never mid-hole — and a reservation claimed but not
// yet published at the crash instant simply never existed on the successor.
// Zombie flushes parked on the orphaned original die by flush-generation
// fencing, and a commit whose flush the crash killed surfaces
// wal.ErrLogCrashed instead of a silently dead LSN.
func (d *DB) Crash() {
	// Exclusive epoch lock: wait out commits already past their epoch check
	// (each holds the read side for at most one log force) and block new
	// ones, so no commit acks against a log this crash is about to discard.
	d.epochMu.Lock()
	defer d.epochMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.downed {
		return
	}
	// Crash fence for the page cleaner: stop it and wait out its in-flight
	// pass BEFORE cloning the disk, so the successor disk can never receive
	// a cleaner write. (Zombie foreground I/O still lands on the orphaned
	// original, as for any in-flight write a power cut loses.)
	d.pool.StopCleaner()
	// A crash mid-online-recovery kills the coordinator with everything
	// else that is volatile: the plan, the reinstated locks, the background
	// losers all die here, and the next restart rediscovers them from the
	// pre-crash checkpoint (no checkpoint was taken while it was pending).
	d.abortRecoveryLocked()
	oldDisk := d.disk
	d.disk = oldDisk.Clone()
	if inj := oldDisk.Injector(); inj != nil {
		d.disk.SetInjector(inj) // the hardware stays hostile across the crash
	}
	d.log = d.log.Clone(d.stats)
	d.log.Crash()
	d.locks.Shutdown()
	d.downed = true
	d.upCh = make(chan struct{})
}

// AwaitUp blocks until the engine is up (i.e. not crashed). It returns
// immediately on a running engine; after a Crash it waits for the Restart.
func (d *DB) AwaitUp() {
	d.mu.Lock()
	ch := d.upCh
	d.mu.Unlock()
	<-ch
}

// markUpLocked declares the engine up, releasing AwaitUp callers.
func (d *DB) markUpLocked() {
	if d.upCh == nil { // DB built by hand (tests); treat as freshly up
		ch := make(chan struct{})
		close(ch)
		d.upCh = ch
		return
	}
	select {
	case <-d.upCh:
		// already closed
	default:
		close(d.upCh)
	}
}

// reopenLocked rebuilds the volatile state; the caller holds d.mu and
// then runs restart recovery, which reopens the catalog.
func (d *DB) reopenLocked() {
	// A restart over a still-recovering engine (legal: tests and sweeps
	// restart without an intervening Crash) orphans the old coordinator.
	d.abortRecoveryLocked()
	var prevNextID wal.TxID
	if d.tm != nil {
		prevNextID = d.tm.NextID()
	}
	d.buildVolatile()
	// Transaction IDs double as lock owner IDs; carrying the counter across
	// the restart keeps a pre-crash zombie and a post-restart transaction
	// from ever sharing one. (Restart analysis may push it higher still.)
	d.tm.SetNextID(prevNextID)
}

// Restart rebuilds the volatile state and runs restart recovery, which
// reopens the catalog: every index a catalog row names is registered before
// the first loser undo step, and the table handles are built from the rows
// that survive undo.
//
// With Options.OnlineRestart (under the default data-only protocol) the
// engine is up the moment Restart returns — right after the analysis pass —
// and redo/undo continue in the background: the returned report carries
// only the open-time fields, and AwaitRecovered returns the completed one.
// Otherwise the same restart coordinator runs to completion first.
func (d *DB) Restart() (*recovery.Report, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reopenLocked()
	if d.opts.OnlineRestart && d.opts.Protocol.KeyLockIsRecordLock() {
		o, err := recovery.StartOnline(d.log, d.pool, d.tm, d.locks, d.stats, d.openCatalogLocked,
			recovery.OnlineOpts{
				RestartOpts: d.restartOptsLocked(0),
				Granularity: d.opts.Granularity,
			})
		if err != nil {
			return nil, err
		}
		d.recov = o
		// The pre-open undo has rolled back every DDL loser: their format
		// and FSM records keep them out of the background.
		if err := d.openCatalogLocked(); err != nil {
			d.abortRecoveryLocked()
			return nil, err
		}
		d.stats.OnlineRestarts.Add(1)
		d.markUpLocked()
		return o.OpenReport(), nil
	}
	return d.restartOfflineLocked(0)
}

// restartOfflineLocked runs the restart coordinator to completion, with an
// undo-step budget when maxUndoSteps is positive, and opens the engine on
// success. Caller holds d.mu.
func (d *DB) restartOfflineLocked(maxUndoSteps int) (*recovery.Report, error) {
	rep, err := recovery.RestartWith(d.log, d.pool, d.tm, d.locks, d.stats, d.openCatalogLocked,
		d.restartOptsLocked(maxUndoSteps))
	if err == nil {
		err = d.openCatalogLocked()
	}
	if err == nil {
		d.markUpLocked()
	}
	return rep, err
}

// SetOnlineRestart toggles online restart on an existing engine — typically
// a Fork, before the sweep decides which restart mode to exercise. Takes
// effect on the next Restart.
func (d *DB) SetOnlineRestart(on bool) {
	d.mu.Lock()
	d.opts.OnlineRestart = on
	d.mu.Unlock()
}

// restartOptsLocked builds the recovery options from the engine's tuning.
// Caller holds d.mu.
func (d *DB) restartOptsLocked(maxUndoSteps int) recovery.RestartOpts {
	return recovery.RestartOpts{
		MaxUndoSteps: maxUndoSteps,
		RedoWorkers:  d.opts.RedoWorkers,
	}
}

// SetRedoWorkers tunes restart redo parallelism on an existing engine —
// typically a Fork, whose options were copied from the parent before the
// sweep chose a worker count. Takes effect on the next Restart.
func (d *DB) SetRedoWorkers(n int) {
	d.mu.Lock()
	d.opts.RedoWorkers = n
	d.mu.Unlock()
}

// RestartInterrupted runs restart recovery with an undo-step budget,
// simulating a crash during restart: after maxUndoSteps undo steps the
// recovery "dies", the half-rebuilt volatile state is discarded, and the
// engine is left crashed (interrupted=true) for a subsequent Restart.
//
// forceTail picks the fate of the log records the interrupted restart
// itself wrote (CLRs, end records): true forces them to stable storage
// before the simulated re-crash, so the rerun must skip the compensated
// work via the CLRs' UndoNxtLSN chains — the ARIES repeated-restart
// guarantee; false loses the unforced tail, so the rerun repeats the undo
// from scratch. Both fates are legal outcomes of a real crash; the
// crash-point sweep exercises both.
func (d *DB) RestartInterrupted(maxUndoSteps int, forceTail bool) (interrupted bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reopenLocked()
	_, err = d.restartOfflineLocked(maxUndoSteps)
	if errors.Is(err, recovery.ErrRestartInterrupted) {
		if forceTail {
			d.log.ForceAll()
		}
		// The interrupted restart ran single-threaded under d.mu, so there
		// are no zombies of this epoch: crashing the log and pool in place
		// is safe and leaves the engine down for the next Restart.
		d.log.Crash()
		d.pool.Crash()
		d.downed = true
		select {
		case <-d.upCh:
			// Was up when called; re-open so AwaitUp blocks again. An upCh
			// that is already open keeps its waiters.
			d.upCh = make(chan struct{})
		default:
		}
		return true, nil
	}
	return false, err
}

// Fork clones the engine's stable state — the disk pages and the log, the
// catalog heap's among them — into an independent crashed engine, as if a
// copy of the machine lost power at this instant. The fork must be Restarted before
// use; the original is untouched. Crash-point sweeps fork once per
// truncation point instead of mutating the engine under test.
func (d *DB) Fork() *DB {
	d.mu.Lock()
	defer d.mu.Unlock()
	opts := d.opts
	opts.Stats = &trace.Stats{}
	nd := newDB(opts, d.disk.Clone(), d.log.Clone(opts.Stats), false)
	d.imgMu.Lock()
	nd.img = d.img // image pages are immutable; safe to share
	d.imgMu.Unlock()
	return nd
}

// VerifyConsistency cross-checks every table on a quiesced engine: every
// on-disk page passes its checksum (corrupt pages are self-healed via
// media recovery), the tree invariants hold, and the primary index and
// record heap are exact mirrors (every live record indexed once under its
// own RID, and vice versa). Every secondary index is held to its KeySpec
// the same way.
func (d *DB) VerifyConsistency() error {
	// The whole-engine sweep assumes a quiesced, fully recovered engine:
	// mid-online-recovery the heap/index mirrors legitimately disagree with
	// the committed state (loser inserts await their background undo, DPT
	// pages await their replay). Callers AwaitRecovered first.
	if d.Recovering() {
		return ErrRecovering
	}
	if err := d.checksumSweep(); err != nil {
		return err
	}
	d.mu.Lock()
	tables := make([]*Table, 0, len(d.tables))
	for _, t := range d.tables {
		tables = append(tables, t)
	}
	d.mu.Unlock()
	for _, t := range tables {
		records, err := t.data.ScanAll()
		if err != nil {
			return err
		}
		if err := checkMirror(t.primary, records, func(key, _ []byte) []byte { return key }); err != nil {
			return fmt.Errorf("table %q primary: %w", t.name, err)
		}
		for _, s := range t.secondaryList() {
			if err := checkMirror(s.ix, records, func(_, value []byte) []byte { return s.key.Key(value) }); err != nil {
				return fmt.Errorf("table %q secondary %q: %w", t.name, s.name, err)
			}
		}
	}
	return nil
}

// checkMirror checks ix's tree invariants and that ix and the heap's
// records are exact mirrors. Every entry references a live record, under
// the RID it was built for, at most once; with equal counts, that injective
// entry→record map means every record is indexed exactly once. Every entry
// also carries exactly the key keyOf derives from its record's row.
func checkMirror(ix *core.Index, records map[storage.RID][]byte, keyOf func(key, value []byte) []byte) error {
	if err := ix.CheckStructure(); err != nil {
		return err
	}
	keys, err := ix.Dump()
	if err != nil {
		return err
	}
	if len(keys) != len(records) {
		return fmt.Errorf("%d index keys vs %d records", len(keys), len(records))
	}
	indexed := make(map[storage.RID]bool, len(keys))
	for _, k := range keys {
		if indexed[k.RID] {
			return fmt.Errorf("record %s indexed twice", k.RID)
		}
		indexed[k.RID] = true
		rec, ok := records[k.RID]
		if !ok {
			return fmt.Errorf("entry %q references missing record %s", k.Val, k.RID)
		}
		key, value, err := decodeRow(rec)
		if err != nil {
			return err
		}
		if want := keyOf(key, value); string(want) != string(k.Val) {
			return fmt.Errorf("entry %q at %s, record derives %q", k.Val, k.RID, want)
		}
	}
	return nil
}

// Location is where one row key lives in a table. A zero RID (page 0 is
// never a data page) is "not held".
type Location struct {
	Heap    storage.RID // the heap record whose row has the key
	Value   []byte      // that row's value
	Primary storage.RID // the RID the primary index maps the key to
	// Secondary maps every secondary index's name to the RID of its entry
	// for the key: an entry under the heap record's RID or the primary's.
	Secondary map[string]storage.RID
}

func (l Location) String() string {
	return fmt.Sprintf("heap=%s primary=%s secondary=%v", l.Heap, l.Primary, l.Secondary)
}

// Locate reports, for each key, which of t's heap, primary index and
// secondary indexes hold it, and at what RID. It takes latches only, no
// locks and no transaction, so a dump may call it on a table whose state is
// in question. It reads the whole heap and every tree: it is for
// diagnostics on a quiesced engine, not for the serving path.
func (t *Table) Locate(keys ...[]byte) (map[string]Location, error) {
	secs := t.secondaryList()
	out := make(map[string]Location, len(keys))
	for _, k := range keys {
		out[string(k)] = Location{Secondary: make(map[string]storage.RID, len(secs))}
	}
	records, err := t.data.ScanAll()
	if err != nil {
		return nil, err
	}
	for rid, rec := range records {
		key, value, err := decodeRow(rec)
		if err != nil {
			return nil, err
		}
		if loc, ok := out[string(key)]; ok {
			loc.Heap, loc.Value = rid, value
			out[string(key)] = loc
		}
	}
	entries, err := t.primary.Dump()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if loc, ok := out[string(e.Val)]; ok {
			loc.Primary = e.RID
			out[string(e.Val)] = loc
		}
	}
	for _, sec := range secs {
		entries, err := sec.ix.Dump()
		if err != nil {
			return nil, err
		}
		held := make(map[storage.RID]bool, len(entries))
		for _, e := range entries {
			held[e.RID] = true
		}
		for _, loc := range out {
			switch {
			case held[loc.Heap]:
				loc.Secondary[sec.name] = loc.Heap
			case held[loc.Primary]:
				loc.Secondary[sec.name] = loc.Primary
			default:
				loc.Secondary[sec.name] = storage.RID{}
			}
		}
	}
	return out, nil
}

// checksumSweep reads every written disk page, verifying its checksum and
// repairing corrupt or permanently unreadable pages in place via media
// recovery. Transient read errors are retried.
func (d *DB) checksumSweep() error {
	d.mu.Lock()
	disk, log := d.disk, d.log
	d.mu.Unlock()
	buf := make([]byte, disk.PageSize())
	ids := disk.PageIDs()
	// Repair then re-verify: recovery's rebuild write goes through the
	// same faulty device and may itself be torn, so loop a few rounds (an
	// injector that caps consecutive faults guarantees progress). Each
	// round verifies the suspect set, then rebuilds every damaged page it
	// found in ONE batched log scan — a region-wide corruption no longer
	// pays one full scan per page.
	for round := 0; round < 8; round++ {
		var damaged []storage.PageID
		for _, id := range ids {
			var err error
			for attempt := 0; attempt < 8; attempt++ {
				if err = disk.Read(id, buf); err == nil || !errors.Is(err, storage.ErrTransientIO) {
					break
				}
				d.stats.IORetries.Add(1)
			}
			switch {
			case err == nil:
			case errors.Is(err, storage.ErrChecksum) || errors.Is(err, storage.ErrPermanentIO):
				d.stats.CorruptPages.Add(1)
				damaged = append(damaged, id)
			default:
				return fmt.Errorf("db: checksum sweep: page %d: %w", id, err)
			}
		}
		if len(damaged) == 0 {
			return nil
		}
		if err := d.recoverPagesOn(disk, log, damaged); err != nil {
			return fmt.Errorf("db: checksum sweep: %w", err)
		}
		ids = damaged // later rounds re-verify only the repaired pages
	}
	return fmt.Errorf("db: checksum sweep: pages still corrupt after repair rounds")
}

// GetCS fetches a row at cursor-stability (degree 2) isolation: the read
// sees only committed data but leaves no lock behind, so it neither blocks
// later writers nor guarantees repeatability. The paper's protocols target
// repeatable read; CS is the weaker mode real systems offer alongside it.
func (t *Table) GetCS(tx *txn.Tx, key []byte) ([]byte, error) {
	if s := tx.Snapshot(); s != nil {
		// Snapshot isolation subsumes cursor stability: committed data,
		// no locks left behind — route to the same lock-free read.
		return t.snapshotGet(s.LSN, key)
	}
	res, err := t.primary.FetchCS(tx, key, core.EQ)
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	rid := res.Key.RID
	// A record lock apart from the key lock is given back after the read
	// too, unless tx held it already: FetchCS's rule for the key.
	if name := lock.DataLockName(t.db.opts.Granularity, uint64(rid.Page), rid.Slot); t.recordLockNeeded() && !tx.HoldsLock(name) {
		if err := tx.Lock(name, lock.S, lock.Manual, false); err != nil {
			return nil, err
		}
		defer tx.Unlock(name)
	}
	rec, err := t.data.Fetch(tx, rid, false)
	if err != nil {
		return nil, err
	}
	_, value, err := decodeRow(rec)
	return value, err
}

// ScanPrefix iterates all rows whose key starts with prefix, in key order,
// at repeatable-read isolation (§1.1's partial-key starting condition).
func (t *Table) ScanPrefix(tx *txn.Tx, prefix []byte, fn func(Row) (bool, error)) error {
	past := func(key []byte) bool { return !bytes.HasPrefix(key, prefix) }
	if s := tx.Snapshot(); s != nil {
		// Emission is in key order, so the first row past the prefix ends
		// the unbounded snapshot scan exactly.
		return t.snapshotScan(s.LSN, prefix, nil, func(r Row) (bool, error) {
			if past(r.Key) {
				return false, nil
			}
			return fn(r)
		})
	}
	res, cur, err := t.primary.FetchPrefix(tx, prefix)
	if err != nil {
		return err
	}
	return t.walk(tx, t.primary, res, cur, past, func(_ storage.Key, r Row) (bool, error) { return fn(r) })
}

// ArchiveLog streams the stable log prefix to w (offline log archiving,
// the prerequisite for §5 media recovery beyond the online log). It
// returns the number of records archived.
func (d *DB) ArchiveLog(w io.Writer) (int, error) { return d.Log().Archive(w) }

// OpenStandby builds an engine on a FRESH disk from a shipped log (see
// wal.ReadArchive) and runs ARIES restart against it: page-oriented redo
// reconstructs every page, the catalog heap's among them, and the undo pass
// rolls back whatever was in flight at ship time, DDL included. The result is a warm
// standby, immediately writable after promotion, secondary indexes
// included: each index's KeySpec is in its catalog row.
func OpenStandby(opts Options, shipped *wal.Log) (*DB, *recovery.Report, error) {
	opts = opts.withDefaults()
	d := newDB(opts, storage.NewDisk(opts.PageSize), shipped, false)
	rep, err := d.Restart()
	if err != nil {
		return nil, nil, err
	}
	return d, rep, nil
}

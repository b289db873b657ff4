// Online restart: open for business after analysis, recover on demand.
//
// Offline ARIES restart keeps the engine dark for the whole redo+undo
// span. But redo is strictly page-oriented (paper §3): a page's recovery
// depends only on its own log records, so any page can be recovered the
// moment somebody needs it. Following Sauer & Härder's instant-restart
// design (arXiv 1409.3682), the online coordinator splits restart into
// four phases:
//
//  1. analysis (synchronous): rebuild the transaction table and DPT,
//     exactly as offline restart does;
//  2. lock reinstatement + stabilization (synchronous): prepared
//     transactions reacquire locks from their prepare records; losers are
//     classified — a loser whose remaining undo chain is pure inserts
//     (OpDataInsert / OpIdxInsertKey, with completed nested top actions
//     bypassed via their dummy CLRs) can be undone *after* open under
//     reinstated X record locks, while any loser holding structural work
//     (incomplete SMOs, formats, chain fixes, FSM ops) or deletes (whose
//     commit-duration next-key locks are not derivable from the log) is
//     fully undone *before* open in the classic global reverse-LSN sweep.
//     Pages touched by that sweep are recovered on demand by the hook, so
//     the pre-open phase costs undo work only, not a full redo pass;
//  3. on-demand redo (concurrent, after open): the DPT is installed as a
//     per-page "replay this log suffix" plan behind the buffer pool's
//     recovery hook — a miss read of a planned page replays its records
//     before any fixer sees the page, and the pool's loading-frame
//     protocol makes N concurrent fixers cost one replay;
//  4. background drain + background undo (concurrent, after open):
//     workers walk the remaining plan in first-redo order (prefetching
//     batches so miss reads overlap) while a goroutine rolls back the
//     insert-only losers; their reinstated record locks block readers and
//     ghost purges exactly as a live rollback's locks would.
//
// Crash-fence invariants: no checkpoint may be taken while the plan is
// non-empty (its DPT would miss the un-drained pages; db.Checkpoint is
// gated on Recovering), so a re-crash mid-online-recovery re-analyzes
// from the pre-crash checkpoint and loses nothing. The coordinator takes
// the bounding checkpoint itself once drain and undo both finish.
package recovery

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/data"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// ErrRecoveryAborted reports that the background recovery phases were
// aborted (a re-crash) before completing. The volatile state is invalid;
// the next restart recovers from the log as usual.
var ErrRecoveryAborted = errors.New("recovery: online recovery aborted by crash")

// maxDrainRetries bounds how many times the drain re-attempts a page whose
// Fix keeps failing (the pool already retries transient faults and runs
// media recovery internally, so this budget only rides out long seeded
// fault bursts).
const maxDrainRetries = 30

// OnlineOpts configures an online restart.
type OnlineOpts struct {
	RestartOpts
	// Granularity is the engine's data-lock granularity, used to derive
	// the record lock names reinstated for background losers.
	Granularity lock.Granularity

	// replayGate, when set by a test, is called as a page's on-demand
	// replay begins.
	replayGate func(storage.PageID)
}

// Online coordinates the concurrent phases of an online restart. It is
// created by StartOnline (which runs the synchronous phases and installs
// the recovery hook); the caller marks the engine up and the background
// phases run until Wait returns.
type Online struct {
	log   *wal.Log
	pool  *buffer.Pool
	tm    *txn.Manager
	stats *trace.Stats
	rep   *Report

	workers int

	// mu guards the plan. pending maps each unrecovered DPT page to its
	// redoable log suffix (in LSN order); draining marks pages the drain
	// workers have claimed (attribution for the on-demand/drain split).
	// An entry outlives its replay, emptied: only the drain removes it,
	// after a Fix of its own has returned, because only then is the frame
	// known to be installed, dirty and visible to the closing checkpoint's
	// dirty page table. A replay started by a foreground Fix may still be
	// in flight when the drain gets to the page.
	mu       sync.Mutex
	pending  map[storage.PageID][]*wal.Record
	draining map[storage.PageID]bool
	// order is every planned page in first-redo order — the drain's walk.
	order []storage.PageID

	bgLosers []*txn.Tx

	replayGate func(storage.PageID)

	applied  atomic.Int64
	skipped  atomic.Int64
	onDemand atomic.Int64
	drained  atomic.Int64

	abort atomic.Bool
	done  chan struct{}
	err   error
}

// StartOnline runs the synchronous phases of an online restart — analysis,
// plan construction, hook installation, lock reinstatement, and the
// pre-open stabilization undo — then launches the background drain and
// undo and returns. On return the engine is safe to open: every page a
// caller can fix recovers on demand, and every loser either is already
// undone or holds its locks again. The returned report has the open-time
// fields (AnalyzedFrom, RedoFrom, walls, LocksRestored) filled in; the
// redo/undo totals are written by the background phases and must be read
// through Wait.
func StartOnline(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, locks *lock.Manager, stats *trace.Stats, opts OnlineOpts) (*Online, error) {
	start := time.Now()
	rep := &Report{Online: true}
	t := time.Now()
	txTable, dpt, maxTx, err := analyze(log, rep)
	if err != nil {
		return nil, err
	}
	rep.AnalysisWall = time.Since(t)
	tm.SetNextID(maxTx + 1)

	workers := opts.RedoWorkers
	if workers < 1 {
		workers = 1
	}
	o := &Online{
		log:      log,
		pool:     pool,
		tm:       tm,
		stats:    stats,
		rep:      rep,
		workers:  workers,
		pending:  make(map[storage.PageID][]*wal.Record, len(dpt)),
		draining: make(map[storage.PageID]bool),
		done:     make(chan struct{}),

		replayGate: opts.replayGate,
	}
	rep.RedoWorkers = workers

	// Build the per-page redo plan in one pass over the log suffix: the
	// same records and the same per-page filter the offline redo pass
	// applies, grouped by page instead of replayed.
	if len(dpt) == 0 {
		rep.RedoFrom = rep.AnalyzedFrom
	} else {
		redoFrom := wal.LSN(^uint64(0))
		for _, l := range dpt {
			if l < redoFrom {
				redoFrom = l
			}
		}
		rep.RedoFrom = redoFrom
		for _, r := range log.SnapshotFrom(redoFrom) {
			rep.RedoRecordsScanned++
			if !r.Redoable() {
				continue
			}
			rec, ok := dpt[r.Page]
			if !ok || r.LSN < rec {
				continue
			}
			if o.pending[r.Page] == nil {
				o.order = append(o.order, r.Page)
			}
			o.pending[r.Page] = append(o.pending[r.Page], r)
		}
		if stats != nil {
			stats.RedoRecordsScanned.Add(uint64(rep.RedoRecordsScanned))
		}
	}

	// From here on every Fix recovers its page before the caller sees it —
	// including the fixes issued by the stabilization undo below.
	pool.SetRecoveryHook(o.recoverPage)
	fail := func(err error) (*Online, error) {
		pool.SetRecoveryHook(nil)
		return nil, err
	}

	// In-doubt (prepared) transactions: locks from their prepare records.
	if err := reacquireLocks(log, tm, txTable, rep); err != nil {
		return fail(err)
	}

	// Classify losers and reinstate the background-eligible ones' locks.
	stab := map[wal.TxID]*wal.TxTableEntry{}
	for id, e := range txTable {
		if e.State != wal.TxActive && e.State != wal.TxRollingBack {
			continue
		}
		names, bgOK, err := classifyLoser(log, e, opts.Granularity)
		if err != nil {
			return fail(err)
		}
		if !bgOK {
			stab[id] = e
			continue
		}
		for _, n := range names {
			if err := locks.Reinstate(lock.Owner(e.TxID), n, lock.X); err != nil {
				return fail(err)
			}
		}
		rep.LocksRestored += len(names)
		o.bgLosers = append(o.bgLosers, tm.AdoptLoser(*e))
	}

	// Pre-open stabilization: the structural/delete losers are fully undone
	// in the classic global reverse-LSN sweep before anyone else runs, so
	// the tree the background losers' logical undos will traverse — and the
	// tree new transactions see — is structurally consistent at open.
	if err := undoLosers(tm, stab, rep, 0); err != nil {
		return fail(err)
	}
	rep.LosersStabilized = rep.LosersUndone

	rep.OpenWall = time.Since(start)
	go o.run()
	return o, nil
}

// classifyLoser walks e's remaining undo chain (CLRs and dummy CLRs jump
// via UndoNxtLSN, so bypassed nested top actions are not inspected) and
// reports whether every record still to be undone is a pure insert — the
// condition for undoing the loser after open. For an eligible loser it
// returns the deduplicated commit-duration X record-lock names the loser
// must hold at open: ARIES/IM data-only locking names the key lock and the
// record lock identically (the RID), so the inserted record's lock covers
// both the data slot and every index key carrying that RID. Deletes are
// never eligible: their next-key locks are commit-duration but not
// derivable from the log.
func classifyLoser(log *wal.Log, e *wal.TxTableEntry, gran lock.Granularity) ([]lock.Name, bool, error) {
	seen := map[lock.Name]bool{}
	var names []lock.Name
	lsn := e.UndoNxtLSN
	for lsn != wal.NilLSN {
		r, err := log.Read(lsn)
		if err != nil {
			return nil, false, fmt.Errorf("recovery: classify tx %d: %w", e.TxID, err)
		}
		switch {
		case r.IsCLR():
			lsn = r.UndoNxtLSN
		case r.Undoable():
			var name lock.Name
			switch r.Op {
			case wal.OpDataInsert:
				slot, err := data.SlotOfPayload(r.Payload)
				if err != nil {
					return nil, false, fmt.Errorf("recovery: classify tx %d: %w", e.TxID, err)
				}
				name = lock.DataLockName(gran, uint64(r.Page), slot)
			case wal.OpIdxInsertKey:
				info, err := core.DecodeKeyOpPayload(r.Payload)
				if err != nil {
					return nil, false, fmt.Errorf("recovery: classify tx %d: %w", e.TxID, err)
				}
				name = lock.DataLockName(gran, uint64(info.Key.RID.Page), info.Key.RID.Slot)
			default:
				return nil, false, nil // structural work or a delete: stabilize before open
			}
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
			lsn = r.PrevLSN
		default:
			lsn = r.PrevLSN
		}
	}
	return names, true, nil
}

// recoverPage is the buffer pool's recovery hook: replay the page's
// planned log suffix onto the freshly read page image. Runs under the
// pool's loading-frame protocol, so one invocation at a time per planned
// page; a failed one leaves the plan entry as it was and the next fix
// retries (replay is idempotent because every record is page_LSN-guarded),
// a successful one empties it.
func (o *Online) recoverPage(pid storage.PageID, p *storage.Page) (bool, wal.LSN, error) {
	o.mu.Lock()
	recs := o.pending[pid]
	if len(recs) == 0 {
		o.mu.Unlock()
		return false, wal.NilLSN, nil
	}
	byDrain := o.draining[pid]
	o.mu.Unlock()
	if o.replayGate != nil {
		o.replayGate(pid)
	}

	dirty := false
	var recLSN wal.LSN
	applied, skipped := 0, 0
	for _, r := range recs {
		if p.LSN() >= uint64(r.LSN) {
			skipped++
			continue
		}
		if err := routeRedo(p, r); err != nil {
			return false, wal.NilLSN, fmt.Errorf("recovery: on-demand redo of %s: %w", r, err)
		}
		p.SetLSN(uint64(r.LSN))
		if !dirty {
			dirty = true
			recLSN = r.LSN
		}
		applied++
	}
	o.mu.Lock()
	o.pending[pid] = recs[:0]
	o.mu.Unlock()
	o.applied.Add(int64(applied))
	o.skipped.Add(int64(skipped))
	if byDrain {
		o.drained.Add(1)
	} else {
		o.onDemand.Add(1)
	}
	if o.stats != nil {
		o.stats.RedoApplied.Add(uint64(applied))
		o.stats.RedoSkipped.Add(uint64(skipped))
		if byDrain {
			o.stats.PagesRedoneByDrain.Add(1)
		} else {
			o.stats.PagesRedoneOnDemand.Add(1)
		}
	}
	return dirty, recLSN, nil
}

// run drives the background phases: the DPT drain and the loser undo run
// concurrently; when both finish the hook comes out, the bounding
// checkpoint is taken, and Wait is released.
func (o *Online) run() {
	var wg sync.WaitGroup
	var drainErr, undoErr error
	var redoWall, undoWall time.Duration
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		drainErr = o.drain()
		redoWall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		undoErr = o.undoBackground()
		undoWall = time.Since(start)
	}()
	wg.Wait()

	o.rep.RedoWall = redoWall
	o.rep.UndoWall = undoWall
	o.rep.RedosApplied += int(o.applied.Load())
	o.rep.RedosSkipped += int(o.skipped.Load())
	o.rep.PagesOnDemand = int(o.onDemand.Load())
	o.rep.PagesDrained = int(o.drained.Load())
	o.rep.LosersBackground = len(o.bgLosers)
	o.rep.LosersUndone += len(o.bgLosers)

	switch {
	case o.abort.Load():
		o.err = ErrRecoveryAborted
	case drainErr != nil:
		o.err = drainErr
	case undoErr != nil:
		o.err = undoErr
	default:
		// Plan empty, losers gone: recovery is complete. Remove the hook
		// (any in-flight invocation no-ops against the empty plan) and take
		// the checkpoint that bounds the next restart's analysis — the
		// checkpoint db.Checkpoint refused to take while we were pending.
		o.pool.SetRecoveryHook(nil)
		o.tm.Checkpoint(o.pool)
	}
	close(o.done)
}

// drain recovers every still-pending page front-to-back in first-redo
// order, partitioned across workers by the pool's shard hash (the same
// zero-sync split as offline parallel redo). Batches are prefetched so
// miss reads overlap; the per-page Fix below does the recovery.
func (o *Online) drain() error {
	parts := make([][]storage.PageID, o.workers)
	for _, pid := range o.order {
		w := int(buffer.ShardHash(pid) % uint64(o.workers))
		parts[w] = append(parts[w], pid)
	}
	if o.workers == 1 {
		return o.drainPart(parts[0])
	}
	errs := make([]error, o.workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = o.drainPart(parts[w])
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (o *Online) drainPart(pages []storage.PageID) error {
	for i := 0; i < len(pages); {
		if o.abort.Load() {
			return nil
		}
		end := i + redoPrefetchBatch
		if end > len(pages) {
			end = len(pages)
		}
		var live []storage.PageID
		o.mu.Lock()
		for _, pid := range pages[i:end] {
			if len(o.pending[pid]) > 0 {
				o.draining[pid] = true
				live = append(live, pid)
			}
		}
		o.mu.Unlock()
		batch := pages[i:end]
		i = end
		o.pool.Prefetch(live)
		var err error
		for _, pid := range batch {
			if e := o.drainPage(pid); e != nil && err == nil {
				err = e
			}
		}
		o.mu.Lock()
		for _, pid := range live {
			delete(o.draining, pid)
		}
		o.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// drainPage fixes one page — running the hook if the page is still to be
// replayed, waiting out a replay a foreground fix has in flight — and
// retires its plan entry. A page replayed on demand that has since left
// the pool was installed and written back; it needs no second read. Fix
// failures are retried: the pool's internal retry and media recovery handle
// most faults, so the loop only rides out seeded bursts.
func (o *Online) drainPage(pid storage.PageID) error {
	for attempt := 0; ; attempt++ {
		o.mu.Lock()
		recs, ok := o.pending[pid]
		o.mu.Unlock()
		if !ok || o.abort.Load() {
			return nil
		}
		if len(recs) == 0 && !o.pool.Contains(pid) {
			break
		}
		f, err := o.pool.Fix(pid)
		if err == nil {
			o.pool.Unfix(f)
			break
		}
		if attempt >= maxDrainRetries {
			return fmt.Errorf("recovery: drain of page %d: %w", pid, err)
		}
		time.Sleep(time.Duration(attempt+1) * 50 * time.Microsecond)
	}
	o.mu.Lock()
	if len(o.pending[pid]) == 0 {
		delete(o.pending, pid)
	}
	o.mu.Unlock()
	return nil
}

// undoBackground rolls back the insert-only losers in the same
// max-UndoNxtLSN order the offline sweep uses. Their reinstated X record
// locks make each logical key-removal invisible to readers until the
// loser ends — exactly a live rollback's contract.
func (o *Online) undoBackground() error {
	losers := map[wal.TxID]*txn.Tx{}
	for _, t := range o.bgLosers {
		losers[t.ID] = t
	}
	for len(losers) > 0 {
		if o.abort.Load() {
			return nil
		}
		var victim *txn.Tx
		for _, t := range losers {
			if t.UndoNxtLSN() == wal.NilLSN {
				t.EndLoser()
				delete(losers, t.ID)
				continue
			}
			if victim == nil || t.UndoNxtLSN() > victim.UndoNxtLSN() {
				victim = t
			}
		}
		if victim == nil {
			break
		}
		if err := victim.UndoStep(); err != nil {
			return err
		}
		if victim.UndoNxtLSN() == wal.NilLSN {
			victim.EndLoser()
			delete(losers, victim.ID)
		}
	}
	return nil
}

// OpenReport returns the report with its open-time fields (analysis wall,
// locks restored, open wall) filled in. The redo/undo totals are written
// by the background phases; read them through Wait instead.
func (o *Online) OpenReport() *Report {
	return o.rep
}

// Abort asks the background phases to stop (a re-crash). Non-blocking;
// the phases observe the flag at their next step and Wait then returns
// ErrRecoveryAborted. Safe to call at any time, including after
// completion (then a no-op).
func (o *Online) Abort() {
	o.abort.Store(true)
}

// Recovering reports whether background recovery is still in flight.
func (o *Online) Recovering() bool {
	select {
	case <-o.done:
		return false
	default:
		return true
	}
}

// Wait blocks until the background phases finish (or abort) and returns
// the completed report. The report's redo/undo fields are valid only
// after Wait returns.
func (o *Online) Wait() (*Report, error) {
	<-o.done
	return o.rep, o.err
}

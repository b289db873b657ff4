// The restart coordinator. Redo is strictly page-oriented (paper §3): a
// page's recovery depends only on its own log records, so any page can be
// recovered the moment somebody needs it. Following Sauer & Härder's
// instant-restart design (arXiv 1409.3682), every restart is:
//
//  1. analysis: rebuild the transaction table and DPT;
//  2. the plan: one pass over the log from the minimum recLSN groups every
//     record at or above its page's recLSN by page (buildPlan), and the
//     plan goes behind the buffer pool's recovery hook — a miss read of a
//     planned page replays its records before any fixer sees the page, and
//     the pool's loading-frame protocol makes N concurrent fixers cost one
//     replay;
//  3. the drain: RedoWorkers goroutines walk the plan in first-redo order,
//     one page at a time, until every planned page is recovered;
//  4. loser undo in the global reverse-LSN sweep (undoLosers);
//  5. hook out, and the checkpoint that bounds the next restart.
//
// What differs between the two entry points is only when the engine opens.
// RestartWith (offline) runs 1–5 in order and returns; nobody is let in
// before 5. StartOnline opens between 2 and 3: losers are classified — a
// loser whose remaining undo chain is inserts and updates in place
// (OpDataInsert / OpIdxInsertKey / OpDataUpdate, with completed nested top
// actions bypassed via their dummy CLRs) can be undone *after* open under
// reinstated X record locks,
// which block readers and ghost purges exactly as a live rollback's locks
// would, while any loser holding structural work (incomplete SMOs, formats,
// chain fixes, FSM ops) or deletes (whose commit-duration next-key locks
// are not derivable from the log) is fully undone *before* open, the pages
// it touches recovered on demand by the hook. After open the drain and the
// background losers' undo run concurrently, beside foreground fixes that
// recover their own pages on demand.
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
	"sort"
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

// Online is the restart coordinator. begin runs analysis and installs the
// plan behind the pool's recovery hook; RestartWith then drives the
// remaining phases itself, StartOnline opens the engine and leaves them to
// background goroutines that run until Wait returns.
type Online struct {
	pool  *buffer.Pool
	tm    *txn.Manager
	stats *trace.Stats
	rep   *Report

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

	replayGate func(storage.PageID)

	applied  atomic.Int64
	skipped  atomic.Int64
	onDemand atomic.Int64
	drained  atomic.Int64

	abort atomic.Bool
	done  chan struct{}
	err   error
}

// begin runs the phases every restart starts with — analysis, plan
// construction, hook installation, beforeUndo — and returns the
// coordinator with the losers (the transactions in flight at the crash)
// analysis found. From here on every Fix recovers its page before the
// caller sees it.
func begin(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, stats *trace.Stats, beforeUndo func() error, opts OnlineOpts) (*Online, []*wal.TxTableEntry, error) {
	rep := &Report{}
	t := time.Now()
	txTable, dpt, maxTx, recs := analyze(log, rep)
	rep.AnalysisWall = time.Since(t)
	tm.SetNextID(maxTx + 1)

	// Nothing to redo: report the analysis start rather than a bogus zero
	// LSN, so "redo began at" is never before "analysis began at".
	rep.RedoFrom = rep.AnalyzedFrom
	var p plan
	if len(dpt) > 0 {
		rep.RedoFrom = wal.LSN(^uint64(0))
		for _, l := range dpt {
			if l < rep.RedoFrom {
				rep.RedoFrom = l
			}
		}
		recs = recs[sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= rep.RedoFrom }):]
		p = buildPlan(recs, func(r *wal.Record) bool {
			recLSN, ok := dpt[r.Page]
			return ok && r.LSN >= recLSN
		})
	}
	rep.RedoWorkers = max(1, min(opts.RedoWorkers, len(p.order)))
	o := &Online{
		pool:       pool,
		tm:         tm,
		stats:      trace.OrNew(stats),
		rep:        rep,
		pending:    p.recs,
		draining:   make(map[storage.PageID]bool),
		order:      p.order,
		replayGate: opts.replayGate,
		done:       make(chan struct{}),
	}
	pool.SetRecoveryHook(o.recoverPage)
	if beforeUndo != nil {
		if err := beforeUndo(); err != nil {
			pool.SetRecoveryHook(nil)
			return nil, nil, err
		}
	}
	// Analysis drops every finished transaction, so what it leaves are the
	// losers.
	losers := make([]*wal.TxTableEntry, 0, len(txTable))
	for _, e := range txTable {
		losers = append(losers, e)
	}
	return o, losers, nil
}

// StartOnline runs the synchronous phases of an online restart — begin,
// loser classification and the pre-open stabilization undo — then launches
// the background drain and undo and returns. On return the engine is safe
// to open: every page a caller can fix recovers on demand, and every loser
// either is already undone or holds its locks again. The returned report
// has the open-time fields (AnalyzedFrom, RedoFrom, walls, LocksRestored)
// filled in; the redo/undo totals are written by the background phases and
// must be read through Wait. beforeUndo is as for RestartWith.
func StartOnline(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, locks *lock.Manager, stats *trace.Stats, beforeUndo func() error, opts OnlineOpts) (*Online, error) {
	start := time.Now()
	o, losers, err := begin(log, pool, tm, stats, beforeUndo, opts)
	if err != nil {
		return nil, err
	}
	rep := o.rep
	rep.Online = true
	fail := func(err error) (*Online, error) {
		pool.SetRecoveryHook(nil)
		return nil, err
	}

	// Classify losers and reinstate the background-eligible ones' locks.
	var stab, bg []*txn.Tx
	for _, e := range losers {
		names, bgOK, err := classifyLoser(log, e, opts.Granularity)
		if err != nil {
			return fail(fmt.Errorf("recovery: classify tx %d: %w", e.TxID, err))
		}
		if !bgOK {
			stab = append(stab, tm.AdoptLoser(*e))
			continue
		}
		for _, n := range names {
			if err := locks.Reinstate(lock.Owner(e.TxID), n, lock.X); err != nil {
				return fail(err)
			}
		}
		rep.LocksRestored += len(names)
		bg = append(bg, tm.AdoptLoser(*e))
	}

	// Pre-open stabilization: the structural/delete losers are fully undone
	// before anyone else runs, so the tree the background losers' logical
	// undos will traverse — and the tree new transactions see — is
	// structurally consistent at open.
	if err := undoLosers(stab, 0, nil); err != nil {
		return fail(err)
	}
	rep.LosersStabilized = len(stab)
	rep.LosersUndone = len(stab)

	rep.OpenWall = time.Since(start)
	go o.run(bg)
	return o, nil
}

// classifyLoser walks e's remaining undo chain (CLRs and dummy CLRs jump
// via UndoNxtLSN, so bypassed nested top actions are not inspected) and
// reports whether every record still to be undone is an insert or an update
// in place — the condition for undoing the loser after open. For an eligible
// loser it returns the deduplicated commit-duration X record-lock names the
// loser must hold at open: ARIES/IM data-only locking names the key lock and
// the record lock identically (the RID), so the inserted or updated record's
// lock covers both the data slot and every index key carrying that RID, and
// an update in place takes no other lock. Deletes are never eligible: their
// next-key locks are commit-duration but not derivable from the log.
func classifyLoser(log *wal.Log, e *wal.TxTableEntry, gran lock.Granularity) ([]lock.Name, bool, error) {
	seen := map[lock.Name]bool{}
	var names []lock.Name
	lsn := e.UndoNxtLSN
	for lsn != wal.NilLSN {
		r, err := log.Read(lsn)
		if err != nil {
			return nil, false, err
		}
		switch {
		case r.IsCLR():
			lsn = r.UndoNxtLSN
		case r.Undoable():
			var name lock.Name
			switch r.Op {
			case wal.OpDataInsert, wal.OpDataUpdate:
				slot, err := data.SlotOfPayload(r.Payload)
				if err != nil {
					return nil, false, err
				}
				name = lock.DataLockName(gran, uint64(r.Page), slot)
			case wal.OpIdxInsertKey:
				info, err := core.DecodeKeyOpPayload(r.Payload)
				if err != nil {
					return nil, false, err
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
// retries (replay is idempotent), a successful one empties it.
func (o *Online) recoverPage(pid storage.PageID, p *storage.Page) (bool, wal.LSN, error) {
	o.mu.Lock()
	recs := o.pending[pid]
	byDrain := o.draining[pid]
	o.mu.Unlock()
	if len(recs) == 0 {
		return false, wal.NilLSN, nil
	}
	if o.replayGate != nil {
		o.replayGate(pid)
	}
	applied, skipped, first, err := replay(p, recs)
	if err != nil {
		return false, wal.NilLSN, err
	}
	o.mu.Lock()
	o.pending[pid] = recs[:0]
	o.mu.Unlock()
	o.applied.Add(int64(applied))
	o.skipped.Add(int64(skipped))
	o.stats.RedoApplied.Add(uint64(applied))
	if byDrain {
		o.drained.Add(1)
	} else {
		o.onDemand.Add(1)
	}
	if byDrain {
		o.stats.PagesRedoneByDrain.Add(1)
	} else {
		o.stats.PagesRedoneOnDemand.Add(1)
	}
	return applied > 0, first, nil
}

// run drives the background phases of an online restart: the drain and the
// undo of the background losers run concurrently — the losers' reinstated
// X record locks make each logical key-removal invisible to readers until
// the loser ends, exactly a live rollback's contract — and when both
// finish the restart completes and Wait is released.
func (o *Online) run(bg []*txn.Tx) {
	var wg sync.WaitGroup
	var drainErr, undoErr error
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		drainErr = fanOut(o.order, o.rep.RedoWorkers, o.drainPart)
		o.rep.RedoWall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		undoErr = undoLosers(bg, 0, &o.abort)
		o.rep.UndoWall = time.Since(start)
	}()
	wg.Wait()
	o.rep.LosersBackground = len(bg)
	o.rep.LosersUndone += len(bg)
	err := errors.Join(drainErr, undoErr)
	if o.abort.Load() {
		err = ErrRecoveryAborted
	}
	_, o.err = o.finish(err)
	close(o.done)
}

// finish closes a restart. With the plan empty and the losers gone,
// recovery is complete: the hook comes out (any in-flight invocation
// no-ops against the empty plan) and the checkpoint that bounds the next
// restart's analysis — the one db.Checkpoint refuses to take while the
// plan is pending — is taken. A failed offline restart drops its hook with
// the rest of its volatile state; a failed online one keeps it, because
// under an open engine no fixer may ever see an unrecovered page.
func (o *Online) finish(err error) (*Report, error) {
	o.rep.RedosApplied = int(o.applied.Load())
	o.rep.RedosSkipped = int(o.skipped.Load())
	o.rep.PagesOnDemand = int(o.onDemand.Load())
	o.rep.PagesDrained = int(o.drained.Load())
	if err == nil || !o.rep.Online {
		o.pool.SetRecoveryHook(nil)
	}
	if err == nil {
		o.tm.Checkpoint(o.pool)
	}
	return o.rep, err
}

// drainPart is one drain worker: it recovers its share of the plan
// front-to-back in first-redo order, one page at a time on its own
// goroutine. drainPage's Fix does the recovery.
func (o *Online) drainPart(pages []storage.PageID) error {
	for _, pid := range pages {
		if o.abort.Load() {
			return nil
		}
		o.mu.Lock()
		o.draining[pid] = true
		o.mu.Unlock()
		err := o.drainPage(pid)
		o.mu.Lock()
		delete(o.draining, pid)
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
	defer o.mu.Unlock()
	if len(o.pending[pid]) > 0 {
		// The Fix was a hit on a frame no hook ever ran on.
		return fmt.Errorf("recovery: page %d was in the pool before restart began", pid)
	}
	delete(o.pending, pid)
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

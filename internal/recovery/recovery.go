// Package recovery implements ARIES restart recovery (paper §1.2) and
// page-oriented media recovery (§5) for ariesim.
//
// Restart makes three passes over the log:
//
//   - analysis: from the last checkpoint to the end of the log, rebuilding
//     the transaction table and dirty page table;
//   - redo: from the minimum recLSN, repeating history — every logged page
//     action (including CLRs, including in-flight transactions' updates)
//     whose effect is missing from its page (page_LSN < record LSN) is
//     reapplied, strictly page-oriented;
//   - undo: the losers' updates are rolled back in a single global
//     reverse-LSN sweep, writing CLRs; this global order is what
//     guarantees that an incomplete SMO is undone before any logical undo
//     needs to traverse its tree (§3 "Restart Undo Considerations").
//
// Locks are reacquired only for in-doubt (prepared) transactions, from
// the lock lists carried in their prepare records.
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
	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// routeRedo dispatches one record's redo to its resource manager.
func routeRedo(p *storage.Page, rec *wal.Record) error {
	switch {
	case rec.Op >= wal.OpIdxInsertKey && rec.Op <= wal.OpIdxUnfreePage:
		return core.ApplyRedo(p, rec)
	case rec.Op == wal.OpFSMAlloc || rec.Op == wal.OpFSMFree:
		return space.ApplyRedo(p, rec)
	case rec.Op >= wal.OpDataFormat && rec.Op <= wal.OpDataFree:
		return data.ApplyRedo(p, rec)
	default:
		return fmt.Errorf("recovery: no resource manager for op %s", rec.Op)
	}
}

// Report summarizes a restart for tests and the bench harness.
type Report struct {
	AnalyzedFrom  wal.LSN
	RedoFrom      wal.LSN
	RecordsSeen   int
	RedosApplied  int
	RedosSkipped  int
	LosersUndone  int
	InDoubt       []wal.TxID
	LocksRestored int

	// Parallel-redo observability.
	RedoWorkers        int // effective worker count (after clamping to DPT size)
	RedoRecordsScanned int // records examined across all redo workers
	PagesPrefetched    int // pages pulled in by the DPT-driven prefetcher

	// Per-pass wall clocks.
	AnalysisWall time.Duration
	RedoWall     time.Duration
	UndoWall     time.Duration

	// Online-restart observability (zero for offline restarts). OpenWall is
	// the time from restart start to the engine opening for business —
	// analysis plus lock reinstatement plus the pre-open stabilization undo.
	// The remaining fields are written by the background phases and are safe
	// to read only after Online.Wait returns.
	Online           bool
	OpenWall         time.Duration
	PagesOnDemand    int // DPT pages recovered at fix time by foreground callers
	PagesDrained     int // DPT pages recovered by the background drain
	LosersStabilized int // losers undone before open (structural/delete undo)
	LosersBackground int // insert-only losers undone after open, under reinstated locks
}

// ErrRestartInterrupted reports that a restart stopped early because its
// undo-step budget ran out — the crash-during-restart case. The engine is
// NOT open: volatile state must be discarded and restart run again. ARIES
// guarantees the rerun is correct because the CLRs written so far make the
// partial undo repeatable without re-undoing compensated work.
var ErrRestartInterrupted = errors.New("recovery: restart interrupted mid-undo")

// DefaultRedoPrefetch is the prefetch read-ahead depth (pages in flight
// beyond the apply cursor) of parallel redo; the single-threaded pass does
// not prefetch.
const DefaultRedoPrefetch = 32

// redoPrefetchBatch is how many page reads one prefetch call issues
// concurrently; small enough not to flood a shard with loading frames,
// large enough to keep a costed device queue busy.
const redoPrefetchBatch = 8

// RestartOpts tunes a restart run.
type RestartOpts struct {
	// MaxUndoSteps, when positive, crashes the restart after that many undo
	// steps (each step writes one CLR or closes one loser) by returning
	// ErrRestartInterrupted. Zero or negative means run to completion.
	// Used by the crash-point sweep to exercise repeated restarts.
	MaxUndoSteps int

	// RedoWorkers is the redo-pass parallelism. Zero or one runs the
	// classic single-threaded pass (the measured baseline); N > 1
	// partitions the dirty page table across N workers by page id. The
	// effective count is clamped to the DPT size.
	RedoWorkers int
}

// Restart runs the three recovery passes. The caller supplies the freshly
// constructed (post-crash) managers: an empty lock manager, a transaction
// manager with its undoer wired to the reopened index/record managers, and
// a buffer pool over the surviving disk. stats may be nil.
func Restart(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, locks *lock.Manager, stats *trace.Stats) (*Report, error) {
	return RestartWith(log, pool, tm, locks, stats, RestartOpts{})
}

// RestartWith is Restart with options; see RestartOpts.
func RestartWith(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, locks *lock.Manager, stats *trace.Stats, opts RestartOpts) (*Report, error) {
	rep := &Report{}
	t := time.Now()
	txTable, dpt, maxTx, err := analyze(log, rep)
	if err != nil {
		return nil, err
	}
	rep.AnalysisWall = time.Since(t)
	tm.SetNextID(maxTx + 1)
	t = time.Now()
	if err := redo(log, pool, dpt, rep, stats, opts); err != nil {
		return nil, err
	}
	rep.RedoWall = time.Since(t)
	if err := reacquireLocks(log, tm, txTable, rep); err != nil {
		return nil, err
	}
	t = time.Now()
	if err := undoLosers(tm, txTable, rep, opts.MaxUndoSteps); err != nil {
		return rep, err
	}
	rep.UndoWall = time.Since(t)
	// Post-restart checkpoint bounds the next restart's analysis pass.
	tm.Checkpoint(pool)
	return rep, nil
}

// analyze rebuilds the transaction table and dirty page table.
func analyze(log *wal.Log, rep *Report) (map[wal.TxID]*wal.TxTableEntry, map[storage.PageID]wal.LSN, wal.TxID, error) {
	txTable := map[wal.TxID]*wal.TxTableEntry{}
	dpt := map[storage.PageID]wal.LSN{}
	var maxTx wal.TxID

	start := wal.NilLSN + 1
	if master := log.Master(); master != wal.NilLSN {
		// Prime the tables from the checkpoint's end record.
		var primed bool
		log.Scan(master, func(r *wal.Record) bool {
			if r.Type == wal.RecEndCkpt {
				ckpt, err := wal.DecodeCheckpointData(r.Payload)
				if err != nil {
					// The end-ckpt record survived but its payload does not
					// decode (torn or corrupt on the media). Starting at the
					// master LSN with EMPTY tables would silently drop every
					// pre-checkpoint loser and dirty page — committed work
					// lost, in-flight work half-applied. Treat the checkpoint
					// as unusable and fall back to full-log analysis, which
					// rebuilds both tables from scratch.
					return false
				}
				for i := range ckpt.Txs {
					e := ckpt.Txs[i]
					txTable[e.TxID] = &e
					if e.TxID > maxTx {
						maxTx = e.TxID
					}
				}
				for _, d := range ckpt.DPT {
					dpt[d.Page] = d.RecLSN
				}
				primed = true
				return false
			}
			return true
		})
		if primed {
			start = master
		}
		// Not primed: the crash tore the fuzzy checkpoint apart — the
		// begin-ckpt the master record points at is stable but its
		// end-ckpt (carrying the tx table and DPT) was lost with the
		// unforced tail or survived with an undecodable payload. The
		// checkpoint is unusable; analyze from the start of the log as if
		// it never happened. (SetMaster runs only
		// after the end record is forced, so this state needs the stable
		// mark itself to rewind — a torn log tail or a crash-point
		// truncation landing between the two checkpoint records.)
	}
	rep.AnalyzedFrom = start

	log.Scan(start, func(r *wal.Record) bool {
		rep.RecordsSeen++
		if r.TxID != 0 {
			if r.TxID > maxTx {
				maxTx = r.TxID
			}
			e := txTable[r.TxID]
			if e == nil {
				e = &wal.TxTableEntry{TxID: r.TxID, State: wal.TxActive}
				txTable[r.TxID] = e
			}
			e.LastLSN = r.LSN
			switch {
			case r.IsCLR():
				e.UndoNxtLSN = r.UndoNxtLSN
			case r.Type == wal.RecUpdate && r.RedoOnly:
				// Never undone; leaves the chain untouched (mirrors txn.Log).
			default:
				e.UndoNxtLSN = r.LSN
			}
			switch r.Type {
			case wal.RecCommit:
				e.State = wal.TxCommitted
			case wal.RecAbort:
				e.State = wal.TxRollingBack
			case wal.RecPrepare:
				e.State = wal.TxPrepared
			case wal.RecEnd:
				delete(txTable, r.TxID)
			}
		}
		if r.Redoable() {
			if _, ok := dpt[r.Page]; !ok {
				dpt[r.Page] = r.LSN
			}
		}
		return true
	})
	// Committed-but-not-ended transactions need only their end record.
	for id, e := range txTable {
		if e.State == wal.TxCommitted {
			delete(txTable, id)
		}
	}
	return txTable, dpt, maxTx, nil
}

// redo repeats history from the minimum recLSN.
//
// The pass is strictly page-oriented: a record's redo touches exactly one
// page, and the only ordering ARIES requires is per-page LSN order (§1.2).
// Partitioning the dirty page table by page id therefore needs zero
// cross-worker synchronization — each worker replays only its own pages'
// records, in log order, and no two workers ever fix the same page. The
// partition function is the pool's Fibonacci shard hash, so a worker's
// pages also spread across buffer shards. One log snapshot (SnapshotFrom)
// is shared read-only by every worker.
func redo(log *wal.Log, pool *buffer.Pool, dpt map[storage.PageID]wal.LSN, rep *Report, stats *trace.Stats, opts RestartOpts) error {
	rep.RedoWorkers = 1
	if len(dpt) == 0 {
		// Nothing to redo. Report the analysis start rather than a bogus
		// zero LSN so "redo began at" is never before "analysis began at".
		rep.RedoFrom = rep.AnalyzedFrom
		return nil
	}
	redoFrom := wal.LSN(^uint64(0))
	for _, l := range dpt {
		if l < redoFrom {
			redoFrom = l
		}
	}
	rep.RedoFrom = redoFrom
	recs := log.SnapshotFrom(redoFrom)

	workers := opts.RedoWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > len(dpt) {
		workers = len(dpt)
	}
	rep.RedoWorkers = workers

	prefetch := 0 // the single-threaded pass stays honestly serial
	if workers > 1 {
		prefetch = DefaultRedoPrefetch
	}

	// Partition the DPT and, when prefetching, compute each worker's pages
	// in first-redo order — the order its apply cursor will demand them.
	parts := make([]map[storage.PageID]wal.LSN, workers)
	for i := range parts {
		parts[i] = make(map[storage.PageID]wal.LSN)
	}
	for pid, rec := range dpt {
		parts[int(buffer.ShardHash(pid)%uint64(workers))][pid] = rec
	}
	orders := make([][]storage.PageID, workers)
	if prefetch > 0 {
		seen := make(map[storage.PageID]bool, len(dpt))
		for _, r := range recs {
			if !r.Redoable() || seen[r.Page] {
				continue
			}
			if rec, ok := dpt[r.Page]; !ok || r.LSN < rec {
				continue
			}
			seen[r.Page] = true
			w := int(buffer.ShardHash(r.Page) % uint64(workers))
			orders[w] = append(orders[w], r.Page)
		}
	}

	var abort atomic.Bool
	results := make([]redoResult, workers)
	if workers == 1 {
		results[0] = redoPartition(pool, recs, parts[0], orders[0], prefetch, stats, &abort)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w] = redoPartition(pool, recs, parts[w], orders[w], prefetch, stats, &abort)
			}(w)
		}
		wg.Wait()
	}
	var redoErr error
	for _, res := range results {
		rep.RedosApplied += res.applied
		rep.RedosSkipped += res.skipped
		rep.RedoRecordsScanned += res.scanned
		rep.PagesPrefetched += res.prefetched
		if res.err != nil && redoErr == nil {
			redoErr = res.err
		}
	}
	if stats != nil {
		stats.RedoRecordsScanned.Add(uint64(rep.RedoRecordsScanned))
	}
	return redoErr
}

// redoResult is one redo worker's tally.
type redoResult struct {
	applied    int
	skipped    int
	scanned    int
	prefetched int
	err        error
}

// redoPartition replays, in log order, every redoable record belonging to
// the pages in part. It is the classic serial redo loop body; parallelism
// comes entirely from running several partitions at once over the shared
// record snapshot. A prefetcher goroutine (when enabled) pulls the
// partition's pages into the pool ahead of the apply cursor so miss reads
// overlap with apply work.
func redoPartition(pool *buffer.Pool, recs []*wal.Record, part map[storage.PageID]wal.LSN, order []storage.PageID, prefetch int, stats *trace.Stats, abort *atomic.Bool) (res redoResult) {
	if len(part) == 0 {
		return res
	}
	// cursor counts distinct pages the apply loop has reached; the
	// prefetcher throttles itself against it.
	var cursor atomic.Int64
	if prefetch > 0 && len(order) > 0 {
		stop := make(chan struct{})
		done := make(chan int, 1)
		go prefetchAhead(pool, order, &cursor, prefetch, stop, done)
		defer func() {
			close(stop)
			res.prefetched = <-done
		}()
	}
	touched := make(map[storage.PageID]bool, len(part))
	for _, r := range recs {
		if abort.Load() {
			return res
		}
		res.scanned++
		if !r.Redoable() {
			continue
		}
		rec, ok := part[r.Page]
		if !ok || r.LSN < rec {
			continue
		}
		if !touched[r.Page] {
			touched[r.Page] = true
			cursor.Add(1)
		}
		f, err := pool.Fix(r.Page)
		if err != nil {
			res.err = err
			abort.Store(true)
			return res
		}
		f.Latch.Acquire(latch.X)
		if f.Page.LSN() < uint64(r.LSN) {
			if err := routeRedo(f.Page, r); err != nil {
				f.Latch.Release(latch.X)
				pool.Unfix(f)
				res.err = fmt.Errorf("recovery: redo of %s: %w", r, err)
				abort.Store(true)
				return res
			}
			f.Page.SetLSN(uint64(r.LSN))
			pool.MarkDirty(f, r.LSN)
			res.applied++
			if stats != nil {
				stats.RedoApplied.Add(1)
			}
		} else {
			res.skipped++
			if stats != nil {
				stats.RedoSkipped.Add(1)
			}
		}
		f.Latch.Release(latch.X)
		pool.Unfix(f)
	}
	return res
}

// prefetchAhead batches the partition's pages into the pool in first-use
// order, staying at most depth pages beyond the apply cursor so a huge DPT
// cannot flood (or thrash) the pool. Throttling is a bounded sleep-poll
// rather than a handshake: the apply loop never blocks on the prefetcher,
// and a closed stop channel ends the read-ahead immediately.
func prefetchAhead(pool *buffer.Pool, order []storage.PageID, cursor *atomic.Int64, depth int, stop <-chan struct{}, done chan<- int) {
	total := 0
	for i := 0; i < len(order); {
		for int64(i)-cursor.Load() >= int64(depth) {
			select {
			case <-stop:
				done <- total
				return
			default:
			}
			time.Sleep(20 * time.Microsecond)
		}
		end := i + redoPrefetchBatch
		if end > len(order) {
			end = len(order)
		}
		total += pool.Prefetch(order[i:end])
		i = end
		select {
		case <-stop:
			done <- total
			return
		default:
		}
	}
	done <- total
}

// reacquireLocks restores the locks of in-doubt transactions from their
// prepare records, so new transactions cannot see their uncommitted data.
func reacquireLocks(log *wal.Log, tm *txn.Manager, txTable map[wal.TxID]*wal.TxTableEntry, rep *Report) error {
	for _, e := range txTable {
		if e.State != wal.TxPrepared {
			continue
		}
		rep.InDoubt = append(rep.InDoubt, e.TxID)
		// Adopt the in-doubt transaction so the coordinator's eventual
		// decision (commit or rollback) can be executed against it.
		tm.AdoptLoser(*e)
		// Find the prepare record by walking the PrevLSN chain.
		lsn := e.LastLSN
		for lsn != wal.NilLSN {
			r, err := log.Read(lsn)
			if err != nil {
				return err
			}
			if r.Type == wal.RecPrepare {
				specs, err := wal.DecodeLocks(r.Payload)
				if err != nil {
					return err
				}
				for _, s := range specs {
					name := lock.Name{Space: lock.Space(s.Space), A: s.A, B: s.B}
					if err := tm.Locks().Request(lock.Owner(e.TxID), name, lock.Mode(s.Mode), lock.Commit, false); err != nil {
						return fmt.Errorf("recovery: reacquire %v for tx %d: %w", name, e.TxID, err)
					}
					rep.LocksRestored++
				}
				break
			}
			lsn = r.PrevLSN
		}
	}
	sort.Slice(rep.InDoubt, func(i, j int) bool { return rep.InDoubt[i] < rep.InDoubt[j] })
	return nil
}

// undoLosers rolls back every in-flight transaction in one global
// reverse-LSN sweep, exactly as the ARIES undo pass prescribes. A positive
// maxSteps budget interrupts the pass after that many steps (simulating a
// crash during restart); the CLRs already written keep the rerun correct.
func undoLosers(tm *txn.Manager, txTable map[wal.TxID]*wal.TxTableEntry, rep *Report, maxSteps int) error {
	losers := map[wal.TxID]*txn.Tx{}
	for _, e := range txTable {
		if e.State == wal.TxActive || e.State == wal.TxRollingBack {
			losers[e.TxID] = tm.AdoptLoser(*e)
		}
	}
	rep.LosersUndone = len(losers)
	steps := 0
	for len(losers) > 0 {
		// Pick the loser with the maximum UndoNxtLSN.
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
		if maxSteps > 0 && steps >= maxSteps {
			return ErrRestartInterrupted
		}
		if err := victim.UndoStep(); err != nil {
			return err
		}
		steps++
		if victim.UndoNxtLSN() == wal.NilLSN {
			victim.EndLoser()
			delete(losers, victim.ID)
		}
	}
	return nil
}

// ImageCopy is a fuzzy archive dump: a point-in-time copy of the disk
// pages plus the stable-log position at dump time. It is taken without
// quiescing anything (the log makes the copy action-consistent).
type ImageCopy struct {
	Pages   map[storage.PageID][]byte
	DumpLSN wal.LSN
}

// TakeImageCopy snapshots the disk for media recovery. Pages whose stored
// checksum no longer matches (a torn write or bit flip that happened to be
// on disk at dump time) are left out of the image: including them would
// poison recovery, because their mixed content can carry a high page_LSN
// that makes roll-forward skip the very records needed to fix them. An
// omitted page is simply rebuilt from scratch by replaying its full log
// history.
func TakeImageCopy(disk *storage.Disk, log *wal.Log) *ImageCopy {
	pages := disk.Snapshot()
	for id, b := range pages {
		if !storage.PageFromBytes(b).VerifyChecksum() {
			delete(pages, id)
		}
	}
	return &ImageCopy{Pages: pages, DumpLSN: log.StableLSN()}
}

// RecoverPage rebuilds a single damaged page from the image copy plus one
// forward pass of the log — the paper's §5 page-oriented media recovery:
// no tree traversal, no other pages, index pages handled exactly like data
// pages. For multiple damaged pages use RecoverPages, which shares one
// scan instead of paying one per page.
func RecoverPage(disk *storage.Disk, log *wal.Log, img *ImageCopy, pid storage.PageID) error {
	_, err := RecoverPages(disk, log, img, []storage.PageID{pid})
	return err
}

// RecoverPages rebuilds every page in pids from the image copy plus ONE
// forward pass of the log, applying each record to the (at most one)
// damaged page it names. Rebuilding N pages was previously N full log
// scans — O(pages × records); batching makes a multi-page media failure
// (a dying device corrupting a whole region) cost the same single scan as
// one page. Only records on the stable log are applied: writing a page
// whose page_LSN exceeded the stable LSN would violate the WAL protocol
// (the disk may never be ahead of the log), and is also unnecessary —
// every disk version the page ever had was forced-covered before it was
// written. Returns the number of log records examined (tests assert the
// single-scan bound with it). Pages are written back only after the whole
// scan succeeds, in pid order.
func RecoverPages(disk *storage.Disk, log *wal.Log, img *ImageCopy, pids []storage.PageID) (int, error) {
	if len(pids) == 0 {
		return 0, nil
	}
	pages := make(map[storage.PageID]*storage.Page, len(pids))
	for _, pid := range pids {
		if _, ok := pages[pid]; ok {
			continue
		}
		page := storage.NewPage(disk.PageSize())
		if b, ok := img.Pages[pid]; ok {
			copy(page.Bytes(), b)
		}
		pages[pid] = page
	}
	stable := log.StableLSN()
	scanned := 0
	var applyErr error
	log.Scan(wal.NilLSN+1, func(r *wal.Record) bool {
		if r.LSN > stable {
			return false
		}
		scanned++
		if !r.Redoable() {
			return true
		}
		page, ok := pages[r.Page]
		if !ok || page.LSN() >= uint64(r.LSN) {
			return true
		}
		if err := routeRedo(page, r); err != nil {
			applyErr = fmt.Errorf("recovery: media redo of %s: %w", r, err)
			return false
		}
		page.SetLSN(uint64(r.LSN))
		return true
	})
	if applyErr != nil {
		return scanned, applyErr
	}
	ids := make([]storage.PageID, 0, len(pages))
	for pid := range pages {
		ids = append(ids, pid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, pid := range ids {
		if err := disk.Write(pid, pages[pid].Bytes()); err != nil {
			return scanned, err
		}
	}
	return scanned, nil
}

// Boundaries returns the LSN of every log record strictly after `after`:
// the full set of crash points a sweep must exercise. Truncating the log
// at boundary L simulates a crash whose last successful force covered
// exactly the records up to and including L.
func Boundaries(log *wal.Log, after wal.LSN) []wal.LSN {
	var out []wal.LSN
	log.Scan(after+1, func(r *wal.Record) bool {
		if r.LSN > after {
			out = append(out, r.LSN)
		}
		return true
	})
	return out
}

// Package recovery implements ARIES restart recovery (paper §1.2) and
// page-oriented media recovery (§5) for ariesim.
//
// Restart is the three ARIES passes:
//
//   - analysis: from the last checkpoint to the end of the log, rebuilding
//     the transaction table and dirty page table;
//   - redo: from the minimum recLSN, repeating history — every logged page
//     action (including CLRs, including in-flight transactions' updates)
//     whose effect is missing from its page (page_LSN < record LSN) is
//     reapplied. Strictly page-oriented, so it is done a page at a time:
//     the records are grouped per page and each page replayed when it is
//     first read (replay.go; the coordinator in online.go);
//   - undo: the losers' updates are rolled back in a single global
//     reverse-LSN sweep, writing CLRs; this global order is what
//     guarantees that an incomplete SMO is undone before any logical undo
//     needs to traverse its tree (§3 "Restart Undo Considerations").
//
// An offline restart grants no locks. An online restart reinstates X locks
// for the losers it undoes in the background (online.go).
package recovery

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ariesim/internal/buffer"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Report summarizes a restart for tests and the bench harness.
type Report struct {
	AnalyzedFrom  wal.LSN
	RedoFrom      wal.LSN
	RecordsSeen   int
	RedosApplied  int
	RedosSkipped  int
	LosersUndone  int
	LocksRestored int

	// RedoWorkers is the effective drain parallelism (after clamping to the
	// number of pages to redo).
	RedoWorkers int

	// Per-pass wall clocks.
	AnalysisWall time.Duration
	RedoWall     time.Duration
	UndoWall     time.Duration

	// Who recovered the planned pages: the drain, or somebody else's Fix
	// (the undo pass, or foreground callers of an online restart).
	PagesOnDemand int
	PagesDrained  int

	// Online-restart observability (zero for offline restarts). OpenWall is
	// the time from restart start to the engine opening for business —
	// analysis plus lock reinstatement plus the pre-open stabilization undo.
	// Every field the phases after open write (the redo and undo totals
	// and walls, the page counts, LosersBackground) is safe to read only
	// after Online.Wait returns.
	Online           bool
	OpenWall         time.Duration
	LosersStabilized int // losers undone before open (structural/delete undo)
	LosersBackground int // insert/update-only losers undone after open, under reinstated locks
}

// ErrRestartInterrupted reports that a restart stopped early because its
// undo-step budget ran out — the crash-during-restart case. The engine is
// NOT open: volatile state must be discarded and restart run again. ARIES
// guarantees the rerun is correct because the CLRs written so far make the
// partial undo repeatable without re-undoing compensated work.
var ErrRestartInterrupted = errors.New("recovery: restart interrupted mid-undo")

// RestartOpts tunes a restart run.
type RestartOpts struct {
	// MaxUndoSteps, when positive, crashes the restart after that many undo
	// steps (each step writes one CLR) by returning ErrRestartInterrupted.
	// Zero or negative means run to completion. Used by the crash-point
	// sweep to exercise repeated restarts.
	MaxUndoSteps int

	// RedoWorkers is how many goroutines replay pages: the pages to redo
	// are split across that many workers by page id, and each worker
	// replays its share one page at a time in first-redo order. Zero or
	// one is a single worker on the drain's own goroutine; the effective
	// count is clamped to the number of pages. Redo starts no other
	// goroutine (a foreground fix still replays its own page on demand).
	RedoWorkers int
}

// RestartWith runs restart recovery to completion, tuned by opts. The
// caller supplies the freshly constructed (post-crash) managers: an empty
// lock manager, a transaction manager with its undoer wired to the reopened
// index/record managers, and an empty buffer pool over the surviving disk.
// A nil stats counts into a fresh sink. beforeUndo, when not nil, runs once
// analysis has put the redo plan behind the pool's recovery hook and before
// the first loser undo step: every page it fixes is recovered on demand,
// and every loser's work is still on its pages. The engine reads its
// catalog there, so that a loser's undo finds the index its own DDL
// created. RestartWith is the restart coordinator of online.go run to
// completion before anyone is let in: analysis, the per-page redo plan behind the pool's recovery hook, the
// drain of that plan, then every loser undone in one global reverse-LSN
// sweep and the bounding checkpoint. StartOnline runs the same phases but
// opens the engine before the drain.
func RestartWith(log *wal.Log, pool *buffer.Pool, tm *txn.Manager, locks *lock.Manager, stats *trace.Stats, beforeUndo func() error, opts RestartOpts) (*Report, error) {
	o, losers, err := begin(log, pool, tm, stats, beforeUndo, OnlineOpts{RestartOpts: opts})
	if err != nil {
		return nil, err
	}
	t := time.Now()
	err = fanOut(o.order, o.rep.RedoWorkers, o.drainPart)
	o.rep.RedoWall = time.Since(t)
	if err == nil {
		adopted := make([]*txn.Tx, len(losers))
		for i, e := range losers {
			adopted[i] = tm.AdoptLoser(*e)
		}
		o.rep.LosersUndone = len(losers)
		t = time.Now()
		err = undoLosers(adopted, opts.MaxUndoSteps, nil)
		o.rep.UndoWall = time.Since(t)
	}
	return o.finish(err)
}

// analyze rebuilds the transaction table and dirty page table. It also
// returns the decoded log from the lowest LSN redo can need — the smaller of
// the analysis start and the checkpoint DPT's oldest recLSN — so restart
// decodes the suffix it analyzes and redoes once.
func analyze(log *wal.Log, rep *Report) (map[wal.TxID]*wal.TxTableEntry, map[storage.PageID]wal.LSN, wal.TxID, []*wal.Record) {
	txTable := map[wal.TxID]*wal.TxTableEntry{}
	dpt := map[storage.PageID]wal.LSN{}
	var maxTx wal.TxID

	start := wal.NilLSN + 1
	from := start
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
			start, from = master, master
			for _, recLSN := range dpt {
				from = min(from, recLSN)
			}
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

	recs := log.SnapshotFrom(from)
	for _, r := range recs[sort.Search(len(recs), func(i int) bool { return recs[i].LSN >= start }):] {
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
			case wal.RecAbort:
				e.State = wal.TxRollingBack
			case wal.RecCommit, wal.RecEnd:
				// A commit writes no end record: it finishes the
				// transaction as an end record does.
				delete(txTable, r.TxID)
			}
		}
		if r.Redoable() {
			if _, ok := dpt[r.Page]; !ok {
				dpt[r.Page] = r.LSN
			}
		}
	}
	// A checkpoint's table can list a transaction as committed whose commit
	// record lies below the scan start: it is finished too.
	for id, e := range txTable {
		if e.State == wal.TxCommitted {
			delete(txTable, id)
		}
	}
	return txTable, dpt, maxTx, recs
}

// undoLosers rolls the adopted losers back in one global reverse-LSN sweep
// — always the step with the maximum UndoNxtLSN next — exactly as the
// ARIES undo pass prescribes. A positive maxSteps budget interrupts the
// pass after that many steps (simulating a crash during restart); the CLRs
// already written keep the rerun correct. A set abort flag (a re-crash
// under an open engine) ends it quietly.
func undoLosers(losers []*txn.Tx, maxSteps int, abort *atomic.Bool) error {
	live := append([]*txn.Tx(nil), losers...)
	for steps := 0; ; steps++ {
		if abort != nil && abort.Load() {
			return nil
		}
		var victim *txn.Tx
		n := 0
		for _, t := range live {
			if t.UndoNxtLSN() == wal.NilLSN {
				t.EndLoser()
				continue
			}
			live[n] = t
			n++
			if victim == nil || t.UndoNxtLSN() > victim.UndoNxtLSN() {
				victim = t
			}
		}
		live = live[:n]
		if victim == nil {
			return nil
		}
		if maxSteps > 0 && steps >= maxSteps {
			return ErrRestartInterrupted
		}
		if err := victim.UndoStep(); err != nil {
			return err
		}
	}
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
// forward pass of the log: the stable records naming a damaged page are
// planned per page and replayed onto that page's image, so a multi-page
// media failure (a dying device corrupting a whole region) costs the same
// single scan as one page. Only records on the stable log are applied:
// writing a page whose page_LSN exceeded the stable LSN would violate the
// WAL protocol (the disk may never be ahead of the log), and is also
// unnecessary — every disk version the page ever had was forced-covered
// before it was written. Returns the number of log records examined (tests
// assert the single-scan bound with it). Pages are written back only after
// every replay succeeds, in pid order.
func RecoverPages(disk *storage.Disk, log *wal.Log, img *ImageCopy, pids []storage.PageID) (int, error) {
	if len(pids) == 0 {
		return 0, nil
	}
	pages := make(map[storage.PageID]*storage.Page, len(pids))
	for _, pid := range pids {
		pages[pid] = storage.NewPage(disk.PageSize())
		copy(pages[pid].Bytes(), img.Pages[pid]) // not in the image: rebuilt from nothing
	}
	recs, _, _ := log.SnapshotStable(wal.NilLSN + 1)
	p := buildPlan(recs, func(r *wal.Record) bool { return pages[r.Page] != nil })
	for _, pid := range p.order {
		if _, _, _, err := replay(pages[pid], p.recs[pid]); err != nil {
			return len(recs), fmt.Errorf("recovery: media recovery of page %d: %w", pid, err)
		}
	}
	ids := make([]storage.PageID, 0, len(pages))
	for pid := range pages {
		ids = append(ids, pid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, pid := range ids {
		if err := disk.Write(pid, pages[pid].Bytes()); err != nil {
			return len(recs), err
		}
	}
	return len(recs), nil
}

// Boundaries returns the LSN of every log record strictly after `after`:
// the full set of crash points a sweep must exercise. Truncating the log
// at boundary L simulates a crash whose last successful force covered
// exactly the records up to and including L.
func Boundaries(log *wal.Log, after wal.LSN) []wal.LSN {
	var out []wal.LSN
	log.Scan(after+1, func(r *wal.Record) bool {
		out = append(out, r.LSN)
		return true
	})
	return out
}

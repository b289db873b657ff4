package recovery

import (
	"errors"
	"fmt"
	"sync"

	"ariesim/internal/buffer"
	"ariesim/internal/core"
	"ariesim/internal/data"
	"ariesim/internal/latch"
	"ariesim/internal/space"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// One page-replay routine. ARIES/IM redo is strictly page-oriented (§3):
// bringing a page up to date needs only that page's own records, in LSN
// order. Every redo in the engine is therefore the same two steps — group
// the admitted records per page (buildPlan), apply one page's group under
// the page_LSN guard (replay) — and the four callers differ only in who
// admits a record, who holds the page, and when:
//
//   - restart (offline and online): records at or above the page's DPT
//     recLSN; the buffer pool's recovery hook replays a page on its miss
//     read, before any fixer sees it, so no latch is needed;
//   - standby apply (ApplyRecords): every redoable record of the shipped
//     batch; pages may be resident, so each is fixed and X-latched;
//   - media recovery (RecoverPages): the stable records of the damaged
//     pages, replayed onto private copies of the image pages.

// routeRedo dispatches one record's redo to its resource manager.
func routeRedo(p *storage.Page, rec *wal.Record) error {
	switch {
	case rec.Op >= wal.OpIdxInsertKey && rec.Op <= wal.OpIdxUndeleteChild:
		return core.ApplyRedo(p, rec)
	case rec.Op == wal.OpFSMAlloc || rec.Op == wal.OpFSMFree:
		return space.ApplyRedo(p, rec)
	case rec.Op >= wal.OpDataFormat && rec.Op <= wal.OpDataFree:
		return data.ApplyRedo(p, rec)
	default:
		return fmt.Errorf("recovery: no resource manager for op %s", rec.Op)
	}
}

// replay applies recs — one page's records, in LSN order — to p: a record
// whose effect the page already carries (page_LSN >= its LSN) is skipped,
// any other is redone and stamped. Idempotent, so a replay that failed
// midway, or a batch delivered twice, is simply replayed again. first is
// the LSN of the first record applied: the page's recLSN if it was clean.
func replay(p *storage.Page, recs []*wal.Record) (applied, skipped int, first wal.LSN, err error) {
	for _, r := range recs {
		if p.LSN() >= uint64(r.LSN) {
			skipped++
			continue
		}
		if err := routeRedo(p, r); err != nil {
			return applied, skipped, first, fmt.Errorf("recovery: redo of %s: %w", r, err)
		}
		p.SetLSN(uint64(r.LSN))
		if applied == 0 {
			first = r.LSN
		}
		applied++
	}
	return applied, skipped, first, nil
}

// plan is the redo work of one record slice: each page's admitted records
// in LSN order, and the pages in the order their first record appears —
// the order a front-to-back replay demands them.
type plan struct {
	recs  map[storage.PageID][]*wal.Record
	order []storage.PageID
}

// buildPlan groups the redoable records of recs (LSN-ordered) that admit
// accepts by the page they name.
func buildPlan(recs []*wal.Record, admit func(*wal.Record) bool) plan {
	p := plan{recs: map[storage.PageID][]*wal.Record{}}
	for _, r := range recs {
		if !r.Redoable() || !admit(r) {
			continue
		}
		page, ok := p.recs[r.Page]
		if !ok {
			p.order = append(p.order, r.Page)
		}
		p.recs[r.Page] = append(page, r)
	}
	return p
}

// fanOut runs fn over pages split across up to workers goroutines by the
// pool's shard hash, so one worker's pages also spread across buffer
// shards. Per-page order is the only order redo needs, so the partitions
// never synchronize. A single partition runs on the caller's goroutine.
func fanOut(pages []storage.PageID, workers int, fn func([]storage.PageID) error) error {
	if workers > len(pages) {
		workers = len(pages)
	}
	if workers <= 1 {
		return fn(pages)
	}
	parts := make([][]storage.PageID, workers)
	for _, pid := range pages {
		w := int(buffer.ShardHash(pid) % uint64(workers))
		parts[w] = append(parts[w], pid)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(parts[w])
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// BatchStats tallies one ApplyRecords call.
type BatchStats struct {
	Applied int // redoable records applied (page_LSN advanced)
	Skipped int // redoable records skipped by the page_LSN guard
	Scanned int // total records in the batch (including non-redoable)
}

// ApplyRecords is the standby's apply engine: a hot standby is a restart
// whose redo never ends, each shipped log slice one more batch of it.
// recs — a contiguous, LSN-ordered slice — is replayed onto pool with up
// to workers parallel partitions. There is no analysis and no DPT on a
// standby: the batch itself names the pages it touches, and the page_LSN
// guard makes overlapping or duplicate delivery harmless.
func ApplyRecords(pool *buffer.Pool, recs []*wal.Record, workers int, stats *trace.Stats) (BatchStats, error) {
	stats = trace.OrNew(stats)
	p := buildPlan(recs, func(*wal.Record) bool { return true })
	var mu sync.Mutex
	bs := BatchStats{Scanned: len(recs)}
	err := fanOut(p.order, workers, func(pages []storage.PageID) error {
		for _, pid := range pages {
			f, err := pool.Fix(pid)
			if err != nil {
				return err
			}
			f.Latch.Acquire(latch.X)
			applied, skipped, first, err := replay(f.Page, p.recs[pid])
			if applied > 0 {
				pool.MarkDirty(f, first)
			}
			f.Latch.Release(latch.X)
			pool.Unfix(f)
			stats.RedoApplied.Add(uint64(applied))
			mu.Lock()
			bs.Applied += applied
			bs.Skipped += skipped
			mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	})
	return bs, err
}

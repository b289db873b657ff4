package buffer

import (
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/wal"
)

// DefaultCleanerBatch is the per-shard page budget of one cleaner pass.
const DefaultCleanerBatch = 16

// The background page cleaner decouples page propagation from the
// transaction path (Sauer & Härder's asynchronous-writeback argument): a
// periodic pass walks each shard just ahead of the clock hand and flushes
// dirty, unpinned frames in batches, so
//
//   - foreground evictions almost always find clean victims (a steal
//     writeback on the Fix path becomes the exception, not the rule), and
//   - the dirty page table handed to fuzzy checkpoints stays small, which
//     bounds restart redo work.
//
// A pass cleans the shards in turn on the cleaner's goroutine. Each shard's
// batch is flushed with a single coalesced log force covering the batch's
// maximum page_LSN, so a shard pays one group-commit-path force rather than
// one per page.

// StartCleaner launches the background cleaner flushing up to batch dirty
// frames per shard every interval. It is a no-op if the cleaner is already
// running or interval is not positive. batch <= 0 uses DefaultCleanerBatch.
func (p *Pool) StartCleaner(interval time.Duration, batch int) {
	if interval <= 0 {
		return
	}
	if batch <= 0 {
		batch = DefaultCleanerBatch
	}
	p.cleanMu.Lock()
	defer p.cleanMu.Unlock()
	if p.cleanStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.cleanStop, p.cleanDone = stop, done
	go p.cleanerLoop(interval, batch, stop, done)
}

// StopCleaner stops the background cleaner and waits for its in-flight
// pass to finish, so no cleaner write can happen after it returns. It is
// idempotent and safe on a pool whose cleaner never started.
func (p *Pool) StopCleaner() {
	p.cleanMu.Lock()
	stop, done := p.cleanStop, p.cleanDone
	p.cleanStop, p.cleanDone = nil, nil
	p.cleanMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (p *Pool) cleanerLoop(interval time.Duration, batch int, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		// Drain: repeat batched passes until no dirty unpinned frame remains
		// ahead of the hands. The batch cap (half a shard per pass) still
		// bounds how many frames are pinned at any instant, but a single
		// capped pass per tick cannot keep up when the tick is coarse and
		// the foreground dirties pages quickly.
		for p.CleanPass(batch) > 0 {
			select {
			case <-stop:
				return
			default:
			}
		}
	}
}

// CleanPass runs one cleaner pass: the shards in turn each flush up to
// batch dirty, unpinned frames starting at their clock hand (the frames the
// next evictions will reach). Frames stay resident — the cleaner cleans,
// it does not evict — and their reference bits are untouched, so cleaning
// grants no second chance. Returns the number of frames cleaned.
// Exported so tests and quiesce points can drive the cleaner explicitly.
func (p *Pool) CleanPass(batch int) int {
	if batch <= 0 {
		batch = DefaultCleanerBatch
	}
	total := 0
	for i := range p.shards {
		total += p.cleanShard(&p.shards[i], batch)
	}
	p.stats.CleanerPasses.Add(1)
	return total
}

// cleanShard collects up to batch dirty unpinned frames ahead of the clock
// hand under the shard lock, then writes them back with the lock released.
func (p *Pool) cleanShard(s *poolShard, batch int) int {
	s.mu.Lock()
	n := len(s.slots)
	// Never pin more than half the shard at once: the cleaner's batch
	// holds its pins across a batch of page writes, and taking the whole
	// shard would starve foreground fixers into ErrPoolExhausted stalls.
	if limit := n / 2; batch > limit {
		batch = limit
		if batch < 1 {
			batch = 1
		}
	}
	victims := make([]*Frame, 0, batch)
	for i := 0; i < n && len(victims) < batch; i++ {
		f := s.slots[(s.hand+i)%n]
		if f == nil || f.pins.Load() != 0 || !f.isDirty() {
			continue
		}
		// Pin under s.mu: the zero pin count cannot change concurrently,
		// so the frame cannot be evicted out from under the writeback.
		f.pins.Add(1)
		victims = append(victims, f)
	}
	s.mu.Unlock()
	if len(victims) == 0 {
		return 0
	}
	// Coalesce the WAL requirement: one force to the batch's maximum
	// page_LSN covers every victim, so the per-frame force inside
	// writeBack degenerates to a stable check.
	var maxLSN wal.LSN
	for _, f := range victims {
		f.Latch.Acquire(latch.S)
		if l := wal.LSN(f.Page.LSN()); l > maxLSN {
			maxLSN = l
		}
		f.Latch.Release(latch.S)
	}
	p.log.Force(maxLSN)
	cleaned := 0
	for _, f := range victims {
		if err := p.writeBack(f); err == nil {
			cleaned++
			p.stats.CleanerWrites.Add(1)
		}
		// Plain unpin, not Unfix: cleaning must not set the reference bit.
		f.pins.Add(-1)
	}
	return cleaned
}

package repl

import (
	"fmt"
	"sync"

	"ariesim/internal/db"
	"ariesim/internal/recovery"
	"ariesim/internal/wal"
)

// flushEvery is the segment cadence of the standby's background FlushAll.
// Flushed pages, and the primary's master that Receive adopts from every
// segment, bound the redo work a promotion has to repeat, exactly as
// checkpoints bound a restart.
const flushEvery = 16

// Standby owns a replica engine and drives it from a Channel: join each
// in-order segment to the local log (wal.Log.Receive: the primary's bytes,
// forced), replay it into the pool with the page-partitioned parallel redo,
// raise the acked watermark, repeat — forever, until Promote. A corrupt,
// gapped or duplicate segment is dropped; the shipper's retransmit ticker
// re-ships from the acked watermark.
type Standby struct {
	ch   *Channel
	opts db.Options // the replica engine's; RedoWorkers is also the apply parallelism

	mu       sync.Mutex
	db       *db.DB
	applied  wal.LSN // tail LSN of the last appended-and-applied record
	promoted bool
	// err is the first redo failure. The standby applies nothing after it
	// and Promote returns it.
	err error

	done chan struct{}
}

// NewStandby builds the replica engine with opts on a fresh disk and wires
// it to the channel. The schema arrives as catalog records in the log it
// replays.
func NewStandby(ch *Channel, opts db.Options) *Standby {
	return &Standby{
		ch:   ch,
		opts: opts,
		db:   db.OpenReplica(opts),
		done: make(chan struct{}),
	}
}

// DB returns the replica engine (the serving primary after Promote).
func (s *Standby) DB() *db.DB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.db
}

// AppliedLSN returns the standby's applied watermark.
func (s *Standby) AppliedLSN() wal.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Start launches the receive loop.
func (s *Standby) Start() {
	go s.recvLoop()
}

// Wait blocks until the receive loop exits (channel closed).
func (s *Standby) Wait() { <-s.done }

// recvLoop is the perpetual-redo driver.
func (s *Standby) recvLoop() {
	defer close(s.done)
	for frame := range s.ch.RecvCh() {
		s.handleSegment(frame)
	}
}

// handleSegment validates one shipped segment, joins it to the local log,
// replays the records it appended, and acknowledges them.
func (s *Standby) handleSegment(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sdb := s.db
	stats := sdb.Stats()
	seg, recs, err := wal.DecodeSegment(frame)
	if err != nil || s.promoted || s.err != nil {
		// The channel mangled the frame; or zombie fencing: after Fence
		// every segment is a dead primacy's straggler; or a stopped
		// standby, which applies nothing.
		stats.SegmentsRejected.Add(1)
		return
	}
	// Receive drops the prefix we already hold (a duplicate or overlapping
	// delivery) and refuses a gap, and forces what it appends before the
	// pool can steal a replayed page: the WAL rule.
	n, err := sdb.Log().Receive(seg)
	if n == 0 {
		if err != nil || len(seg.Body) > 0 {
			stats.SegmentsRejected.Add(1) // a gap or a pure duplicate
		}
		return
	}
	recs = recs[len(recs)-n:]
	if _, err := recovery.ApplyRecords(sdb.Pool(), recs, s.opts.RedoWorkers, stats); err != nil {
		// The pool saw a record it cannot redo, and the record is already
		// in the local log, so no re-ship can apply it again: stop here and
		// leave the error to Promote.
		s.err = fmt.Errorf("repl: standby stopped at LSN %d: %w", recs[0].LSN, err)
		return
	}
	s.applied = recs[n-1].LSN
	stats.SegmentsApplied.Add(1)
	if stats.SegmentsApplied.Load()%flushEvery == 0 {
		// Background flush: bounds promotion redo like a checkpoint bounds
		// restart redo. Everything appended is forced, so the WAL rule
		// holds for every flushed page.
		_ = sdb.Pool().FlushAll()
	}
	s.ch.Ack(s.applied)
}

// Fence stops segment application: anything the dead primary still ships
// is stale from this instant on (rejected and counted). Fence is the first
// half of Promote, exposed so a harness can capture the exact promoted log
// base between fencing and promotion.
func (s *Standby) Fence() {
	s.mu.Lock()
	s.promoted = true
	s.mu.Unlock()
}

// Promote fences the standby, then opens the replica as the new primary
// (db.Promote: flush, restart recovery over the shipped log, undo of the
// dead primary's in-flight transactions). The receive loop keeps running,
// rejecting — and counting — every late segment from the old primary, until
// the channel closes. A standby stopped by a redo failure does not open;
// Promote returns that failure.
func (s *Standby) Promote() (*db.DB, *recovery.Report, error) {
	s.Fence()
	s.mu.Lock()
	sdb, err := s.db, s.err
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	rep, err := sdb.Promote()
	if err != nil {
		return nil, nil, err
	}
	return sdb, rep, nil
}

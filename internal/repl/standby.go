package repl

import (
	"fmt"
	"sync"

	"ariesim/internal/db"
	"ariesim/internal/recovery"
	"ariesim/internal/wal"
)

// flushEvery is the segment cadence of the standby's background
// FlushAll + master-record advance. Flushed pages and a fresh master
// bound the redo work a promotion has to repeat, exactly as checkpoints
// bound a restart.
const flushEvery = 16

// Standby owns a replica engine and drives it from a Channel: append each
// in-order segment to the local log, force it, replay it into the pool
// with the page-partitioned parallel redo, acknowledge, repeat — forever,
// until Promote. A gap NAKs once; the shipper's retransmit ticker repairs
// whatever that NAK's re-ship loses.
type Standby struct {
	ch   *Channel
	opts db.Options // the replica engine's; RedoWorkers is also the apply parallelism

	mu       sync.Mutex
	db       *db.DB
	applied  wal.LSN // tail LSN of the last appended-and-applied record
	promoted bool
	// naked is the expected LSN of the last NAK sent: every gap frame for
	// the same expected LSN after the first is ignored.
	naked wal.LSN
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

// handleSegment validates, dedups, appends, forces, and replays one
// shipped segment, then acknowledges the new applied watermark.
func (s *Standby) handleSegment(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sdb := s.db
	stats := sdb.Stats()
	seg, recs, err := wal.DecodeSegment(frame)
	if err != nil {
		// The channel mangled the frame. We cannot even trust its window
		// bounds, so NAK our tail (once) and let the shipper's retransmit
		// repair whatever else it carried.
		stats.SegmentsRejected.Add(1)
		s.nakLocked(sdb.Log().NextLSN())
		return
	}
	if s.promoted || s.err != nil {
		// Zombie fencing: after Fence every segment is a dead primacy's
		// straggler, and a stopped standby applies nothing.
		stats.SegmentsRejected.Add(1)
		return
	}

	// Dedup: drop the prefix we already hold (duplicate or overlapping
	// delivery). Idempotent by page_LSN anyway, but trimming keeps the
	// local log append-exact.
	next := sdb.Log().NextLSN()
	for len(recs) > 0 && recs[0].LSN < next {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		if len(seg.Body) > 0 {
			stats.SegmentsRejected.Add(1) // pure duplicate
		}
		s.ackLocked()
		return
	}
	if recs[0].LSN > next {
		// Gap: something between our tail and this segment was lost.
		stats.SegmentsRejected.Add(1)
		s.nakLocked(next)
		return
	}
	s.appendApplyLocked(seg, recs)
}

// appendApplyLocked appends recs, seg's records from exactly the local
// log's next LSN on, forces them, replays them, and acks.
func (s *Standby) appendApplyLocked(seg *wal.Segment, recs []*wal.Record) {
	sdb := s.db
	stats := sdb.Stats()
	log := sdb.Log()
	for _, r := range recs {
		want := r.LSN
		if got := log.Append(r); got != want {
			// An LSN is 1 + the record's byte offset, and the caller
			// verified the run starts exactly at our next offset, so an
			// identical byte stream must reproduce identical LSNs. A
			// mismatch is a codec invariant violation, not channel damage.
			panic(fmt.Sprintf("repl: shipped record LSN %d appended at %d", want, got))
		}
	}
	// Force before apply: the pool may steal/flush any replayed page, and
	// the WAL rule demands its log records be stable first.
	log.ForceAll()
	if _, err := recovery.ApplyRecords(sdb.Pool(), recs, s.opts.RedoWorkers, stats); err != nil {
		// The pool saw a record it cannot redo, and the record is already
		// in the local log, so no re-ship can apply it again: stop here and
		// leave the error to Promote.
		s.err = fmt.Errorf("repl: standby stopped at LSN %d: %w", recs[0].LSN, err)
		return
	}
	s.applied = recs[len(recs)-1].LSN
	// Advance the master record (clamped to our stable prefix) so a
	// promotion's analysis starts at the primary's last checkpoint rather
	// than LSN 1.
	if seg.Master != wal.NilLSN && seg.Master <= log.StableLSN() && seg.Master > log.Master() {
		log.SetMaster(seg.Master)
	}
	stats.SegmentsApplied.Add(1)
	if stats.SegmentsApplied.Load()%flushEvery == 0 {
		// Background flush: bounds promotion redo like a checkpoint bounds
		// restart redo. Everything appended is forced, so the WAL rule
		// holds for every flushed page.
		_ = sdb.Pool().FlushAll()
	}
	s.ackLocked()
}

// ackLocked reports the applied watermark to the primary.
func (s *Standby) ackLocked() {
	s.ch.SendControl(Control{Kind: CtlAck, LSN: uint64(s.applied)})
}

// nakLocked requests re-shipping from expected, once per expected LSN. A
// fenced or stopped standby asks for nothing.
func (s *Standby) nakLocked(expected wal.LSN) {
	if expected == s.naked || s.promoted || s.err != nil {
		return
	}
	s.naked = expected
	s.db.Stats().ReplNaks.Add(1)
	s.ch.SendControl(Control{Kind: CtlNak, LSN: uint64(expected)})
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

package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// ErrShipperStopped reports a wait cut short by Stop.
var ErrShipperStopped = errors.New("repl: shipper stopped")

// ErrAckTimeout reports a commit-gate wait that expired before the standby
// acknowledged the LSN.
var ErrAckTimeout = errors.New("repl: standby ack timeout")

// retransmit is how long the acked watermark may stall below the stable mark
// before the shipper re-ships from it. This is the stream's one loss repair:
// a dropped, corrupted or gapped frame is re-sent once the watermark has
// stalled for a whole interval, keeping the commit gate live. The interval
// is the latency a lost frame adds to a gated commit, so it is short: the
// standby sweep takes about 9 % longer at 2 ms, and re-ships no fewer
// segments.
const retransmit = time.Millisecond

// Shipper streams a log's stable prefix over a Channel as framed
// segments. Start it once; it wakes on the log's stable-notify hook
// (wal.Log.SetStableNotify), ships everything newly hardened, and wakes
// commit-gate waiters whenever the channel's acked watermark rises.
type Shipper struct {
	log   *wal.Log
	ch    *Channel
	stats *trace.Stats // shipping counters

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when the acked watermark rises, or on Stop
	nextShip wal.LSN    // first LSN not yet shipped
	stopped  bool

	notify chan struct{} // stable-notify doorbell (coalesced)
	stop   chan struct{} // closed by Stop
	done   sync.WaitGroup
}

// NewShipper wires a shipper to the primary's log and the channel, counting
// into stats (a fresh sink if nil). The shipper installs itself as the log's
// stable-notify hook.
func NewShipper(log *wal.Log, ch *Channel, stats *trace.Stats) *Shipper {
	s := &Shipper{
		log:      log,
		ch:       ch,
		stats:    trace.OrNew(stats),
		nextShip: wal.NilLSN + 1,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	// A force that advanced the stable mark rings; ship reads the mark
	// itself, so a ring needs no LSN and a burst of rings is one wakeup.
	log.SetStableNotify(s.ring)
	return s
}

// Start launches the ship and ack loops.
func (s *Shipper) Start() {
	s.done.Add(2)
	go s.shipLoop()
	go s.ackLoop()
	s.ring() // ship whatever is already stable
}

// Stop halts both loops and releases every gate waiter with
// ErrShipperStopped. It does not close the channel.
func (s *Shipper) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stop)
	s.done.Wait()
}

// ring nudges the ship loop (idempotent, non-blocking). It stays safe
// after Stop: the log's stable-notify hook remains installed, so a
// late Force on the primary's log must not panic.
func (s *Shipper) ring() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Lag returns how many stable log bytes the standby has not yet
// acknowledged — the replication lag in the only unit LSNs measure.
func (s *Shipper) Lag() uint64 {
	stable, acked := s.log.StableLSN(), s.ch.Acked()
	if stable <= acked {
		return 0
	}
	return uint64(stable - acked)
}

// WaitAcked blocks until the standby has acknowledged lsn, the timeout
// expires (ErrAckTimeout), or the shipper stops (ErrShipperStopped).
func (s *Shipper) WaitAcked(lsn wal.LSN, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ch.Acked() < lsn {
		if s.stopped {
			return ErrShipperStopped
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: LSN %d unacked after %v", ErrAckTimeout, lsn, timeout)
		}
		s.cond.Wait()
	}
	return nil
}

// Gate adapts WaitAcked into a db.SetCommitGate function: semi-sync
// replication acks a commit only once the standby holds its record.
func (s *Shipper) Gate(timeout time.Duration) func(wal.LSN) error {
	return func(lsn wal.LSN) error {
		return s.WaitAcked(lsn, timeout)
	}
}

// ShipNow forces one segment send even when nothing new is stable — an
// empty segment is a heartbeat, and it is how a zombie primary's dying
// gasp reaches (and bounces off) a promoted standby's fence.
func (s *Shipper) ShipNow() {
	s.ship(0, true)
}

// ship sends [from..stable] as one segment; from 0 means the current
// cursor. A shipped window moves the cursor to its end. Unless force is
// set, nothing new to send sends nothing.
func (s *Shipper) ship(from wal.LSN, force bool) {
	s.mu.Lock()
	if from == 0 {
		from = s.nextShip
	}
	seg := s.log.ShipFrom(from)
	if len(seg.Body) == 0 && from > seg.Stable && !force {
		s.mu.Unlock()
		return // nothing stable beyond the cursor; heartbeats aren't needed
	}
	if len(seg.Body) > 0 {
		s.nextShip = seg.First + wal.LSN(len(seg.Body))
	}
	s.mu.Unlock()
	s.ch.Send(seg.Encode())
	s.stats.SegmentsShipped.Add(1)
}

// shipLoop ships on every stable-notify doorbell and retransmits from the
// acked watermark when acks stall — the repair path for dropped frames.
func (s *Shipper) shipLoop() {
	defer s.done.Done()
	ticker := time.NewTicker(retransmit)
	defer ticker.Stop()
	lastAcked := wal.NilLSN
	for {
		select {
		case <-s.stop:
			return
		case <-s.notify:
			s.ship(0, false)
		case <-ticker.C:
			acked := s.ch.Acked()
			if acked < s.log.StableLSN() && acked == lastAcked {
				// Stable records stayed unacked for a whole interval:
				// assume loss and re-ship the whole unacked window.
				s.stats.SegmentsResent.Add(1)
				s.ship(acked+1, false)
			}
			lastAcked = acked
		}
	}
}

// ackLoop wakes the commit-gate waiters on every ring of the channel's ack
// doorbell. The broadcast is under s.mu, which a waiter holds from reading
// the watermark until it waits, so no rise is missed.
func (s *Shipper) ackLoop() {
	defer s.done.Done()
	for {
		select {
		case _, ok := <-s.ch.AckCh():
			if !ok {
				return
			}
		case <-s.stop:
			return
		}
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Package repl implements hot-standby replication: a primary-side shipper
// that streams WAL records as they harden, an in-process lossy channel
// with seeded fault injection, and a standby that applies segments
// continuously with the page-partitioned parallel redo — "a restart that
// never ends" — until Promote turns it into the serving primary.
//
// Wire model. Data frames (one wal.Segment encoding each: the primary's
// stored log bytes from one record to its stable mark, which the shipper
// copies and the standby decodes once and joins to its own log as the same
// bytes) travel over the lossy path: each send may be dropped, duplicated,
// reordered, corrupted, or stalled by the injector, mirroring
// storage.FaultInjector's philosophy (seeded, reproducible, with a
// consecutive-fault cap so progress is guaranteed). The standby → primary
// direction carries one thing, the acked watermark: the highest LSN the
// standby holds appended, forced and applied. It only rises, so it is a
// value the standby raises and the shipper reads, with a one-slot doorbell
// to wake the shipper — the moral equivalent of the TCP connection a real
// system would keep for its feedback, where a newer ack subsumes every
// older one. Loss is repaired in one tier: the shipper re-ships its unacked
// window whenever the watermark stalls for one retransmit interval, and the
// fault cap lets some re-ship through. A standby drops a corrupt, gapped
// or duplicate segment and says nothing.
package repl

import (
	"math/rand"
	"sync"
	"time"

	"ariesim/internal/wal"
)

// ChannelFaults configures the data-path fault injector. Probabilities
// are per-send and independent; the zero value is a perfect channel.
type ChannelFaults struct {
	// Seed drives the deterministic fault sequence.
	Seed int64
	// DropProb loses the frame entirely.
	DropProb float64
	// DupProb delivers the frame twice.
	DupProb float64
	// ReorderProb holds the frame back and delivers it after the next one.
	ReorderProb float64
	// CorruptProb flips one byte of the frame before delivery.
	CorruptProb float64
	// StallProb delays the delivery by stallDelay.
	StallProb float64
}

// stallDelay is how long a stall fault holds a frame back.
const stallDelay = time.Millisecond

// maxConsecutive caps the run of consecutively faulted sends: after that
// many in a row the next send is delivered clean. The cap is what makes
// every test terminate — some frame always gets through, exactly like the
// storage injector's guarantee.
const maxConsecutive = 2

// Channel is the in-process replication link: a lossy data path
// (primary → standby) and the acked watermark (standby → primary). Both
// close down together via Close.
type Channel struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    ChannelFaults
	consec int    // consecutive faulted sends, for the cap
	held   []byte // frame held back by a reorder fault
	counts ChannelCounts
	closed bool
	acked  wal.LSN // highest LSN the standby acknowledged

	frames chan []byte   // data path (fault-injected)
	bell   chan struct{} // rung when acked rises (one slot: rings coalesce)
}

// ChannelCounts tallies injected faults for reporting.
type ChannelCounts struct {
	Sent, Dropped, Duplicated, Reordered, Corrupted, Stalled int
}

// NewChannel creates a channel with the given fault profile.
func NewChannel(cfg ChannelFaults) *Channel {
	return &Channel{
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cfg:    cfg,
		frames: make(chan []byte, 256),
		bell:   make(chan struct{}, 1),
	}
}

// Counts returns the fault tally so far.
func (c *Channel) Counts() ChannelCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Close tears the link down; pending frames are discarded by receivers
// observing the closed channel.
func (c *Channel) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.frames)
	close(c.bell)
}

// deliver enqueues one frame, dropping it if the receiver is hopelessly
// behind (a full buffer is backpressure; the shipper's retransmit timer
// recovers, so blocking the sender would only hide liveness bugs).
func (c *Channel) deliver(frame []byte) {
	select {
	case c.frames <- frame:
	default:
		c.counts.Dropped++
	}
}

// Send pushes one data frame through the fault injector. The caller's
// slice is not retained (corruption mutates a copy).
func (c *Channel) Send(frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.counts.Sent++
	var stall time.Duration
	faulted := true
	switch {
	case c.consec >= maxConsecutive:
		faulted = false
	case c.rng.Float64() < c.cfg.DropProb:
		c.counts.Dropped++
		c.consec++
		return
	case c.rng.Float64() < c.cfg.DupProb:
		c.counts.Duplicated++
		c.deliver(frame)
		c.deliver(frame)
	case c.rng.Float64() < c.cfg.ReorderProb:
		// Hold this frame; it goes out after the NEXT send's frame.
		c.counts.Reordered++
		if c.held != nil {
			c.deliver(c.held)
		}
		c.held = frame
	case c.rng.Float64() < c.cfg.CorruptProb:
		c.counts.Corrupted++
		bad := append([]byte(nil), frame...)
		if len(bad) > 0 {
			bad[c.rng.Intn(len(bad))] ^= 1 << uint(c.rng.Intn(8))
		}
		c.deliver(bad)
	case c.rng.Float64() < c.cfg.StallProb:
		c.counts.Stalled++
		stall = stallDelay
		c.deliver(frame)
	default:
		faulted = false
	}
	if faulted {
		c.consec++
	} else {
		c.consec = 0
		c.deliver(frame)
		if c.held != nil { // flush a pending reorder behind the clean frame
			c.deliver(c.held)
			c.held = nil
		}
	}
	if stall > 0 {
		c.mu.Unlock()
		time.Sleep(stall)
		c.mu.Lock()
	}
}

// RecvCh exposes the data path for select loops.
func (c *Channel) RecvCh() <-chan []byte { return c.frames }

// Ack raises the acked watermark to lsn and rings the doorbell; an lsn at or
// below the watermark changes nothing and rings nothing.
func (c *Channel) Ack(lsn wal.LSN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || lsn <= c.acked {
		return
	}
	c.acked = lsn
	select {
	case c.bell <- struct{}{}:
	default:
	}
}

// Acked returns the acked watermark.
func (c *Channel) Acked() wal.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// AckCh is the doorbell Ack rings, closed by Close.
func (c *Channel) AckCh() <-chan struct{} { return c.bell }

// Package latch implements the short-duration physical-consistency locks
// ("latches") of ARIES/IM.
//
// ARIES uses latches on pages to assure physical consistency of accessed
// information and locks on data to assure logical consistency (paper §1.2).
// Latches differ from locks in three ways that this package preserves:
//
//   - they cost tens of instructions, not hundreds: no hash table, no
//     deadlock detection — a bare synchronization object per page;
//   - deadlock freedom comes from protocol (the paper §4 ordering rules:
//     parent→child, leaf→next-leaf, release low before latching high), so
//     there is no detector;
//   - they support conditional (try) acquisition, which the protocols use
//     whenever the ordering rules cannot guarantee safety.
//
// The per-index tree latch that serializes structure modification
// operations is the same type with an extra instant-duration helper.
package latch

import (
	"sync"

	"ariesim/internal/trace"
)

// Mode is a latch mode: shared or exclusive.
type Mode int

const (
	// S is the shared mode, allowing concurrent readers.
	S Mode = iota
	// X is the exclusive mode.
	X
)

func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// Latch is an S/X latch with conditional acquisition and writer preference
// (a waiting writer blocks new readers, preventing writer starvation during
// read-heavy traversals).
//
// The zero value is NOT ready; use New so statistics can be attached.
type Latch struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int  // active shared holders
	writer  bool // active exclusive holder
	wWait   int  // queued writers

	stats *trace.Stats
	tree  bool // report into the tree-latch counters
}

// New creates a latch reporting into stats (a fresh sink if nil).
func New(stats *trace.Stats) *Latch {
	l := &Latch{stats: trace.OrNew(stats)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// NewTree creates a tree latch: identical semantics, separate counters, so
// benches can distinguish tree-latch traffic from page-latch traffic.
func NewTree(stats *trace.Stats) *Latch {
	l := New(stats)
	l.tree = true
	return l
}

func (l *Latch) countAcquire(waited bool) {
	if l.tree {
		l.stats.TreeLatchAcquires.Add(1)
		if waited {
			l.stats.TreeLatchWaits.Add(1)
		}
		return
	}
	l.stats.LatchAcquires.Add(1)
	if waited {
		l.stats.LatchWaits.Add(1)
	}
}

func (l *Latch) countTryFailure() {
	l.stats.LatchTryFailures.Add(1)
}

func (l *Latch) grantableS() bool { return !l.writer && l.wWait == 0 }
func (l *Latch) grantableX() bool { return !l.writer && l.readers == 0 }

// Acquire blocks until the latch is granted in the given mode.
func (l *Latch) Acquire(m Mode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	waited := false
	if m == S {
		for !l.grantableS() {
			waited = true
			l.cond.Wait()
		}
		l.readers++
	} else {
		l.wWait++
		for !l.grantableX() {
			waited = true
			l.cond.Wait()
		}
		l.wWait--
		l.writer = true
	}
	l.countAcquire(waited)
}

// TryAcquire attempts a conditional acquisition; it never blocks.
func (l *Latch) TryAcquire(m Mode) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m == S {
		if !l.grantableS() {
			l.countTryFailure()
			return false
		}
		l.readers++
	} else {
		if !l.grantableX() {
			l.countTryFailure()
			return false
		}
		l.writer = true
	}
	l.countAcquire(false)
	return true
}

// Release drops a hold in the given mode.
func (l *Latch) Release(m Mode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m == S {
		if l.readers <= 0 {
			panic("latch: S release without hold")
		}
		l.readers--
	} else {
		if !l.writer {
			panic("latch: X release without hold")
		}
		l.writer = false
	}
	l.cond.Broadcast()
}

// AcquireInstant waits until the latch would be grantable in mode m and
// immediately releases it. The paper's traversal logic uses an instant
// S tree latch to wait for an unfinished SMO to complete (Figs 4, 6, 7).
func (l *Latch) AcquireInstant(m Mode) {
	l.Acquire(m)
	l.Release(m)
}

// Held reports whether some goroutine holds the latch in either mode. Used
// only by invariant assertions: the buffer pool refuses to rebind a frame
// whose latch is held.
func (l *Latch) Held() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writer || l.readers > 0
}

// Package lock implements the transaction lock manager ariesim's index and
// record managers rely on.
//
// ARIES/IM assumes a lock manager with: S/X/IS/IX/SIX modes (Gray's
// multi-granularity modes), instant and commit durations, conditional and
// unconditional requests, lock conversions, and deadlock detection. The
// locking protocols in the paper are built on two rules this package makes
// cheap to follow:
//
//   - a lock requested conditionally while latches are held is never
//     waited for: the caller releases its latches, requests the lock
//     unconditionally, and revalidates (paper §2.2);
//   - a deadlock is resolved by aborting exactly one waiter in the cycle
//     (ErrDeadlock), which combined with ARIES/IM's latch protocol means
//     rolling-back transactions never deadlock (paper §4).
//
// Deadlock victims are chosen by cost, not blindly: among the blocked
// transactions forming the cycle the manager prefers the one holding the
// fewest locks (least rollback work), breaking ties toward the youngest
// (highest owner ID). Unconditional waits are additionally bounded by an
// optional lock-wait timeout (ErrLockTimeout). Both errors identify the
// transaction that must roll back; db.RunTxn turns them into automatic
// rollback-and-retry.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/trace"
)

// Mode is a lock mode.
type Mode uint8

const (
	// ModeNone holds nothing; it is the identity of Supremum.
	ModeNone Mode = iota
	// IS is intention shared (multi-granularity).
	IS
	// IX is intention exclusive.
	IX
	// S is shared.
	S
	// SIX is shared + intention exclusive.
	SIX
	// X is exclusive.
	X
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "-"
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case SIX:
		return "SIX"
	case X:
		return "X"
	default:
		return fmt.Sprintf("mode%d", uint8(m))
	}
}

// compat is Gray's compatibility matrix.
var compat = [6][6]bool{
	//            None   IS     IX     S      SIX    X
	/* None */ {true, true, true, true, true, true},
	/* IS   */ {true, true, true, true, true, false},
	/* IX   */ {true, true, true, false, false, false},
	/* S    */ {true, true, false, true, false, false},
	/* SIX  */ {true, true, false, false, false, false},
	/* X    */ {true, false, false, false, false, false},
}

// Compatible reports whether modes a and b can be held concurrently by
// different transactions.
func Compatible(a, b Mode) bool { return compat[a][b] }

// sup is the mode-conversion supremum table.
var sup = [6][6]Mode{
	/* None */ {ModeNone, IS, IX, S, SIX, X},
	/* IS   */ {IS, IS, IX, S, SIX, X},
	/* IX   */ {IX, IX, IX, SIX, SIX, X},
	/* S    */ {S, S, SIX, S, SIX, X},
	/* SIX  */ {SIX, SIX, SIX, SIX, SIX, X},
	/* X    */ {X, X, X, X, X, X},
}

// Supremum returns the weakest mode at least as strong as both a and b.
func Supremum(a, b Mode) Mode { return sup[a][b] }

// Duration is how long a granted lock is held.
type Duration uint8

const (
	// Instant duration: the requester only needs to know the lock was
	// grantable at this moment; it is released as soon as granted. Used
	// for the next-key lock during inserts (paper Fig 2).
	Instant Duration = iota
	// Manual duration: released explicitly before commit (cursor
	// stability reads).
	Manual
	// Commit duration: held until the transaction terminates.
	Commit
)

func (d Duration) String() string {
	switch d {
	case Instant:
		return "instant"
	case Manual:
		return "manual"
	case Commit:
		return "commit"
	default:
		return fmt.Sprintf("dur%d", uint8(d))
	}
}

// Space partitions the lock name space. The spaces let the trace package
// present per-object-class lock counts (the paper's efficiency metric).
type Space uint8

const (
	// SpaceTable holds table-level intention locks.
	SpaceTable Space = iota
	// SpaceRecord holds record (RID) locks — ARIES/IM data-only locking
	// names its key locks here.
	SpaceRecord
	// SpacePage holds data-page locks (page-granularity locking).
	SpacePage
	// SpaceEOF holds the per-index end-of-file lock used when next-key
	// locking runs off the right edge of the index (paper §2.2).
	SpaceEOF
	// SpaceKeyValue holds key-value locks (ARIES/KVL and System R
	// baselines; also ARIES/IM's index-specific variant).
	SpaceKeyValue
	// SpaceIndexPage holds index-page locks (System R-style baseline).
	SpaceIndexPage
)

func (s Space) String() string {
	switch s {
	case SpaceTable:
		return "table"
	case SpaceRecord:
		return "record"
	case SpacePage:
		return "page"
	case SpaceEOF:
		return "eof"
	case SpaceKeyValue:
		return "keyvalue"
	case SpaceIndexPage:
		return "indexpage"
	default:
		return fmt.Sprintf("space%d", uint8(s))
	}
}

// RegisterTraceNames labels the trace dimensions with this package's
// enums; called once by the engine.
func RegisterTraceNames() {
	for s := SpaceTable; s <= SpaceIndexPage; s++ {
		trace.RegisterSpaceName(int(s), s.String())
	}
	for m := ModeNone; m <= X; m++ {
		trace.RegisterModeName(int(m), m.String())
	}
	for d := Instant; d <= Commit; d++ {
		trace.RegisterDurationName(int(d), d.String())
	}
}

// Name is a lock name: a space plus two 64-bit qualifiers. Examples:
// record lock = {SpaceRecord, pageID, slot}; EOF lock = {SpaceEOF, indexID,
// 0}; key-value lock = {SpaceKeyValue, indexID, hash(value)}.
type Name struct {
	Space Space
	A, B  uint64
}

func (n Name) String() string { return fmt.Sprintf("%s(%d,%d)", n.Space, n.A, n.B) }

// Owner identifies a lock owner (a transaction).
type Owner uint32

// Errors returned by Request.
var (
	// ErrNotGranted reports a conditional request that could not be
	// granted immediately.
	ErrNotGranted = errors.New("lock: not granted")
	// ErrDeadlock reports that the receiving transaction was chosen as the
	// victim of a waits-for cycle and must roll back.
	ErrDeadlock = errors.New("lock: deadlock detected, chosen as victim")
	// ErrLockTimeout reports an unconditional wait abandoned at the
	// lock-wait timeout; the requester should roll back and retry.
	ErrLockTimeout = errors.New("lock: wait timed out")
	// ErrShutdown reports that the lock manager was shut down (engine
	// crash) while the request was queued or before it was made.
	ErrShutdown = errors.New("lock: manager shut down by crash")
)

// modeStep records one mode upgrade of a holding: at manager sequence seq
// the holding's mode stopped being prev. The history lets ReleaseSince
// revert a holding to the mode it had at an earlier savepoint.
type modeStep struct {
	seq  uint64
	prev Mode
}

type holding struct {
	owner Owner
	mode  Mode
	count int
	seq   uint64     // manager sequence at first grant
	hist  []modeStep // mode upgrades since, oldest first
}

// modeAt returns the mode this holding had at sequence tok (ModeNone if it
// did not exist yet).
func (g *holding) modeAt(tok uint64) Mode {
	if g.seq > tok {
		return ModeNone
	}
	mode := g.mode
	for i := len(g.hist) - 1; i >= 0; i-- {
		if g.hist[i].seq <= tok {
			break
		}
		mode = g.hist[i].prev
	}
	return mode
}

type request struct {
	owner   Owner
	mode    Mode // target mode (post-conversion mode for conversions)
	convert bool
	name    Name
	granted chan error
}

type head struct {
	granted []*holding
	queue   []*request
}

// DefaultShards is the shard count NewManager uses: enough to spread a
// 16-worker benchmark's uncontended requests across independent mutexes
// without bloating single-threaded engines.
const DefaultShards = 16

// deadlockProbeAfter is how long an unconditional wait lasts before its
// first deadlock probe; deadlockProbeMax caps the probe backoff. Probing
// lazily keeps the detector's global all-shard pause off the fast path —
// a wait that resolves inside the grace period costs nothing.
const (
	deadlockProbeAfter = 500 * time.Microsecond
	deadlockProbeMax   = 8 * time.Millisecond
)

// shard is one partition of the lock table. A name's head, its holders'
// per-owner index entries, and any blocked request on it all live in the
// shard the name hashes to, so every single-name operation touches exactly
// one shard mutex.
type shard struct {
	mu    sync.Mutex
	table map[Name]*head
	held  map[Owner]map[Name]*holding // per-owner index for release-all
	waits map[Owner]*request          // one blocked request per owner
}

// Manager is the lock manager. All state is volatile: a crash empties the
// lock table (restart reacquires locks only for prepared transactions).
//
// The table is hash-sharded: grants, releases, and queue processing lock
// only the shard owning the name, so disjoint transactions scale across
// cores instead of convoying on one global mutex. Cross-shard state is
// kept correct by construction: the grant sequence is a single atomic
// (savepoint tokens stay globally ordered), an owner has at most one
// blocked request (living in its name's shard), and the deadlock detector
// pauses every shard — lockAll in ascending index order — to examine a
// consistent waits-for graph before choosing a victim.
type Manager struct {
	shards  []shard
	mask    uint64
	seq     atomic.Uint64 // grant sequence, for savepoint tokens
	timeout atomic.Int64  // default unconditional wait bound in ns (0 = none)
	down    atomic.Bool   // shut down by crash; all requests fail
	stats   *trace.Stats
}

// NewManager creates an empty lock manager reporting into stats (may be
// nil) with DefaultShards shards.
func NewManager(stats *trace.Stats) *Manager {
	return NewManagerSharded(stats, DefaultShards)
}

// NewManagerSharded creates a lock manager with the given shard count,
// rounded up to a power of two. One shard reproduces the historical
// global-mutex behavior (the benchmark baseline).
func NewManagerSharded(stats *trace.Stats, shards int) *Manager {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Manager{shards: make([]shard, n), mask: uint64(n - 1), stats: stats}
	for i := range m.shards {
		s := &m.shards[i]
		s.table = make(map[Name]*head)
		s.held = make(map[Owner]map[Name]*holding)
		s.waits = make(map[Owner]*request)
	}
	return m
}

// NumShards returns the shard count (power of two).
func (m *Manager) NumShards() int { return len(m.shards) }

// shardOf returns the shard owning name. Fibonacci-style multiplicative
// mixing keeps related names (same space, adjacent pages/slots) spread.
func (m *Manager) shardOf(n Name) *shard {
	h := n.A*0x9E3779B97F4A7C15 ^ n.B*0xC2B2AE3D27D4EB4F ^ uint64(n.Space)*0x165667B19E3779F9
	h ^= h >> 29
	return &m.shards[h&m.mask]
}

// lockAll acquires every shard mutex in ascending index order: the global
// pause the deadlock detector and Shutdown use. Single-shard paths never
// hold one shard's mutex while acquiring another's, so the ordered sweep
// cannot deadlock against them.
func (m *Manager) lockAll() {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for i := range m.shards {
		m.shards[i].mu.Unlock()
	}
}

// SetWaitTimeout bounds every unconditional wait: a request still queued
// after d fails with ErrLockTimeout. Zero restores unbounded waits.
func (m *Manager) SetWaitTimeout(d time.Duration) {
	m.timeout.Store(int64(d))
}

func (s *shard) headOf(n Name) *head {
	h := s.table[n]
	if h == nil {
		h = &head{}
		s.table[n] = h
	}
	return h
}

// compatibleWithGranted reports whether owner may hold mode alongside all
// *other* granted holders.
func (h *head) compatibleWithGranted(owner Owner, mode Mode) bool {
	for _, g := range h.granted {
		if g.owner != owner && !Compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

func (h *head) holdingOf(owner Owner) *holding {
	for _, g := range h.granted {
		if g.owner == owner {
			return g
		}
	}
	return nil
}

// Request asks for a lock. Conditional requests never block: they return
// ErrNotGranted when the lock is not immediately available. Unconditional
// requests block until granted, until deadlock victim selection aborts
// them (ErrDeadlock), or until the manager's lock-wait timeout expires
// (ErrLockTimeout). Instant-duration locks are released as soon as they
// are granted; their purpose is purely to observe grantability.
func (m *Manager) Request(owner Owner, name Name, mode Mode, dur Duration, conditional bool) error {
	return m.RequestWith(owner, name, mode, dur, conditional, 0)
}

// RequestWith is Request with a per-request wait bound: timeout 0 uses the
// manager default (SetWaitTimeout), negative waits without bound.
func (m *Manager) RequestWith(owner Owner, name Name, mode Mode, dur Duration, conditional bool, timeout time.Duration) error {
	if m.stats != nil {
		m.stats.CountLock(int(name.Space), int(mode), int(dur))
	}
	if timeout == 0 {
		timeout = time.Duration(m.timeout.Load())
	}
	s := m.shardOf(name)
	s.mu.Lock()
	if m.down.Load() {
		s.mu.Unlock()
		return ErrShutdown
	}
	h := s.headOf(name)
	mine := h.holdingOf(owner)

	if mine != nil && Supremum(mine.mode, mode) == mine.mode {
		// Already held in a sufficient mode.
		if dur != Instant {
			mine.count++
		}
		s.mu.Unlock()
		return nil
	}

	target := mode
	convert := mine != nil
	if convert {
		target = Supremum(mine.mode, mode)
	}

	canGrant := h.compatibleWithGranted(owner, target) &&
		(convert || len(h.queue) == 0) // new requests honor FIFO; conversions may pass the queue
	if canGrant {
		m.grantLocked(h, owner, name, target, mine, s)
		if dur == Instant && mine == nil {
			m.releaseLocked(s, name, owner)
		}
		s.mu.Unlock()
		return nil
	}

	if conditional {
		s.mu.Unlock()
		if m.stats != nil {
			m.stats.LockDenials.Add(1)
		}
		return ErrNotGranted
	}

	// Enqueue. Conversions go ahead of non-conversions.
	req := &request{owner: owner, mode: target, convert: convert, name: name, granted: make(chan error, 1)}
	if convert {
		i := 0
		for i < len(h.queue) && h.queue[i].convert {
			i++
		}
		h.queue = append(h.queue, nil)
		copy(h.queue[i+1:], h.queue[i:])
		h.queue[i] = req
	} else {
		h.queue = append(h.queue, req)
	}
	s.waits[owner] = req
	s.mu.Unlock()

	if m.stats != nil {
		m.stats.LockWaits.Add(1)
	}

	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	// Lazy deadlock detection: the detector needs a global all-shard pause,
	// so it must stay off the fast path. Most waits (commit-duration locks
	// held across one log force) resolve well inside the grace period and
	// never pay for a cycle search; only a wait that outlives the probe
	// timer triggers detection, with geometric backoff while it lasts. A
	// probe that finds the request already granted sees no wait edge for
	// owner and reports no cycle, which is exactly right.
	probeIval := deadlockProbeAfter
	probe := time.NewTimer(probeIval)
	defer probe.Stop()
	var err error
waitLoop:
	for {
		select {
		case err = <-req.granted:
			break waitLoop
		case <-probe.C:
			if derr := m.resolveDeadlocks(owner, name, req); derr != nil {
				return derr
			}
			if probeIval *= 2; probeIval > deadlockProbeMax {
				probeIval = deadlockProbeMax
			}
			probe.Reset(probeIval)
		case <-timeoutC:
			s.mu.Lock()
			select {
			case err = <-req.granted:
				// Resolved between the timer firing and us reacquiring the
				// shard lock; honor the resolution.
				s.mu.Unlock()
				break waitLoop
			default:
				if h := s.table[name]; h != nil {
					m.removeRequestLocked(h, req)
					// Waking grantable requests queued behind the abandoned one.
					m.processQueueLocked(s, name, h)
				}
				delete(s.waits, owner)
				s.mu.Unlock()
				if m.stats != nil {
					m.stats.LockTimeouts.Add(1)
				}
				return ErrLockTimeout
			}
		}
	}
	if err != nil {
		return err
	}
	// An instant lock is released on grant — unless this was a conversion,
	// where the pre-existing (longer-duration) holding must survive; the
	// conservative upgrade is kept until transaction end.
	if dur == Instant && !req.convert {
		m.Release(owner, name)
	}
	return nil
}

// resolveDeadlocks pauses every shard and breaks each waits-for cycle the
// new edge (owner blocked on name via req) closed: abort the cheapest
// blocked member of each cycle — the one holding the fewest locks, ties
// toward the youngest — rather than blindly the requester. Aborting
// another waiter may leave further cycles (or grant this request), so it
// loops until the graph is clean. Returns ErrDeadlock if owner itself was
// chosen as a victim.
func (m *Manager) resolveDeadlocks(owner Owner, name Name, req *request) error {
	m.lockAll()
	defer m.unlockAll()
	for {
		cycle := m.findCycleAllLocked(owner)
		if cycle == nil {
			return nil
		}
		if m.stats != nil {
			m.stats.Deadlocks.Add(1)
			m.stats.DeadlockVictims.Add(1)
		}
		victim := m.chooseVictimAllLocked(cycle)
		if victim == owner {
			s := m.shardOf(name)
			if h := s.table[name]; h != nil {
				m.removeRequestLocked(h, req)
				// Removing the victim may unblock requests queued behind it.
				m.processQueueLocked(s, name, h)
			}
			delete(s.waits, owner)
			return ErrDeadlock
		}
		if m.stats != nil {
			m.stats.VictimsOther.Add(1)
		}
		m.abortWaiterAllLocked(victim, ErrDeadlock)
	}
}

// Token returns an opaque marker of the current grant sequence. Locks
// granted or upgraded after the token was taken can be rolled back with
// ReleaseSince — the lock half of a transaction savepoint. The sequence
// is a single atomic across every shard, so tokens order globally.
func (m *Manager) Token() uint64 {
	return m.seq.Load()
}

// ReleaseSince releases every lock owner first acquired after tok and
// reverts holdings upgraded after tok to the mode they had at tok, waking
// newly grantable waiters. Partial rollback (txn.RollbackTo) uses this so
// a rolled-back transaction fragment does not keep the locks that made it
// a deadlock victim. Returns the number of holdings released or reverted.
//
// The sweep visits shards one at a time; that is sound because an owner's
// locks are only granted or upgraded by its own goroutine (or while it is
// blocked, in which case it is not calling ReleaseSince).
func (m *Manager) ReleaseSince(owner Owner, tok uint64) int {
	changed := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		byOwner := s.held[owner]
		var drop, revert []Name
		for n, g := range byOwner {
			switch was := g.modeAt(tok); {
			case was == ModeNone:
				drop = append(drop, n)
			case was != g.mode:
				revert = append(revert, n)
			}
		}
		for _, n := range drop {
			m.releaseLocked(s, n, owner)
		}
		for _, n := range revert {
			g := byOwner[n]
			mode := g.modeAt(tok)
			for len(g.hist) > 0 && g.hist[len(g.hist)-1].seq > tok {
				g.hist = g.hist[:len(g.hist)-1]
			}
			g.mode = mode
			if h := s.table[n]; h != nil {
				// The weaker mode may admit waiters.
				m.processQueueLocked(s, n, h)
			}
		}
		changed += len(drop) + len(revert)
		s.mu.Unlock()
	}
	if changed > 0 && m.stats != nil {
		m.stats.SavepointLockReleases.Add(uint64(changed))
	}
	return changed
}

// Shutdown fails the manager: every queued waiter on every shard is woken
// with ErrShutdown and every future request fails immediately with it.
// The engine calls this at Crash so goroutines blocked in lock waits
// unwind instead of sleeping forever on an orphaned lock table; Restart
// builds a fresh manager. Release and ReleaseAll stay usable so rolling-
// back stragglers unwind cleanly.
//
// The down flag is published before any shard is drained: a requester
// checks it under its shard mutex in the same critical section that would
// enqueue, so it either enqueues before the drain sweeps that shard (and
// is woken) or observes down and fails fast — no waiter can slip through.
func (m *Manager) Shutdown() {
	m.down.Store(true)
	var waiting []*request
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for o, req := range s.waits {
			delete(s.waits, o)
			if h := s.table[req.name]; h != nil {
				m.removeRequestLocked(h, req)
				if len(h.granted) == 0 && len(h.queue) == 0 {
					delete(s.table, req.name)
				}
			}
			waiting = append(waiting, req)
		}
		s.mu.Unlock()
	}
	for _, req := range waiting {
		req.granted <- ErrShutdown
	}
}

// waitOfAllLocked finds owner's blocked request (caller holds all shards).
func (m *Manager) waitOfAllLocked(owner Owner) (*shard, *request) {
	for i := range m.shards {
		s := &m.shards[i]
		if req := s.waits[owner]; req != nil {
			return s, req
		}
	}
	return nil, nil
}

// abortWaiterAllLocked removes owner's blocked request and resolves it
// with err, waking every request queued behind it that became grantable.
// Caller holds every shard mutex.
func (m *Manager) abortWaiterAllLocked(owner Owner, err error) {
	s, req := m.waitOfAllLocked(owner)
	if req == nil {
		return
	}
	delete(s.waits, owner)
	if h := s.table[req.name]; h != nil {
		m.removeRequestLocked(h, req)
		m.processQueueLocked(s, req.name, h)
	}
	req.granted <- err
}

// heldCountAllLocked sums owner's holdings across shards (caller holds
// all shard mutexes).
func (m *Manager) heldCountAllLocked(o Owner) int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i].held[o])
	}
	return n
}

// chooseVictimAllLocked picks the cheapest member of a waits-for cycle to
// abort: the owner holding the fewest locks (least rollback and
// reacquisition work), ties broken toward the youngest (highest owner ID —
// IDs are assigned in begin order). Caller holds every shard mutex.
func (m *Manager) chooseVictimAllLocked(cycle []Owner) Owner {
	victim := cycle[0]
	cv := m.heldCountAllLocked(victim)
	for _, o := range cycle[1:] {
		co := m.heldCountAllLocked(o)
		if co < cv || (co == cv && o > victim) {
			victim, cv = o, co
		}
	}
	return victim
}

// grantLocked installs or upgrades owner's holding, stamping the grant
// sequence consumed by savepoint tokens (Token/ReleaseSince). Caller
// holds s.mu, the shard owning name.
func (m *Manager) grantLocked(h *head, owner Owner, name Name, mode Mode, mine *holding, s *shard) {
	seq := m.seq.Add(1)
	if mine != nil {
		if mine.mode != mode {
			mine.hist = append(mine.hist, modeStep{seq: seq, prev: mine.mode})
			mine.mode = mode
		}
		mine.count++
		return
	}
	g := &holding{owner: owner, mode: mode, count: 1, seq: seq}
	h.granted = append(h.granted, g)
	byOwner := s.held[owner]
	if byOwner == nil {
		byOwner = make(map[Name]*holding)
		s.held[owner] = byOwner
	}
	byOwner[name] = g
}

func (m *Manager) removeRequestLocked(h *head, req *request) {
	for i, r := range h.queue {
		if r == req {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			return
		}
	}
}

// releaseLocked removes owner's holding on name and processes the queue.
// Caller holds s.mu, the shard owning name.
func (m *Manager) releaseLocked(s *shard, name Name, owner Owner) {
	h := s.table[name]
	if h == nil {
		return
	}
	for i, g := range h.granted {
		if g.owner == owner {
			h.granted = append(h.granted[:i], h.granted[i+1:]...)
			break
		}
	}
	if byOwner := s.held[owner]; byOwner != nil {
		delete(byOwner, name)
		if len(byOwner) == 0 {
			delete(s.held, owner)
		}
	}
	m.processQueueLocked(s, name, h)
}

// processQueueLocked grants queued requests in order; it stops at the
// first non-grantable request to preserve FIFO fairness (conversions sit
// at the front of the queue and so are considered first). Caller holds
// s.mu, the shard owning name.
func (m *Manager) processQueueLocked(s *shard, name Name, h *head) {
	for len(h.queue) > 0 {
		req := h.queue[0]
		mine := h.holdingOf(req.owner)
		if !h.compatibleWithGranted(req.owner, req.mode) {
			return
		}
		h.queue = h.queue[1:]
		m.grantLocked(h, req.owner, name, req.mode, mine, s)
		delete(s.waits, req.owner)
		req.granted <- nil
	}
	if len(h.granted) == 0 && len(h.queue) == 0 {
		delete(s.table, name)
	}
}

// Reinstate re-grants a loser transaction's lock at restart, before the
// engine opens for business. The lock table is empty at that point (a
// crash wipes it), so the conditional request must succeed; a denial means
// the restart sequence granted a conflicting lock first, which is an
// invariant violation, not a wait-worthy conflict — it is reported as an
// error rather than queued. The grant is commit-duration: it is released
// by the loser's EndLoser exactly as a live transaction's locks would be.
func (m *Manager) Reinstate(owner Owner, name Name, mode Mode) error {
	err := m.Request(owner, name, mode, Commit, true)
	if err != nil {
		if errors.Is(err, ErrShutdown) {
			return err
		}
		return fmt.Errorf("lock: reinstate %v %v for owner %d: %w", name, mode, owner, err)
	}
	if m.stats != nil {
		m.stats.LocksReinstated.Add(1)
	}
	return nil
}

// Release drops owner's holding on name (manual-duration unlock).
func (m *Manager) Release(owner Owner, name Name) {
	s := m.shardOf(name)
	s.mu.Lock()
	m.releaseLocked(s, name, owner)
	s.mu.Unlock()
}

// ReleaseAll drops every lock owner holds: commit or rollback completion.
// Shards are swept one at a time; new locks are never granted to owner
// concurrently (the owner is the one releasing), so the sweep is complete.
func (m *Manager) ReleaseAll(owner Owner) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		names := make([]Name, 0, len(s.held[owner]))
		for n := range s.held[owner] {
			names = append(names, n)
		}
		for _, n := range names {
			m.releaseLocked(s, n, owner)
		}
		s.mu.Unlock()
	}
}

// HoldsAtLeast reports whether owner currently holds name in mode or
// stronger (verification and debugging).
func (m *Manager) HoldsAtLeast(owner Owner, name Name, mode Mode) bool {
	s := m.shardOf(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if byOwner := s.held[owner]; byOwner != nil {
		if g, ok := byOwner[name]; ok {
			return Supremum(g.mode, mode) == g.mode
		}
	}
	return false
}

// Held lists owner's current locks (prepare records, tests).
type Held struct {
	Name Name
	Mode Mode
}

// LocksOf returns the locks owner currently holds.
func (m *Manager) LocksOf(owner Owner) []Held {
	var out []Held
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for n, g := range s.held[owner] {
			out = append(out, Held{Name: n, Mode: g.mode})
		}
		s.mu.Unlock()
	}
	return out
}

// NumLocks returns the number of distinct (name, owner) holdings.
func (m *Manager) NumLocks() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for _, byOwner := range s.held {
			n += len(byOwner)
		}
		s.mu.Unlock()
	}
	return n
}

// findCycleAllLocked returns the owners of one waits-for cycle through
// start (in chain order), or nil when start's blocked request closes no
// cycle. Caller holds every shard mutex, so the graph spanning all shards
// is consistent. Edges: a blocked owner waits for (1) every granted holder
// incompatible with its target mode and (2) every request queued ahead of
// it. Every member of a cycle has an outgoing edge and is therefore itself
// blocked, which is what makes any member abortable via its wait channel.
func (m *Manager) findCycleAllLocked(start Owner) []Owner {
	visited := map[Owner]bool{}
	var path []Owner
	var dfs func(o Owner) []Owner
	dfs = func(o Owner) []Owner {
		_, req := m.waitOfAllLocked(o)
		if req == nil {
			return nil
		}
		h := m.shardOf(req.name).table[req.name]
		if h == nil {
			return nil
		}
		path = append(path, o)
		defer func() { path = path[:len(path)-1] }()
		var successors []Owner
		for _, g := range h.granted {
			if g.owner != o && !Compatible(g.mode, req.mode) {
				successors = append(successors, g.owner)
			}
		}
		for _, q := range h.queue {
			if q == req {
				break
			}
			if q.owner != o {
				successors = append(successors, q.owner)
			}
		}
		for _, s := range successors {
			if s == start {
				return append([]Owner(nil), path...)
			}
			if !visited[s] {
				visited[s] = true
				if cyc := dfs(s); cyc != nil {
					return cyc
				}
			}
		}
		return nil
	}
	return dfs(start)
}

// Granularity selects the data lock granularity (paper §2.1: "different
// granularities of locking ... in a flexible manner").
type Granularity uint8

const (
	// GranRecord locks individual records (RIDs): the fine-granularity
	// default ARIES/IM is designed around.
	GranRecord Granularity = iota
	// GranPage locks whole data pages: the coarse alternative; a key lock
	// becomes a lock on the data page ID part of the RID.
	GranPage
)

func (g Granularity) String() string {
	if g == GranPage {
		return "page"
	}
	return "record"
}

// DataLockName names the lock protecting the record with the given RID at
// the chosen granularity. ARIES/IM data-only locking uses this same name
// for the index key containing the RID: locking the key IS locking the
// data (paper §2.1).
func DataLockName(g Granularity, page uint64, slot uint16) Name {
	if g == GranPage {
		return Name{Space: SpacePage, A: page}
	}
	return Name{Space: SpaceRecord, A: page, B: uint64(slot)}
}

// TableName names a table's intention lock.
func TableName(tableID uint64) Name { return Name{Space: SpaceTable, A: tableID} }

// EOFName names the per-index end-of-file lock (paper §2.2).
func EOFName(indexID uint64) Name { return Name{Space: SpaceEOF, A: indexID} }

// KeyValueName names a key-value lock: the ARIES/KVL and System R
// baselines, and ARIES/IM's index-specific variant, lock hashed key values
// within an index.
func KeyValueName(indexID uint64, hash uint64) Name {
	return Name{Space: SpaceKeyValue, A: indexID, B: hash}
}

// IndexPageName names an index-page lock (System R-style baseline).
func IndexPageName(indexID uint64, page uint64) Name {
	return Name{Space: SpaceIndexPage, A: indexID, B: page}
}

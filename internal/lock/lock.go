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
	"runtime"
	"slices"
	"strings"
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
	// SpaceRecord holds record (RID) locks — ARIES/IM data-only locking
	// names its key locks here.
	SpaceRecord Space = iota
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

// init labels the trace dimensions with this package's enums.
func init() {
	for s := SpaceRecord; s <= SpaceIndexPage; s++ {
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
	owner *ownerLocks
	head  *head // the head of name, which stays in the table while this is granted
	name  Name
	mode  Mode
	dur   Duration   // the longest a grant on it asked for (diagnostics only)
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
	owner   *ownerLocks
	mode    Mode // target mode (post-conversion mode for conversions)
	dur     Duration
	convert bool
	name    Name
	granted chan error
}

type head struct {
	granted []*holding
	queue   []*request
}

// ownerIndexAt is the size up to which an owner's list lives in its record's
// own array (record and list are one allocation) and is searched by scanning
// it; past it (scans, reinstated losers holding thousands) the list moves to
// the heap and a map is kept beside it.
const ownerIndexAt = 32

// ownerLocks is one owner's own lock table: what it holds and the one
// request it may be blocked on. Every holding and request points back to
// it, so the lock table proper carries no per-owner index.
//
// Concurrency contract. An owner is driven by one goroutine at a time
// (calls for one Owner are ordered by happens-before) and has at most one
// blocked request. Its record is written only under the shard mutex of the
// name concerned — by the owner itself, or by a releaser granting to it
// while it waits in that request — and is therefore read
//
//   - lock-free by the owner alone (the receive from its request's channel,
//     polled or parked, or the shard mutex the timeout and probe paths take,
//     orders a waiting owner's next read after the granter's write);
//   - under every shard mutex by anyone else: the deadlock detector,
//     LocksOf and NumLocks.
//
// A release that finds the owner blocked, or the holding already gone, panics
// (remove, retireIfIdle): that is a second goroutine driving the owner.
//
// The record is entered in the registry by the owner's first request and
// removed by the owner when it holds nothing and waits for nothing.
type ownerLocks struct {
	id    Owner
	held  []*holding        // grant order, so ascending seq
	index map[Name]*holding // the owner's own way into held past ownerIndexAt, else nil; no one else reads it
	wait  *request          // the blocked request, if any
	first [ownerIndexAt]*holding
}

func (o *ownerLocks) find(n Name) *holding {
	if o.index != nil {
		return o.index[n]
	}
	for _, g := range o.held {
		if g.name == n {
			return g
		}
	}
	return nil
}

func (o *ownerLocks) add(g *holding) {
	o.held = append(o.held, g)
	if o.index != nil {
		o.index[g.name] = g
	} else if len(o.held) > ownerIndexAt {
		o.index = make(map[Name]*holding, 2*len(o.held))
		for _, g := range o.held {
			o.index[g.name] = g
		}
	}
}

// remove takes g out of the list, searching from the tail: locks are
// released in roughly the reverse of grant order. Caller holds the mutex of
// the shard owning g.name. It panics on the two states only a second
// goroutine driving the owner can produce: g already released, or the owner
// waiting in a request.
func (o *ownerLocks) remove(g *holding) {
	last := len(o.held) - 1
	i := last
	for i >= 0 && o.held[i] != g {
		i--
	}
	if i < 0 || o.wait != nil {
		panic(fmt.Sprintf("lock: owner %d released %v from two goroutines at once (blocked: %t)", o.id, g.name, o.wait != nil))
	}
	copy(o.held[i:], o.held[i+1:])
	o.held[last] = nil
	o.held = o.held[:last]
	if o.index != nil {
		delete(o.index, g.name)
	}
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

// waitSpin is how long after enqueue a waiter polls its request, yielding
// between polls, before it parks. A lock waited for under ARIES/IM is held
// across no latch and no I/O, so most waits end within a few microseconds;
// a waiter still awake when its grant arrives runs at once instead of
// leaving the lock idle — and its releaser's next request queued behind it
// — until the scheduler wakes it. The bound is far below deadlockProbeAfter,
// so the detector's timing is unchanged. Each poll yields the P, so under
// GOMAXPROCS=1 the holder runs between polls. Chosen by a sweep on
// hot-update (EXPERIMENTS); not a knob.
const waitSpin = 20 * time.Microsecond

// maxFreeHeads bounds a shard's list of empty heads kept for reuse.
const maxFreeHeads = 32

// shard is one partition of the lock table: the heads of the names that
// hash to it, each with its granted holdings and its queue. Every
// single-name operation touches exactly one shard mutex.
type shard struct {
	mu    sync.Mutex
	table map[Name]*head
	free  []*head // emptied heads, so a name that comes and goes allocates once
}

// ownerShard is one partition of the owner registry. Its mutex is a leaf:
// taken alone or under shard mutexes, never the other way round.
type ownerShard struct {
	mu     sync.Mutex
	owners map[Owner]*ownerLocks
}

// Manager is the lock manager. All state is volatile: a crash empties the
// lock table, and only an online restart grants locks again before new
// work, reinstating the X locks of the losers it undoes in the background
// (Reinstate).
//
// The table is hash-sharded: grants, releases, and queue processing lock
// only the shard owning the name, so disjoint transactions scale across
// cores instead of convoying on one global mutex. What an owner holds lives
// in the owner's own record (ownerLocks, which states who may touch it), so
// a re-request of a held lock takes no shard mutex and ReleaseAll visits
// only the shards of the names held. Cross-shard state is kept correct by
// construction: the grant sequence is a single atomic (savepoint tokens
// stay globally ordered), an owner has at most one blocked request, and the
// deadlock detector pauses every shard — lockAll in ascending index order —
// to examine a consistent waits-for graph before choosing a victim.
type Manager struct {
	shards   []shard
	registry []ownerShard // by owner ID; as many as shards
	mask     uint64
	seq      atomic.Uint64 // grant sequence, for savepoint tokens
	timeout  atomic.Int64  // unconditional wait bound in ns (0 = none)
	down     atomic.Bool   // shut down by crash; all requests fail
	stats    *trace.Stats
}

// NewManager creates an empty lock manager reporting into stats (a fresh
// sink if nil) with DefaultShards shards.
func NewManager(stats *trace.Stats) *Manager {
	return NewManagerSharded(stats, DefaultShards)
}

// NewManagerSharded creates a lock manager with the given shard count,
// rounded up to a power of two.
func NewManagerSharded(stats *trace.Stats, shards int) *Manager {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Manager{shards: make([]shard, n), registry: make([]ownerShard, n), mask: uint64(n - 1), stats: trace.OrNew(stats)}
	for i := range m.shards {
		m.shards[i].table = make(map[Name]*head)
		m.registry[i].owners = make(map[Owner]*ownerLocks)
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

// ownerOf returns owner's record, entering a new one in the registry when
// there is none and create is set.
func (m *Manager) ownerOf(owner Owner, create bool) *ownerLocks {
	r := &m.registry[uint64(owner)&m.mask]
	r.mu.Lock()
	o := r.owners[owner]
	if o == nil && create {
		o = &ownerLocks{id: owner}
		o.held = o.first[:0]
		r.owners[owner] = o
	}
	r.mu.Unlock()
	return o
}

// retireIfIdle removes o from the registry once it holds nothing and waits
// for nothing. Only the owner calls it, at the end of a call that may have
// left it so.
func (m *Manager) retireIfIdle(o *ownerLocks) {
	if len(o.held) > 0 {
		return
	}
	if o.wait != nil {
		panic(fmt.Sprintf("lock: owner %d driven by two goroutines at once: one is blocked in Request", o.id))
	}
	r := &m.registry[uint64(o.id)&m.mask]
	r.mu.Lock()
	delete(r.owners, o.id)
	r.mu.Unlock()
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

// newHead enters a head for n, which has none, reusing an emptied one.
func (s *shard) newHead(n Name) *head {
	var h *head
	if last := len(s.free) - 1; last >= 0 {
		h, s.free[last] = s.free[last], nil
		s.free = s.free[:last]
	} else {
		h = &head{}
	}
	s.table[n] = h
	return h
}

// dropIfEmpty takes n's head out of the table once nothing is granted or
// queued on it, keeping it (and its granted array) for the next new name.
func (s *shard) dropIfEmpty(n Name, h *head) {
	if len(h.granted) > 0 || len(h.queue) > 0 {
		return
	}
	delete(s.table, n)
	if len(s.free) < maxFreeHeads {
		h.queue = nil
		s.free = append(s.free, h)
	}
}

// compatibleWithGranted reports whether owner may hold mode alongside all
// *other* granted holders.
func (h *head) compatibleWithGranted(owner *ownerLocks, mode Mode) bool {
	for _, g := range h.granted {
		if g.owner != owner && !Compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

// Request asks for a lock. Conditional requests never block: they return
// ErrNotGranted when the lock is not immediately available. Unconditional
// requests block until granted, until deadlock victim selection aborts
// them (ErrDeadlock), or until the manager's lock-wait timeout expires
// (ErrLockTimeout). Instant-duration locks are released as soon as they
// are granted; their purpose is purely to observe grantability.
//
// A request for a lock the owner already holds in a sufficient mode is
// answered from the owner's own table: one registry lookup, no shard mutex,
// no allocation.
func (m *Manager) Request(owner Owner, name Name, mode Mode, dur Duration, conditional bool) error {
	m.stats.CountLock(int(name.Space), int(mode), int(dur))
	if m.down.Load() {
		return ErrShutdown
	}
	o := m.ownerOf(owner, true)
	mine := o.find(name)
	if mine != nil && Supremum(mine.mode, mode) == mine.mode {
		return nil // already held in a sufficient mode
	}

	target := mode
	convert := mine != nil
	if convert {
		target = Supremum(mine.mode, mode)
	}

	s := m.shardOf(name)
	s.mu.Lock()
	if m.down.Load() {
		s.mu.Unlock()
		m.retireIfIdle(o)
		return ErrShutdown
	}
	h := s.table[name]
	canGrant := h == nil || (h.compatibleWithGranted(o, target) &&
		(convert || len(h.queue) == 0)) // new requests honor FIFO; conversions may pass the queue
	if canGrant {
		// An instant lock on a name the owner does not hold is only the
		// observation that it was grantable now: nothing is installed. An
		// instant conversion keeps the conservative upgrade until the
		// pre-existing (longer-duration) holding ends.
		if dur != Instant || convert {
			if h == nil {
				h = s.newHead(name)
			}
			m.grantLocked(h, o, name, target, dur, mine)
		}
		s.mu.Unlock()
		m.retireIfIdle(o)
		return nil
	}

	if conditional {
		s.mu.Unlock()
		m.retireIfIdle(o)
		return ErrNotGranted
	}

	// Enqueue. Conversions go ahead of non-conversions.
	req := &request{owner: o, mode: target, dur: dur, convert: convert, name: name, granted: make(chan error, 1)}
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
	o.wait = req
	s.mu.Unlock()
	enqueued := time.Now()

	m.stats.LockWaits.Add(1)
	err := m.await(req, enqueued)
	if err != nil {
		m.retireIfIdle(o)
		return err
	}
	// A queued instant lock was installed by its granter; drop it — unless
	// it was a conversion, as above.
	if dur == Instant && !convert {
		m.Release(owner, name)
	}
	return nil
}

// await holds the owner of req, queued at enqueued, until the request is
// granted (nil), aborted by a deadlock detector or Shutdown, or timed out.
// It polls req for waitSpin first, then parks. Whether it is polling or
// parked, req stays queued the same way: granters, the detector and Shutdown
// resolve it through its channel either way. The manager's wait timeout and
// the first deadlock probe are counted from enqueued.
func (m *Manager) await(req *request, enqueued time.Time) error {
	defer func() { m.stats.LockWaitNanos.Add(uint64(time.Since(enqueued))) }()
	for {
		select {
		case err := <-req.granted:
			return err
		default:
		}
		if time.Since(enqueued) >= waitSpin {
			break
		}
		runtime.Gosched()
	}
	// The bound is read before the park is counted: whoever sees the count
	// knows the bound this wait took.
	timeout := time.Duration(m.timeout.Load())
	m.stats.LockWaitsParked.Add(1)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout - time.Since(enqueued))
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
	probe := time.NewTimer(probeIval - time.Since(enqueued))
	defer probe.Stop()
	for {
		select {
		case err := <-req.granted:
			return err
		case <-probe.C:
			if derr := m.resolveDeadlocks(req); derr != nil {
				return derr
			}
			if probeIval *= 2; probeIval > deadlockProbeMax {
				probeIval = deadlockProbeMax
			}
			probe.Reset(probeIval)
		case <-timeoutC:
			s := m.shardOf(req.name)
			s.mu.Lock()
			select {
			case err := <-req.granted:
				// Resolved between the timer firing and us reacquiring the
				// shard lock; honor the resolution.
				s.mu.Unlock()
				return err
			default:
				// Waking grantable requests queued behind the abandoned one.
				m.dequeueLocked(s, req)
				s.mu.Unlock()
				m.stats.LockTimeouts.Add(1)
				return ErrLockTimeout
			}
		}
	}
}

// resolveDeadlocks pauses every shard and breaks each waits-for cycle the
// new edge (req, its owner blocked on its name) closed: abort the cheapest
// blocked member of each cycle — the one holding the fewest locks, ties
// toward the youngest — rather than blindly the requester. Aborting
// another waiter may leave further cycles (or grant this request), so it
// loops until the graph is clean. Returns ErrDeadlock if the requester
// itself was chosen as a victim.
func (m *Manager) resolveDeadlocks(req *request) error {
	m.lockAll()
	defer m.unlockAll()
	for {
		cycle := m.findCycleAllLocked(req.owner)
		if cycle == nil {
			return nil
		}
		m.stats.Deadlocks.Add(1)
		m.stats.DeadlockVictims.Add(1)
		victim := chooseVictim(cycle)
		if victim == req.owner {
			// Removing the victim may unblock requests queued behind it.
			m.dequeueLocked(m.shardOf(req.name), req)
			return ErrDeadlock
		}
		m.stats.VictimsOther.Add(1)
		// Every member of a cycle is blocked, so victim.wait is set.
		vreq := victim.wait
		m.dequeueLocked(m.shardOf(vreq.name), vreq)
		vreq.granted <- ErrDeadlock
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
// The owner's list is in grant order and every grant takes the next value
// of the one sequence, so the holdings first granted after tok are exactly
// the list's tail; the survivors upgraded since are found by their history.
func (m *Manager) ReleaseSince(owner Owner, tok uint64) int {
	o := m.ownerOf(owner, false)
	if o == nil {
		return 0
	}
	changed := 0
	for n := len(o.held); n > 0 && o.held[n-1].seq > tok; n-- {
		m.release(o.held[n-1])
		changed++
	}
	for _, g := range o.held {
		if n := len(g.hist); n == 0 || g.hist[n-1].seq <= tok {
			continue
		}
		s := m.shardOf(g.name)
		s.mu.Lock()
		g.mode = g.modeAt(tok)
		for len(g.hist) > 0 && g.hist[len(g.hist)-1].seq > tok {
			g.hist = g.hist[:len(g.hist)-1]
		}
		// The weaker mode may admit waiters.
		m.processQueueLocked(s, g.name, g.head)
		s.mu.Unlock()
		changed++
	}
	m.retireIfIdle(o)
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
		for n, h := range s.table {
			for _, req := range h.queue {
				req.owner.wait = nil
				waiting = append(waiting, req)
			}
			h.queue = nil
			s.dropIfEmpty(n, h)
		}
		s.mu.Unlock()
	}
	for _, req := range waiting {
		req.granted <- ErrShutdown
	}
}

// dequeueLocked abandons the queued req — timed out, or chosen as a
// deadlock victim — and grants whatever was queued behind it that thereby
// became grantable. A no-op if req was resolved first (Shutdown drains a
// shard before it wakes the waiters). Caller holds s.mu, the shard owning
// req.name.
func (m *Manager) dequeueLocked(s *shard, req *request) {
	if req.owner.wait != req {
		return
	}
	req.owner.wait = nil
	h := s.table[req.name]
	for i, r := range h.queue {
		if r == req {
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			break
		}
	}
	m.processQueueLocked(s, req.name, h)
}

// chooseVictim picks the cheapest member of a waits-for cycle to abort: the
// owner holding the fewest locks (least rollback and reacquisition work),
// ties broken toward the youngest (highest owner ID — IDs are assigned in
// begin order). Caller holds every shard mutex.
func chooseVictim(cycle []*ownerLocks) *ownerLocks {
	victim := cycle[0]
	for _, o := range cycle[1:] {
		if co, cv := len(o.held), len(victim.held); co < cv || (co == cv && o.id > victim.id) {
			victim = o
		}
	}
	return victim
}

// grantLocked installs owner's holding on name, or upgrades it (mine, the
// holding it already has), stamping the grant sequence consumed by
// savepoint tokens (Token/ReleaseSince). Caller holds the mutex of the
// shard owning name.
func (m *Manager) grantLocked(h *head, o *ownerLocks, name Name, mode Mode, dur Duration, mine *holding) {
	seq := m.seq.Add(1)
	if mine != nil {
		if mine.mode != mode {
			mine.hist = append(mine.hist, modeStep{seq: seq, prev: mine.mode})
			mine.mode = mode
		}
		mine.dur = max(mine.dur, dur)
		return
	}
	g := &holding{owner: o, head: h, name: name, mode: mode, dur: dur, seq: seq}
	h.granted = append(h.granted, g)
	o.add(g)
}

// release drops the holding g — from its owner's list and from its name's
// head — and processes the queue, under the mutex of the one shard that
// owns the name.
func (m *Manager) release(g *holding) {
	s := m.shardOf(g.name)
	s.mu.Lock()
	g.owner.remove(g)
	h := g.head
	last := len(h.granted) - 1
	for i, x := range h.granted {
		if x == g {
			h.granted[i] = h.granted[last]
			break
		}
	}
	h.granted[last] = nil
	h.granted = h.granted[:last]
	m.processQueueLocked(s, g.name, h)
	s.mu.Unlock()
}

// processQueueLocked grants queued requests in order; it stops at the
// first non-grantable request to preserve FIFO fairness (conversions sit
// at the front of the queue and so are considered first). Caller holds
// s.mu, the shard owning name.
func (m *Manager) processQueueLocked(s *shard, name Name, h *head) {
	for len(h.queue) > 0 {
		req := h.queue[0]
		if !h.compatibleWithGranted(req.owner, req.mode) {
			return
		}
		h.queue = h.queue[1:]
		var mine *holding
		if req.convert {
			mine = req.owner.find(name) // its owner is in await: nothing else reads or writes its table
		}
		m.grantLocked(h, req.owner, name, req.mode, req.dur, mine)
		req.owner.wait = nil
		req.granted <- nil
	}
	s.dropIfEmpty(name, h)
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
	m.stats.LocksReinstated.Add(1)
	return nil
}

// Release drops owner's holding on name (manual-duration unlock).
func (m *Manager) Release(owner Owner, name Name) {
	o := m.ownerOf(owner, false)
	if o == nil {
		return
	}
	if g := o.find(name); g != nil {
		m.release(g)
		m.retireIfIdle(o)
	}
}

// ReleaseAll drops every lock owner holds: commit or rollback completion.
// It pops the owner's own list, newest first, taking the shard of each name
// held and no other.
func (m *Manager) ReleaseAll(owner Owner) {
	o := m.ownerOf(owner, false)
	if o == nil {
		return
	}
	o.index = nil // popping the tail needs no map
	for n := len(o.held); n > 0; n-- {
		m.release(o.held[n-1])
	}
	m.retireIfIdle(o)
}

// HoldsAtLeast reports whether owner currently holds name in mode or
// stronger. It reads the owner's own table without a shard mutex, so like
// Request it is the owner's call to make (or that of a goroutine ordered
// after the owner's last call: tests, verification).
func (m *Manager) HoldsAtLeast(owner Owner, name Name, mode Mode) bool {
	if o := m.ownerOf(owner, false); o != nil {
		if g := o.find(name); g != nil {
			return Supremum(g.mode, mode) == g.mode
		}
	}
	return false
}

// Held is one of an owner's current locks, as LocksOf lists them.
type Held struct {
	Name Name
	Mode Mode
}

// LocksOf returns the locks owner currently holds, in grant order.
func (m *Manager) LocksOf(owner Owner) []Held {
	m.lockAll()
	defer m.unlockAll()
	o := m.ownerOf(owner, false)
	if o == nil {
		return nil
	}
	out := make([]Held, len(o.held))
	for i, g := range o.held {
		out[i] = Held{Name: g.name, Mode: g.mode}
	}
	return out
}

// NumLocks returns the number of distinct (name, owner) holdings.
func (m *Manager) NumLocks() int {
	m.lockAll()
	defer m.unlockAll()
	n := 0
	for i := range m.registry {
		r := &m.registry[i]
		r.mu.Lock()
		for _, o := range r.owners {
			n += len(o.held)
		}
		r.mu.Unlock()
	}
	return n
}

// DumpWaiters formats every name that has queued requests: its granted
// group, then its queue in order, each entry with its owner, mode and
// duration, and each queued request marked as a new request or a
// conversion. It pauses every shard, as the deadlock detector does; it is
// for diagnosing a wait that does not end, and changes nothing.
func (m *Manager) DumpWaiters() string {
	m.lockAll()
	defer m.unlockAll()
	var heads []string
	for i := range m.shards {
		for name, h := range m.shards[i].table {
			if len(h.queue) == 0 {
				continue
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%v\n  granted:", name)
			for _, g := range h.granted {
				fmt.Fprintf(&b, " [owner %d %v %v]", g.owner.id, g.mode, g.dur)
			}
			b.WriteString("\n  queued:")
			for _, r := range h.queue {
				kind := "new"
				if r.convert {
					kind = "conversion"
				}
				fmt.Fprintf(&b, " [owner %d %v %v %s]", r.owner.id, r.mode, r.dur, kind)
			}
			heads = append(heads, b.String()+"\n")
		}
	}
	if len(heads) == 0 {
		return "no lock has waiters\n"
	}
	slices.Sort(heads)
	return strings.Join(heads, "")
}

// findCycleAllLocked returns the owners of one waits-for cycle through
// start (in chain order), or nil when start's blocked request closes no
// cycle. Caller holds every shard mutex, so the graph spanning all shards
// is consistent. Edges: a blocked owner waits for (1) every granted holder
// incompatible with its target mode and (2) every request queued ahead of
// it. Every member of a cycle has an outgoing edge and is therefore itself
// blocked, which is what makes any member abortable via its wait channel.
func (m *Manager) findCycleAllLocked(start *ownerLocks) []*ownerLocks {
	visited := map[*ownerLocks]bool{}
	var path []*ownerLocks
	var dfs func(o *ownerLocks) []*ownerLocks
	dfs = func(o *ownerLocks) []*ownerLocks {
		req := o.wait
		if req == nil {
			return nil
		}
		h := m.shardOf(req.name).table[req.name]
		path = append(path, o)
		defer func() { path = path[:len(path)-1] }()
		var successors []*ownerLocks
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
				return append([]*ownerLocks(nil), path...)
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

// Package mvcc is the in-memory version store behind snapshot-isolated
// read-only transactions. Writers push a version per record mutation
// (keyed by table + primary key, carrying the full row image), commit
// stamps every version of the transaction with its commit LSN once the
// commit record is durable, and readers resolve a key against a snapshot
// LSN with a pure LSN comparison — no lock-manager calls at all.
//
// The store is volatile and epoch-scoped: the engine builds a fresh one
// per restart/promotion (versions are reconstructable from the page +
// undo state, and recovery holds reinstated loser locks that force
// readers onto the locked path until chains could matter again), so
// restart "invalidation" is simply starting empty.
//
// Visibility watermark. A commit becomes visible only after its record
// is durable AND every commit at a lower LSN has also been stamped or
// abandoned. Committers enter a ticket before appending their commit
// record, attach the LSN once known, and retire the ticket after the
// log force; `visible` advances to min(inflight)-1 (or the max stamped
// LSN when no ticket is open) and never past an unassigned ticket. A
// snapshot is just `visible` at begin: every commit <= S is stamped and
// durable, every commit > S is invisible, so torn or unordered reads
// cannot occur — even across crashes, because an unforced commit never
// advances the watermark.
//
// Chain-removal invariant. A chain may be dropped (or old versions
// folded into its base) only when it has no in-flight versions and the
// folded commit LSNs are <= min(visible, every active snapshot). Hence
// "no chain for key K" proves to any reader that the page image of K it
// probed carries only commits <= its snapshot — uncommitted writer data
// or a newer commit would imply a chain that cannot have been removed
// while the reader's snapshot is registered. Writers seeding a new
// chain validate their committed-state probe against a per-table
// removal sequence number to close the probe/creation race.
//
// Retirement. The bound min(visible, every active snapshot) only rises.
// A commit whose LSN is at or below it folds and drops its chains on the
// spot; otherwise (a snapshot is registered, or a lower commit is still
// in flight) StampCommit queues each chain under the commit's LSN, and
// whichever StampCommit, AbortCommit or End next raises the bound pops
// the queue's ready prefix and retires those chains outside the store
// mutex. So a chain lives exactly as long as some reader or in-flight
// commit can need it, whether or not its key is ever written again.
package mvcc

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

// ErrSnapshotTooOld reports that the version a snapshot needs was pruned
// while the reader ran (a long reader under heavy churn on a capped
// chain). It is retryable: a fresh snapshot sees the surviving state.
var ErrSnapshotTooOld = errors.New("mvcc: snapshot too old (version pruned)")

// maxChainVersions caps a chain's stamped history; beyond it, pruning
// folds old versions into the base even past a straggling reader's
// snapshot, raising the chain floor (ErrSnapshotTooOld for that reader).
const maxChainVersions = 32

// version is one record image pushed by a writer.
type version struct {
	present   bool
	value     []byte
	txID      wal.TxID
	commitLSN wal.LSN // 0 while the writer is in flight
	pushLSN   wal.LSN // writer's log position at push (savepoint rollback)
}

// chain is the version history of one (table, key). base is the
// committed state at chain creation (or after folding); floor is the
// lowest snapshot LSN the base can still answer (0 = any).
type chain struct {
	key         string
	tc          *tableChains // owning table (chains never migrate)
	next        []*chain     // successors in the table's chainIndex, per level
	basePresent bool
	baseValue   []byte
	floor       wal.LSN
	versions    []version
}

// visibleAt resolves the chain against snapshot s.
func (c *chain) visibleAt(s wal.LSN) (present bool, value []byte, err error) {
	for i := len(c.versions) - 1; i >= 0; i-- {
		v := &c.versions[i]
		if v.commitLSN != 0 && v.commitLSN <= s {
			return v.present, v.value, nil
		}
	}
	if s < c.floor {
		return false, nil, ErrSnapshotTooOld
	}
	return c.basePresent, c.baseValue, nil
}

// tableChains holds one table's chains in key order plus the removal
// sequence that writers use to validate committed-state probes. The
// sequence is bumped inside the critical section that removed chains,
// after the removals, once per critical section however many it removed:
// a check made under mu (Push's seed validation) sees either none of that
// batch's removals or the bump, and an unlocked load (the reader's
// capture before its page probe) that sees the bump comes after every
// removal it covers — one taken mid-batch reads the old value and fails
// its re-check, which is the safe direction.
type tableChains struct {
	mu         sync.Mutex
	index      chainIndex
	removalSeq atomic.Uint64
}

// horizon is what pruning may assume about readers: every commit at or
// below visible is stamped and durable, and no registered snapshot is
// below minActive (^0 when none is registered).
type horizon struct {
	visible, minActive wal.LSN
}

// bound is the highest commit LSN every active and future snapshot sees.
// It only rises: visible does, and a snapshot registers at visible.
func (h horizon) bound() wal.LSN {
	return min(h.visible, h.minActive)
}

// retireEntry queues a chain for retirement once the bound reaches the
// commit LSN that stamped it.
type retireEntry struct {
	c   *chain
	lsn wal.LSN
}

// retireBatch caps how many chains one hold of a table mutex retires, so
// a long reader's End (which may release every chain written since it
// began) stalls concurrent writers and readers for a bounded time.
const retireBatch = 256

// Store is the engine-wide version store for one epoch.
type Store struct {
	stats *trace.Stats
	// peakSeeded is set once the store has raised VersionChainPeak to 1,
	// so creating a chain need not read the shared gauge again.
	peakSeeded atomic.Bool

	mu         sync.Mutex
	visible    wal.LSN
	stampedMax wal.LSN
	tickets    map[wal.TxID]wal.LSN // open commits; 0 = LSN not yet assigned
	snaps      map[uint64]wal.LSN   // active snapshot registry
	retireQ    []retireEntry        // stamped chains awaiting the bound, ascending lsn

	tmu    sync.RWMutex
	tables map[uint64]*tableChains
}

// NewStore creates an empty store reporting into stats.
func NewStore(stats *trace.Stats) *Store {
	return &Store{
		stats:   trace.OrNew(stats),
		tickets: make(map[wal.TxID]wal.LSN),
		snaps:   make(map[uint64]wal.LSN),
		tables:  make(map[uint64]*tableChains),
	}
}

func (st *Store) table(id uint64) *tableChains {
	st.tmu.RLock()
	tc := st.tables[id]
	st.tmu.RUnlock()
	if tc != nil {
		return tc
	}
	st.tmu.Lock()
	defer st.tmu.Unlock()
	if tc = st.tables[id]; tc == nil {
		tc = &tableChains{}
		st.tables[id] = tc
	}
	return tc
}

// Seq returns the table's chain-removal sequence number. A writer reads
// it before probing committed state for a chain seed; Push re-checks it
// under the table lock and asks for a fresh probe if removals intervened.
func (st *Store) Seq(tableID uint64) uint64 {
	return st.table(tableID).removalSeq.Load()
}

// StartAt initializes the visibility watermark of a fresh (empty) store
// to the log's current end. Everything committed before this epoch is
// page state with no chain — visible to every snapshot — so the epoch's
// first snapshot must order AFTER every pre-epoch commit LSN, not at 0.
func (st *Store) StartAt(lsn wal.LSN) {
	st.mu.Lock()
	if lsn > st.stampedMax {
		st.stampedMax = lsn
	}
	if lsn > st.visible {
		st.visible = lsn
	}
	st.mu.Unlock()
}

// snapIDs issues snapshot registration IDs. Process-global rather than
// per-store so that an End delivered to a successor epoch's store (the
// reader outlived a restart that swapped stores) can never retire another
// reader's registration by ID collision — it is simply unknown there.
var snapIDs atomic.Uint64

// Begin captures a snapshot: the current visibility watermark, registered
// so pruning cannot fold commits the snapshot still needs.
func (st *Store) Begin() (s wal.LSN, id uint64) {
	id = snapIDs.Add(1)
	st.mu.Lock()
	s = st.visible
	st.snaps[id] = s
	st.mu.Unlock()
	st.stats.SnapshotBegins.Add(1)
	return s, id
}

// End retires a snapshot registration and the chains only it pinned.
func (st *Store) End(id uint64) {
	st.mu.Lock()
	delete(st.snaps, id)
	h := st.horizonLocked()
	ready := st.popReadyLocked(h.bound())
	st.mu.Unlock()
	st.retire(ready, h)
}

// horizonLocked reads the current pruning horizon. Caller holds st.mu.
func (st *Store) horizonLocked() horizon {
	h := horizon{visible: st.visible, minActive: ^wal.LSN(0)}
	for _, s := range st.snaps {
		h.minActive = min(h.minActive, s)
	}
	return h
}

// enqueueLocked queues refs for retirement at lsn. Commits finish nearly
// in LSN order, so the slot is found from the tail: a step per entry of a
// higher commit that finished first. Caller holds st.mu.
func (st *Store) enqueueLocked(refs []*chain, lsn wal.LSN) {
	at := len(st.retireQ)
	for at > 0 && st.retireQ[at-1].lsn > lsn {
		at--
	}
	for _, c := range refs {
		st.retireQ = slices.Insert(st.retireQ, at, retireEntry{c: c, lsn: lsn})
	}
}

// popReadyLocked takes every queued chain whose commit the bound has
// reached. Caller holds st.mu and retires the chains after releasing it.
func (st *Store) popReadyLocked(bound wal.LSN) []*chain {
	n := 0
	for n < len(st.retireQ) && st.retireQ[n].lsn <= bound {
		n++
	}
	if n == 0 {
		return nil
	}
	ready := make([]*chain, n)
	for i := range ready {
		ready[i] = st.retireQ[i].c
	}
	clear(st.retireQ[:n]) // the dead prefix must not pin retired chains
	st.retireQ = st.retireQ[n:]
	return ready
}

// Chains lists the chains that hold a transaction's in-flight versions,
// each once. The transaction keeps it: PushTo adds to it, and StampCommit,
// AbortCommit, DropTx and DropTxSince read and shrink it. Like the
// transaction, it is driven by one goroutine at a time and has no mutex.
type Chains []*chain

// PushTo records a version for (table, key) on behalf of writer tx and
// adds the chain to touched, tx's chain list, unless tx already holds an
// in-flight version there. seed supplies the committed state of the key
// and is consulted only when a new chain must be materialized; it may be
// retried if chain removals race the probe, and its error aborts the push
// (the caller's operation fails before any page mutation, so nothing is
// torn).
func (st *Store) PushTo(tableID uint64, key []byte, present bool, value []byte, tx wal.TxID, pushLSN wal.LSN, touched *Chains, seed func() (bool, []byte, uint64, error)) error {
	tc := st.table(tableID)
	k := string(key)
	v := version{present: present, txID: tx, commitLSN: 0, pushLSN: pushLSN}
	if value != nil {
		v.value = append([]byte(nil), value...)
	}
	for {
		tc.mu.Lock()
		if c := tc.index.get(k); c != nil {
			if !c.holds(tx) {
				*touched = append(*touched, c)
			}
			c.versions = append(c.versions, v)
			if n := len(c.versions); n > 1 {
				st.stats.MaxGauge(&st.stats.VersionChainPeak, uint64(n))
			}
			tc.mu.Unlock()
			st.stats.VersionsPushed.Add(1)
			return nil
		}
		tc.mu.Unlock()
		// No chain: probe committed state outside the table lock, then
		// create, validating against the removal sequence (a removal
		// between probe and create could have changed committed state).
		basePresent, baseValue, seq, err := seed()
		if err != nil {
			return err
		}
		tc.mu.Lock()
		var path indexPath
		if at, _ := tc.index.seek(k, &path); at != nil && at.key == k {
			tc.mu.Unlock()
			continue // a racing writer created it; append instead
		}
		if tc.removalSeq.Load() != seq {
			tc.mu.Unlock()
			continue // stale probe; redo it
		}
		c := &chain{key: k, tc: tc, basePresent: basePresent, versions: []version{v}}
		if baseValue != nil {
			c.baseValue = append([]byte(nil), baseValue...)
		}
		tc.index.insertAfter(&path, c)
		*touched = append(*touched, c)
		tc.mu.Unlock()
		if !st.peakSeeded.Load() && st.peakSeeded.CompareAndSwap(false, true) {
			st.stats.MaxGauge(&st.stats.VersionChainPeak, 1)
		}
		st.stats.ChainsCreated.Add(1)
		st.stats.VersionsPushed.Add(1)
		return nil
	}
}

// holds reports whether tx has an in-flight version on c, that is whether
// c is on tx's chain list already. In-flight versions follow every stamped
// one (stamp keeps them last), so the walk back from the tail stops at the
// first stamped version. Caller holds the table lock.
func (c *chain) holds(tx wal.TxID) bool {
	for i := len(c.versions) - 1; i >= 0 && c.versions[i].commitLSN == 0; i-- {
		if c.versions[i].txID == tx {
			return true
		}
	}
	return false
}

// EnterCommit opens the writer's commit ticket before its commit record
// is appended, freezing the visibility watermark below the upcoming LSN.
func (st *Store) EnterCommit(tx wal.TxID) {
	st.mu.Lock()
	st.tickets[tx] = 0
	st.mu.Unlock()
}

// CommitAt attaches the commit record's LSN to the ticket (pre-force).
func (st *Store) CommitAt(tx wal.TxID, lsn wal.LSN) {
	st.mu.Lock()
	if _, ok := st.tickets[tx]; ok {
		st.tickets[tx] = lsn
	}
	st.mu.Unlock()
}

// Push is PushTo for a writer that keeps no chain list; FinishCommit
// commits it.
func (st *Store) Push(tableID uint64, key []byte, present bool, value []byte, tx wal.TxID, pushLSN wal.LSN, seed func() (bool, []byte, uint64, error)) error {
	var touched Chains
	return st.PushTo(tableID, key, present, value, tx, pushLSN, &touched, seed)
}

// FinishCommit is StampCommit for a writer that keeps no chain list: it
// finds tx's chains by walking every chain of the store.
func (st *Store) FinishCommit(tx wal.TxID, lsn wal.LSN) {
	var touched Chains
	st.tmu.RLock()
	for _, tc := range st.tables {
		tc.mu.Lock()
		for c := tc.index.head[0]; c != nil; c = c.next[0] {
			if c.holds(tx) {
				touched = append(touched, c)
			}
		}
		tc.mu.Unlock()
	}
	st.tmu.RUnlock()
	st.StampCommit(tx, lsn, &touched)
}

// StampCommit runs after the commit record is durable: stamp every
// version the transaction pushed on the chains of touched, empty the list,
// retire the ticket, advance the watermark, and retire what the new bound
// allows — the touched chains if it already covers this commit (else they
// queue for it), and any queued chains it has now reached.
func (st *Store) StampCommit(tx wal.TxID, lsn wal.LSN, touched *Chains) {
	refs := *touched
	*touched = nil
	for _, c := range refs {
		c.tc.mu.Lock()
		c.stamp(tx, lsn)
		c.tc.mu.Unlock()
	}
	st.mu.Lock()
	delete(st.tickets, tx)
	if lsn > st.stampedMax {
		st.stampedMax = lsn
	}
	st.advanceLocked()
	h := st.horizonLocked()
	if lsn > h.bound() {
		st.enqueueLocked(refs, lsn)
	}
	ready := st.popReadyLocked(h.bound())
	st.mu.Unlock()
	// The touched chains are visited either way: below the bound they fold
	// and drop here, above it only the version cap can fold them.
	st.retire(refs, h)
	st.retire(ready, h)
}

// stamp gives tx's in-flight versions on c their commit LSN and keeps the
// chain in commit order. Caller holds the table lock.
//
// Push order can differ from commit order: an inserter pushes before it
// holds any lock on the key, so a racing deleter of the prior incarnation
// may commit first. In-flight versions stay at the tail (they must commit
// after everything already stamped — their writer acquired the key X lock
// last), and the stable sort keeps a single transaction's same-LSN pushes
// in push order so its final state wins. Nearly every chain holds one or
// two versions already in order, so the sort runs only when the stamping
// pass saw a version land before its predecessor.
func (c *chain) stamp(tx wal.TxID, lsn wal.LSN) {
	inOrder := true
	for i := range c.versions {
		v := &c.versions[i]
		if v.txID == tx && v.commitLSN == 0 {
			v.commitLSN = lsn
		}
		if i > 0 && commitsBefore(v.commitLSN, c.versions[i-1].commitLSN) {
			inOrder = false
		}
	}
	if !inOrder {
		sort.SliceStable(c.versions, func(i, j int) bool {
			return commitsBefore(c.versions[i].commitLSN, c.versions[j].commitLSN)
		})
	}
}

// commitsBefore orders two versions' commit LSNs, 0 (in flight) last.
func commitsBefore(a, b wal.LSN) bool {
	return a != 0 && (b == 0 || a < b)
}

// AbortCommit retires the ticket of a commit whose log force failed (the
// record died with its epoch) and drops the transaction's versions.
func (st *Store) AbortCommit(tx wal.TxID, touched *Chains) {
	st.mu.Lock()
	delete(st.tickets, tx)
	st.advanceLocked()
	h := st.horizonLocked()
	ready := st.popReadyLocked(h.bound())
	st.mu.Unlock()
	st.retire(ready, h)
	st.DropTx(tx, touched)
}

// advanceLocked recomputes the visibility watermark. Caller holds st.mu.
func (st *Store) advanceLocked() {
	cand := st.stampedMax
	for _, lsn := range st.tickets {
		if lsn == 0 {
			return // an appended-but-unplaced commit: no advance at all
		}
		if lsn-1 < cand {
			cand = lsn - 1
		}
	}
	if cand > st.visible {
		st.visible = cand
	}
}

// retire folds each chain's history up to the horizon and drops the
// chains that leaves empty. Runs of chains of one table share a hold of
// its mutex (at most retireBatch of them) and one removal-sequence bump.
// Called without st.mu. h may be older than the bound, which retires less,
// but it must be read after the caller's own change to the chains: a chain
// the caller drains is retired by nobody else once a racing End has popped
// its queue entries, so a bound from before that End would strand it.
func (st *Store) retire(chains []*chain, h horizon) {
	for len(chains) > 0 {
		tc := chains[0].tc
		n, removed := 0, uint64(0)
		tc.mu.Lock()
		for ; n < len(chains) && n < retireBatch && chains[n].tc == tc; n++ {
			chains[n].fold(h)
			if tc.removeIfRetired(chains[n], h) {
				removed++
			}
		}
		if removed > 0 {
			tc.removalSeq.Add(1)
		}
		tc.mu.Unlock()
		chains = chains[n:]
		if removed > 0 {
			st.stats.ChainsRemoved.Add(removed)
		}
	}
}

// fold moves fully-visible history into the base. Past the version cap it
// folds even a commit some live reader cannot see yet. Caller holds the
// table lock.
func (c *chain) fold(h horizon) {
	for len(c.versions) > 0 {
		v := &c.versions[0]
		if v.commitLSN == 0 || v.commitLSN > h.visible {
			break
		}
		forced := len(c.versions) > maxChainVersions
		if v.commitLSN > h.minActive && !forced {
			break
		}
		if v.commitLSN > h.minActive {
			// Folding past a live reader: raise the floor so that
			// reader gets ErrSnapshotTooOld instead of a wrong base.
			c.floor = v.commitLSN
		}
		c.basePresent, c.baseValue = v.present, v.value
		c.versions = c.versions[1:]
	}
}

// removeIfRetired drops a drained chain per the removal invariant: no
// in-flight or stamped versions remain and everything folded into the
// base is visible to every active and future snapshot. It reports whether
// it removed c; retire, which holds tc.mu, then owes the removal sequence
// a bump before unlocking. A chain already gone (a queued entry outlived
// it) or replaced by a same-key successor is left alone.
func (tc *tableChains) removeIfRetired(c *chain, h horizon) bool {
	if len(c.versions) != 0 || c.floor > h.bound() {
		return false
	}
	return tc.index.remove(c)
}

// DropTx discards every in-flight version tx pushed on the chains of
// touched (rollback, restart loser undo) and empties the list. Chains left
// empty are retired.
func (st *Store) DropTx(tx wal.TxID, touched *Chains) {
	st.DropTxSince(tx, 0, touched)
}

// DropTxSince discards tx's in-flight versions pushed at or after the
// savepoint LSN (partial rollback); earlier versions survive, and touched
// keeps the chains that still hold one. The bound is inclusive because an
// operation may push before it writes its first log record (a delete
// pushes its tombstone before the ghosting update), leaving pushLSN equal
// to the savepoint taken at operation entry; the converse confusion cannot
// arise because every completed operation logs at least one record after
// its push, so a pre-savepoint push always has pushLSN strictly below the
// savepoint.
func (st *Store) DropTxSince(tx wal.TxID, save wal.LSN, touched *Chains) {
	refs := *touched
	var kept Chains
	for _, c := range refs {
		remains := false
		c.tc.mu.Lock()
		out := c.versions[:0]
		for _, v := range c.versions {
			if v.txID == tx && v.commitLSN == 0 && v.pushLSN >= save {
				continue
			}
			out = append(out, v)
			if v.txID == tx && v.commitLSN == 0 {
				remains = true
			}
		}
		c.versions = out
		c.tc.mu.Unlock()
		if remains {
			kept = append(kept, c)
		}
	}
	// The horizon is read after the drop, as retire requires: an End between
	// an earlier read and the drop pops the chains' queue entries while tx's
	// versions still hold them.
	*touched = kept
	st.mu.Lock()
	h := st.horizonLocked()
	st.mu.Unlock()
	st.retire(refs, h)
}

// ReadResult is a snapshot resolution for one key.
type ReadResult struct {
	// Chain reports the key had a version chain; Present/Value are then
	// authoritative. Without a chain the caller probes the page image and
	// may trust it (see the removal invariant).
	Chain   bool
	Present bool
	Value   []byte
}

// Read resolves key under snapshot s.
func (st *Store) Read(tableID uint64, key []byte, s wal.LSN) (ReadResult, error) {
	tc := st.table(tableID)
	tc.mu.Lock()
	c := tc.index.get(string(key))
	if c == nil {
		tc.mu.Unlock()
		return ReadResult{}, nil
	}
	present, value, err := c.visibleAt(s)
	tc.mu.Unlock()
	if err != nil {
		st.stats.SnapshotTooOld.Add(1)
		return ReadResult{}, err
	}
	st.stats.SnapshotChainHits.Add(1)
	if value != nil {
		value = append([]byte(nil), value...)
	}
	return ReadResult{Chain: true, Present: present, Value: value}, nil
}

// Row is a snapshot-resolved chain row inside a scan window.
type Row struct {
	Key     string
	Present bool
	Value   []byte
}

// RowsBetween resolves every chained key in the (lo, hi) window — bound
// inclusivity per the flags, hi ignored when hiUnbounded — under
// snapshot s, in key order. Scans merge these rows with the page
// cursor: a key deleted after s has no page entry but its chain still
// answers with the pre-delete image. The cost, and the hold of the table
// lock, is a seek in the ordered chain index plus the chains inside the
// window, however many chains the table holds outside it; ChainsScanned
// counts every chain whose key was looked at.
func (st *Store) RowsBetween(tableID uint64, lo string, loIncl bool, hi string, hiIncl, hiUnbounded bool, s wal.LSN) ([]Row, error) {
	tc := st.table(tableID)
	var rows []Row
	tc.mu.Lock()
	c, examined := tc.index.seek(lo, nil)
	if c != nil && c.key == lo && !loIncl {
		c = c.next[0]
	}
	for ; c != nil; c = c.next[0] {
		examined++
		if !hiUnbounded && (c.key > hi || (c.key == hi && !hiIncl)) {
			break
		}
		present, value, err := c.visibleAt(s)
		if err != nil {
			tc.mu.Unlock()
			st.stats.SnapshotTooOld.Add(1)
			return nil, err
		}
		if value != nil {
			value = append([]byte(nil), value...)
		}
		rows = append(rows, Row{Key: c.key, Present: present, Value: value})
	}
	tc.mu.Unlock()
	st.stats.ChainsScanned.Add(examined)
	return rows, nil
}

// Visible exposes the current watermark (tests, diagnostics).
func (st *Store) Visible() wal.LSN {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.visible
}

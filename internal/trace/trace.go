// Package trace provides the instrumentation substrate for ariesim.
//
// ARIES/IM's evaluation is expressed in counts: locks acquired (by name
// space, mode, and duration), latch acquisitions and waits, pages fixed,
// log records and bytes written, synchronous I/Os, and tree traversals
// performed during redo/undo. Every component of the engine reports into a
// Stats sink so that the benchmark harness can regenerate the paper's
// Figure 2 table and quantify the qualitative claims (fewer locks than
// ARIES/KVL and System R, page-oriented redo, readers unblocked by SMOs).
//
// All counters are updateable concurrently; Snapshot produces a consistent-
// enough copy for reporting (individual counters are atomic; cross-counter
// skew is irrelevant for the quantities measured).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Dimension bounds for the lock-call table. These mirror the enums in the
// lock package; trace stays dependency-free so every layer can import it.
const (
	MaxSpaces    = 12
	MaxModes     = 8
	MaxDurations = 4
)

// Stats is a sink of engine counters. The zero value is ready to use.
// A nil *Stats is also valid: every method is a no-op, so hot paths can be
// instrumented unconditionally.
type Stats struct {
	// Lock manager.
	lockCalls       [MaxSpaces][MaxModes][MaxDurations]atomic.Uint64
	LockWaits       atomic.Uint64 // requests that could not be granted immediately
	Deadlocks       atomic.Uint64 // waits-for cycles detected
	DeadlockVictims atomic.Uint64 // waiters aborted to break a cycle (requester or other)
	VictimsOther    atomic.Uint64 // victims that were NOT the requester (cost-based choice)
	LockTimeouts    atomic.Uint64 // waits abandoned at the lock-wait timeout
	LockWaitNanos   atomic.Uint64 // time queued requests waited, enqueue to grant or abort
	LockWaitsParked atomic.Uint64 // waits that outlived the spin and parked

	// Transaction retry layer (db.RunTxn).
	TxnRetries           atomic.Uint64 // transaction bodies re-executed after rollback
	TxnDeadlockRetries   atomic.Uint64 // ...because the txn was a deadlock victim
	TxnTimeoutRetries    atomic.Uint64 // ...because a lock wait timed out
	TxnCrashWaits        atomic.Uint64 // RunTxn attempts parked waiting for Restart
	TxnRetrySuccesses    atomic.Uint64 // transactions that committed after >=1 retry
	TxnRecoveringRetries atomic.Uint64 // immediate retries on ErrRecovering (engine up, op degraded)

	// Latches.
	LatchAcquires     atomic.Uint64
	LatchWaits        atomic.Uint64 // unconditional acquisitions that blocked
	LatchTryFailures  atomic.Uint64 // conditional acquisitions denied
	TreeLatchAcquires atomic.Uint64
	TreeLatchWaits    atomic.Uint64

	// Buffer pool.
	PageFixes      atomic.Uint64
	PageMisses     atomic.Uint64 // fixes that required a disk read
	PageWrites     atomic.Uint64 // dirty pages written to disk (steal, cleaner, or flush)
	PageEvicted    atomic.Uint64
	EvictionsDirty atomic.Uint64 // foreground evictions that had to write back a dirty victim
	EvictionStalls atomic.Uint64 // Fix retries because every candidate frame was pinned
	FixParks       atomic.Uint64 // fixers parked on another fixer's in-flight read
	CleanerPasses  atomic.Uint64 // background cleaner passes completed
	CleanerWrites  atomic.Uint64 // dirty frames flushed by the cleaner

	// Log.
	LogRecords         atomic.Uint64
	LogBytes           atomic.Uint64
	LogForces          atomic.Uint64 // physical flushes that advanced the stable LSN
	ForceWaiters       atomic.Uint64 // Force callers that blocked behind an in-flight flush
	GroupCommits       atomic.Uint64 // Force callers hardened by a flush they did not perform
	AppendReservations atomic.Uint64 // lock-free LSN range claims (one per append)
	WatermarkStalls    atomic.Uint64 // forces that waited for the contiguity watermark to cover their LSN

	// Fault handling (injected I/O errors and media corruption).
	IORetries           atomic.Uint64 // transient I/O errors retried by the buffer pool
	CorruptPages        atomic.Uint64 // checksum/permanent-error page reads detected
	MediaRecoveries     atomic.Uint64 // pages rebuilt via media recovery
	TornTailTruncations atomic.Uint64 // crash sweeps that cut a bad-CRC log tail

	// Index manager.
	Traversals       atomic.Uint64 // root-to-leaf tree traversals
	LeafReposition   atomic.Uint64 // fetch-next repositionings after LSN change
	SMOs             atomic.Uint64 // page splits + page deletions
	PageSplits       atomic.Uint64
	PageDeletes      atomic.Uint64
	UndoPageOriented atomic.Uint64 // undos applied without a traversal
	UndoLogical      atomic.Uint64 // undos that retraversed the tree
	RedoApplied      atomic.Uint64 // log records redone at restart

	// Online restart.
	OnlineRestarts               atomic.Uint64 // restarts that opened after analysis (online mode)
	LocksReinstated              atomic.Uint64 // loser locks re-granted from the log at restart
	PagesRedoneOnDemand          atomic.Uint64 // DPT pages recovered at fix time by a foreground caller
	PagesRedoneByDrain           atomic.Uint64 // DPT pages recovered by the background drain workers
	CheckpointsSkippedRecovering atomic.Uint64 // checkpoints refused while online recovery was pending

	// Replication (internal/repl hot standby).
	SegmentsShipped  atomic.Uint64 // segments the shipper framed and sent
	SegmentsResent   atomic.Uint64 // segments re-shipped after NAK or ack stall
	SegmentsApplied  atomic.Uint64 // segments the standby appended and replayed
	SegmentsRejected atomic.Uint64 // segments the standby discarded (corrupt, stale epoch, duplicate, gapped, after a redo failure)
	ReplNaks         atomic.Uint64 // gap re-requests sent by the standby

	AmbiguityRestarts atomic.Uint64 // Fig 4 "unwind recursion" events
	SMBitWaits        atomic.Uint64 // operations delayed by SM_Bit
	DeleteBitPOSCs    atomic.Uint64 // points of structural consistency forced by Delete_Bit

	// MVCC snapshot reads (internal/mvcc version store + db read-only mode).
	SnapshotBegins    atomic.Uint64 // read-only transactions begun in snapshot mode
	SnapshotReads     atomic.Uint64 // Get/Scan row reads resolved through a snapshot
	SnapshotChainHits atomic.Uint64 // snapshot reads answered by a version chain (not the page)
	SnapshotTooOld    atomic.Uint64 // reads aborted because the needed version was pruned
	VersionsPushed    atomic.Uint64 // record versions appended to chains by writers
	ChainsCreated     atomic.Uint64 // version chains materialized
	ChainsRemoved     atomic.Uint64 // version chains fully retired
	ChainsScanned     atomic.Uint64 // chains whose key a scan-window lookup (RowsBetween) examined
	VersionChainPeak  atomic.Uint64 // max versions ever held by one chain (gauge, not a counter)
	ReadOnlyLockCalls atomic.Uint64 // lock-manager requests issued by snapshot transactions (must stay 0)
}

// MaxGauge raises a gauge counter to v if v exceeds its current value
// (lock-free CAS loop; nil-safe like every Stats method).
func (s *Stats) MaxGauge(c *atomic.Uint64, v uint64) {
	if s == nil || c == nil {
		return
	}
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// mu guards spaceNames / modeNames / durationNames registration.
var (
	namesMu       sync.RWMutex
	spaceNames    = map[int]string{}
	modeNames     = map[int]string{}
	durationNames = map[int]string{}
)

// RegisterSpaceName associates a human-readable label with a lock name
// space index for table rendering.
func RegisterSpaceName(space int, name string) {
	namesMu.Lock()
	defer namesMu.Unlock()
	spaceNames[space] = name
}

// RegisterModeName associates a label with a lock mode index.
func RegisterModeName(mode int, name string) {
	namesMu.Lock()
	defer namesMu.Unlock()
	modeNames[mode] = name
}

// RegisterDurationName associates a label with a lock duration index.
func RegisterDurationName(d int, name string) {
	namesMu.Lock()
	defer namesMu.Unlock()
	durationNames[d] = name
}

func spaceName(i int) string    { return lookupName(spaceNames, i, "space") }
func modeName(i int) string     { return lookupName(modeNames, i, "mode") }
func durationName(i int) string { return lookupName(durationNames, i, "dur") }

func lookupName(m map[int]string, i int, kind string) string {
	namesMu.RLock()
	defer namesMu.RUnlock()
	if s, ok := m[i]; ok {
		return s
	}
	return fmt.Sprintf("%s%d", kind, i)
}

// CountLock records one lock request in the (space, mode, duration) cell.
// Out-of-range indices are clamped into the table so an unregistered
// dimension can never panic a production path.
func (s *Stats) CountLock(space, mode, duration int) {
	if s == nil {
		return
	}
	s.lockCalls[clamp(space, MaxSpaces)][clamp(mode, MaxModes)][clamp(duration, MaxDurations)].Add(1)
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// LockCalls returns the count for one cell.
func (s *Stats) LockCalls(space, mode, duration int) uint64 {
	if s == nil {
		return 0
	}
	return s.lockCalls[clamp(space, MaxSpaces)][clamp(mode, MaxModes)][clamp(duration, MaxDurations)].Load()
}

// TotalLockCalls sums the lock table.
func (s *Stats) TotalLockCalls() uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for i := range s.lockCalls {
		for j := range s.lockCalls[i] {
			for k := range s.lockCalls[i][j] {
				t += s.lockCalls[i][j][k].Load()
			}
		}
	}
	return t
}

// Add is a nil-safe increment helper for the scalar counters.
func Add(c *atomic.Uint64, n uint64) {
	if c != nil {
		c.Add(n)
	}
}

// Snapshot is a plain-value copy of all counters, suitable for diffing
// around a measured region.
type Snapshot struct {
	LockCalls [MaxSpaces][MaxModes][MaxDurations]uint64

	LockWaits, Deadlocks                                      uint64
	DeadlockVictims, VictimsOther, LockTimeouts               uint64
	LockWaitNanos, LockWaitsParked                            uint64
	TxnRetries, TxnDeadlockRetries, TxnTimeoutRetries         uint64
	TxnCrashWaits, TxnRetrySuccesses                          uint64
	TxnRecoveringRetries                                      uint64
	LatchAcquires, LatchWaits, LatchTryFailures               uint64
	TreeLatchAcquires, TreeLatchWaits                         uint64
	PageFixes, PageMisses, PageWrites, PageEvicted            uint64
	EvictionsDirty, EvictionStalls, FixParks                  uint64
	CleanerPasses, CleanerWrites                              uint64
	LogRecords, LogBytes, LogForces                           uint64
	ForceWaiters, GroupCommits                                uint64
	AppendReservations, WatermarkStalls                       uint64
	IORetries, CorruptPages                                   uint64
	MediaRecoveries, TornTailTruncations                      uint64
	Traversals, LeafReposition, SMOs, PageSplits, PageDeletes uint64
	UndoPageOriented, UndoLogical, RedoApplied                uint64
	OnlineRestarts, LocksReinstated                           uint64
	PagesRedoneOnDemand, PagesRedoneByDrain                   uint64
	CheckpointsSkippedRecovering                              uint64
	SegmentsShipped, SegmentsResent, SegmentsApplied          uint64
	SegmentsRejected, ReplNaks                                uint64
	AmbiguityRestarts, SMBitWaits, DeleteBitPOSCs             uint64
	SnapshotBegins, SnapshotReads, SnapshotChainHits          uint64
	SnapshotTooOld, VersionsPushed                            uint64
	ChainsCreated, ChainsRemoved, ChainsScanned               uint64
	VersionChainPeak                                          uint64
	ReadOnlyLockCalls                                         uint64
}

// counter ties one live scalar counter to its field in a Snapshot. A gauge is
// a high-water mark, not a count: subtracting two readings of it is
// meaningless, so a Diff carries the "after" reading.
type counter struct {
	live  *atomic.Uint64
	snap  *uint64
	gauge bool
}

// counters is the one list of the scalar counters, as pairs of (field of s,
// field of n), in Stats' order. Snap and Diff walk it; a counter added to
// Stats and Snapshot is added here, and TestSnapshotDiff fails until it is.
func counters(s *Stats, n *Snapshot) []counter {
	return []counter{
		{&s.LockWaits, &n.LockWaits, false},
		{&s.Deadlocks, &n.Deadlocks, false},
		{&s.DeadlockVictims, &n.DeadlockVictims, false},
		{&s.VictimsOther, &n.VictimsOther, false},
		{&s.LockTimeouts, &n.LockTimeouts, false},
		{&s.LockWaitNanos, &n.LockWaitNanos, false},
		{&s.LockWaitsParked, &n.LockWaitsParked, false},
		{&s.TxnRetries, &n.TxnRetries, false},
		{&s.TxnDeadlockRetries, &n.TxnDeadlockRetries, false},
		{&s.TxnTimeoutRetries, &n.TxnTimeoutRetries, false},
		{&s.TxnCrashWaits, &n.TxnCrashWaits, false},
		{&s.TxnRetrySuccesses, &n.TxnRetrySuccesses, false},
		{&s.TxnRecoveringRetries, &n.TxnRecoveringRetries, false},
		{&s.LatchAcquires, &n.LatchAcquires, false},
		{&s.LatchWaits, &n.LatchWaits, false},
		{&s.LatchTryFailures, &n.LatchTryFailures, false},
		{&s.TreeLatchAcquires, &n.TreeLatchAcquires, false},
		{&s.TreeLatchWaits, &n.TreeLatchWaits, false},
		{&s.PageFixes, &n.PageFixes, false},
		{&s.PageMisses, &n.PageMisses, false},
		{&s.PageWrites, &n.PageWrites, false},
		{&s.PageEvicted, &n.PageEvicted, false},
		{&s.EvictionsDirty, &n.EvictionsDirty, false},
		{&s.EvictionStalls, &n.EvictionStalls, false},
		{&s.FixParks, &n.FixParks, false},
		{&s.CleanerPasses, &n.CleanerPasses, false},
		{&s.CleanerWrites, &n.CleanerWrites, false},
		{&s.LogRecords, &n.LogRecords, false},
		{&s.LogBytes, &n.LogBytes, false},
		{&s.LogForces, &n.LogForces, false},
		{&s.ForceWaiters, &n.ForceWaiters, false},
		{&s.GroupCommits, &n.GroupCommits, false},
		{&s.AppendReservations, &n.AppendReservations, false},
		{&s.WatermarkStalls, &n.WatermarkStalls, false},
		{&s.IORetries, &n.IORetries, false},
		{&s.CorruptPages, &n.CorruptPages, false},
		{&s.MediaRecoveries, &n.MediaRecoveries, false},
		{&s.TornTailTruncations, &n.TornTailTruncations, false},
		{&s.Traversals, &n.Traversals, false},
		{&s.LeafReposition, &n.LeafReposition, false},
		{&s.SMOs, &n.SMOs, false},
		{&s.PageSplits, &n.PageSplits, false},
		{&s.PageDeletes, &n.PageDeletes, false},
		{&s.UndoPageOriented, &n.UndoPageOriented, false},
		{&s.UndoLogical, &n.UndoLogical, false},
		{&s.RedoApplied, &n.RedoApplied, false},
		{&s.OnlineRestarts, &n.OnlineRestarts, false},
		{&s.LocksReinstated, &n.LocksReinstated, false},
		{&s.PagesRedoneOnDemand, &n.PagesRedoneOnDemand, false},
		{&s.PagesRedoneByDrain, &n.PagesRedoneByDrain, false},
		{&s.CheckpointsSkippedRecovering, &n.CheckpointsSkippedRecovering, false},
		{&s.SegmentsShipped, &n.SegmentsShipped, false},
		{&s.SegmentsResent, &n.SegmentsResent, false},
		{&s.SegmentsApplied, &n.SegmentsApplied, false},
		{&s.SegmentsRejected, &n.SegmentsRejected, false},
		{&s.ReplNaks, &n.ReplNaks, false},
		{&s.AmbiguityRestarts, &n.AmbiguityRestarts, false},
		{&s.SMBitWaits, &n.SMBitWaits, false},
		{&s.DeleteBitPOSCs, &n.DeleteBitPOSCs, false},
		{&s.SnapshotBegins, &n.SnapshotBegins, false},
		{&s.SnapshotReads, &n.SnapshotReads, false},
		{&s.SnapshotChainHits, &n.SnapshotChainHits, false},
		{&s.SnapshotTooOld, &n.SnapshotTooOld, false},
		{&s.VersionsPushed, &n.VersionsPushed, false},
		{&s.ChainsCreated, &n.ChainsCreated, false},
		{&s.ChainsRemoved, &n.ChainsRemoved, false},
		{&s.ChainsScanned, &n.ChainsScanned, false},
		{&s.VersionChainPeak, &n.VersionChainPeak, true}, // max versions ever held by one chain
		{&s.ReadOnlyLockCalls, &n.ReadOnlyLockCalls, false},
	}
}

// Snap copies the current counter values.
func (s *Stats) Snap() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for i := range s.lockCalls {
		for j := range s.lockCalls[i] {
			for k := range s.lockCalls[i][j] {
				out.LockCalls[i][j][k] = s.lockCalls[i][j][k].Load()
			}
		}
	}
	for _, c := range counters(s, &out) {
		*c.snap = c.live.Load()
	}
	return out
}

// idle is a Stats nobody counts into: Diff pairs snapshots with it to walk
// their fields in the list's order.
var idle Stats

// Diff returns after - before, cell-wise (a gauge: after's reading).
func Diff(before, after Snapshot) Snapshot {
	d := after
	for i := range d.LockCalls {
		for j := range d.LockCalls[i] {
			for k := range d.LockCalls[i][j] {
				d.LockCalls[i][j][k] -= before.LockCalls[i][j][k]
			}
		}
	}
	was := counters(&idle, &before)
	for i, c := range counters(&idle, &d) {
		if !c.gauge {
			*c.snap -= *was[i].snap
		}
	}
	return d
}

// TotalLocks sums every lock-call cell in the snapshot.
func (sn Snapshot) TotalLocks() uint64 {
	var t uint64
	for i := range sn.LockCalls {
		for j := range sn.LockCalls[i] {
			for k := range sn.LockCalls[i][j] {
				t += sn.LockCalls[i][j][k]
			}
		}
	}
	return t
}

// LockCell describes one nonzero entry of the lock table in a snapshot.
type LockCell struct {
	Space, Mode, Duration string
	Count                 uint64
}

// NonzeroLockCells returns the nonzero lock-table entries with registered
// labels, ordered deterministically (by space, mode, duration index).
func (sn Snapshot) NonzeroLockCells() []LockCell {
	var cells []LockCell
	for i := range sn.LockCalls {
		for j := range sn.LockCalls[i] {
			for k := range sn.LockCalls[i][j] {
				if n := sn.LockCalls[i][j][k]; n > 0 {
					cells = append(cells, LockCell{
						Space:    spaceName(i),
						Mode:     modeName(j),
						Duration: durationName(k),
						Count:    n,
					})
				}
			}
		}
	}
	return cells
}

// FormatLockTable renders the nonzero lock-table entries as an aligned
// text table, the building block of the Figure 2 reproduction.
func (sn Snapshot) FormatLockTable() string {
	cells := sn.NonzeroLockCells()
	if len(cells) == 0 {
		return "(no locks acquired)\n"
	}
	sort.SliceStable(cells, func(a, b int) bool {
		if cells[a].Space != cells[b].Space {
			return cells[a].Space < cells[b].Space
		}
		return cells[a].Mode < cells[b].Mode
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-5s %-8s %8s\n", "SPACE", "MODE", "DURATION", "COUNT")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-12s %-5s %-8s %8d\n", c.Space, c.Mode, c.Duration, c.Count)
	}
	return b.String()
}

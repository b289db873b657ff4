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
	lockCalls             [MaxSpaces][MaxModes][MaxDurations]atomic.Uint64
	LockWaits             atomic.Uint64 // requests that could not be granted immediately
	LockDenials           atomic.Uint64 // conditional requests denied
	Deadlocks             atomic.Uint64 // waits-for cycles detected
	DeadlockVictims       atomic.Uint64 // waiters aborted to break a cycle (requester or other)
	VictimsOther          atomic.Uint64 // victims that were NOT the requester (cost-based choice)
	LockTimeouts          atomic.Uint64 // waits abandoned at the lock-wait timeout
	SavepointLockReleases atomic.Uint64 // locks released early by partial rollback

	// Transaction retry layer (db.RunTxn).
	TxnRetries           atomic.Uint64 // transaction bodies re-executed after rollback
	TxnDeadlockRetries   atomic.Uint64 // ...because the txn was a deadlock victim
	TxnTimeoutRetries    atomic.Uint64 // ...because a lock wait timed out
	TxnCrashWaits        atomic.Uint64 // RunTxn attempts parked waiting for Restart
	TxnStepRetries       atomic.Uint64 // savepoint-scoped partial retries (RunTxnSteps)
	TxnRetrySuccesses    atomic.Uint64 // transactions that committed after >=1 retry
	TxnRecoveringRetries atomic.Uint64 // immediate retries on ErrRecovering (engine up, op degraded)

	// Latches.
	LatchAcquires     atomic.Uint64
	LatchWaits        atomic.Uint64 // unconditional acquisitions that blocked
	LatchTryFailures  atomic.Uint64 // conditional acquisitions denied
	TreeLatchAcquires atomic.Uint64
	TreeLatchWaits    atomic.Uint64

	// Buffer pool.
	PageFixes       atomic.Uint64
	PageMisses      atomic.Uint64 // fixes that required a disk read
	PageWrites      atomic.Uint64 // dirty pages written to disk (steal, cleaner, or flush)
	PageEvicted     atomic.Uint64
	EvictionsDirty  atomic.Uint64 // foreground evictions that had to write back a dirty victim
	EvictionStalls  atomic.Uint64 // Fix retries because every candidate frame was pinned
	FixParks        atomic.Uint64 // fixers parked on another fixer's in-flight read
	CleanerPasses   atomic.Uint64 // background cleaner passes completed
	CleanerWrites   atomic.Uint64 // dirty frames flushed by the cleaner
	PagesPrefetched atomic.Uint64 // pages pulled in ahead of demand (restart prefetcher)

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
	Traversals         atomic.Uint64 // root-to-leaf tree traversals
	LeafReposition     atomic.Uint64 // fetch-next repositionings after LSN change
	SMOs               atomic.Uint64 // page splits + page deletions
	PageSplits         atomic.Uint64
	PageDeletes        atomic.Uint64
	UndoPageOriented   atomic.Uint64 // undos applied without a traversal
	UndoLogical        atomic.Uint64 // undos that retraversed the tree
	RedoApplied        atomic.Uint64 // log records redone at restart
	RedoSkipped        atomic.Uint64 // redo candidates already on the page
	RedoRecordsScanned atomic.Uint64 // log records examined by restart redo (all workers)

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
	SegmentsRejected atomic.Uint64 // segments the standby discarded (corrupt, stale epoch, duplicate)
	ReplNaks         atomic.Uint64 // gap re-requests sent by the standby
	ReplReseeds      atomic.Uint64 // full-archive re-seeds after unrecoverable gaps
	ReplCommitsAcked atomic.Uint64 // commits confirmed standby-durable through the commit gate
	Promotions       atomic.Uint64 // standbys promoted to serving primary

	AmbiguityRestarts atomic.Uint64 // Fig 4 "unwind recursion" events
	SMBitWaits        atomic.Uint64 // operations delayed by SM_Bit
	DeleteBitPOSCs    atomic.Uint64 // points of structural consistency forced by Delete_Bit

	// MVCC snapshot reads (internal/mvcc version store + db read-only mode).
	SnapshotBegins    atomic.Uint64 // read-only transactions begun in snapshot mode
	SnapshotReads     atomic.Uint64 // Get/Scan row reads resolved through a snapshot
	SnapshotChainHits atomic.Uint64 // snapshot reads answered by a version chain (not the page)
	SnapshotTooOld    atomic.Uint64 // reads aborted because the needed version was pruned
	VersionsPushed    atomic.Uint64 // record versions appended to chains by writers
	VersionsPruned    atomic.Uint64 // obsolete versions discarded from chains
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

// Inc is a nil-safe helper used by components holding a possibly-nil Stats.
func (s *Stats) Inc(c *atomic.Uint64) {
	if s == nil || c == nil {
		return
	}
	c.Add(1)
}

// Snapshot is a plain-value copy of all counters, suitable for diffing
// around a measured region.
type Snapshot struct {
	LockCalls [MaxSpaces][MaxModes][MaxDurations]uint64

	LockWaits, LockDenials, Deadlocks                         uint64
	DeadlockVictims, VictimsOther, LockTimeouts               uint64
	SavepointLockReleases                                     uint64
	TxnRetries, TxnDeadlockRetries, TxnTimeoutRetries         uint64
	TxnCrashWaits, TxnStepRetries, TxnRetrySuccesses          uint64
	TxnRecoveringRetries                                      uint64
	LatchAcquires, LatchWaits, LatchTryFailures               uint64
	TreeLatchAcquires, TreeLatchWaits                         uint64
	PageFixes, PageMisses, PageWrites, PageEvicted            uint64
	EvictionsDirty, EvictionStalls, FixParks                  uint64
	CleanerPasses, CleanerWrites, PagesPrefetched             uint64
	LogRecords, LogBytes, LogForces                           uint64
	ForceWaiters, GroupCommits                                uint64
	AppendReservations, WatermarkStalls                       uint64
	IORetries, CorruptPages                                   uint64
	MediaRecoveries, TornTailTruncations                      uint64
	Traversals, LeafReposition, SMOs, PageSplits, PageDeletes uint64
	UndoPageOriented, UndoLogical, RedoApplied, RedoSkipped   uint64
	RedoRecordsScanned                                        uint64
	OnlineRestarts, LocksReinstated                           uint64
	PagesRedoneOnDemand, PagesRedoneByDrain                   uint64
	CheckpointsSkippedRecovering                              uint64
	SegmentsShipped, SegmentsResent, SegmentsApplied          uint64
	SegmentsRejected, ReplNaks, ReplReseeds                   uint64
	ReplCommitsAcked, Promotions                              uint64
	AmbiguityRestarts, SMBitWaits, DeleteBitPOSCs             uint64
	SnapshotBegins, SnapshotReads, SnapshotChainHits          uint64
	SnapshotTooOld, VersionsPushed, VersionsPruned            uint64
	ChainsCreated, ChainsRemoved, ChainsScanned               uint64
	VersionChainPeak                                          uint64
	ReadOnlyLockCalls                                         uint64
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
	out.LockWaits = s.LockWaits.Load()
	out.LockDenials = s.LockDenials.Load()
	out.Deadlocks = s.Deadlocks.Load()
	out.DeadlockVictims = s.DeadlockVictims.Load()
	out.VictimsOther = s.VictimsOther.Load()
	out.LockTimeouts = s.LockTimeouts.Load()
	out.SavepointLockReleases = s.SavepointLockReleases.Load()
	out.TxnRetries = s.TxnRetries.Load()
	out.TxnDeadlockRetries = s.TxnDeadlockRetries.Load()
	out.TxnTimeoutRetries = s.TxnTimeoutRetries.Load()
	out.TxnCrashWaits = s.TxnCrashWaits.Load()
	out.TxnStepRetries = s.TxnStepRetries.Load()
	out.TxnRetrySuccesses = s.TxnRetrySuccesses.Load()
	out.TxnRecoveringRetries = s.TxnRecoveringRetries.Load()
	out.LatchAcquires = s.LatchAcquires.Load()
	out.LatchWaits = s.LatchWaits.Load()
	out.LatchTryFailures = s.LatchTryFailures.Load()
	out.TreeLatchAcquires = s.TreeLatchAcquires.Load()
	out.TreeLatchWaits = s.TreeLatchWaits.Load()
	out.PageFixes = s.PageFixes.Load()
	out.PageMisses = s.PageMisses.Load()
	out.PageWrites = s.PageWrites.Load()
	out.PageEvicted = s.PageEvicted.Load()
	out.EvictionsDirty = s.EvictionsDirty.Load()
	out.EvictionStalls = s.EvictionStalls.Load()
	out.FixParks = s.FixParks.Load()
	out.CleanerPasses = s.CleanerPasses.Load()
	out.CleanerWrites = s.CleanerWrites.Load()
	out.PagesPrefetched = s.PagesPrefetched.Load()
	out.LogRecords = s.LogRecords.Load()
	out.LogBytes = s.LogBytes.Load()
	out.LogForces = s.LogForces.Load()
	out.ForceWaiters = s.ForceWaiters.Load()
	out.GroupCommits = s.GroupCommits.Load()
	out.AppendReservations = s.AppendReservations.Load()
	out.WatermarkStalls = s.WatermarkStalls.Load()
	out.IORetries = s.IORetries.Load()
	out.CorruptPages = s.CorruptPages.Load()
	out.MediaRecoveries = s.MediaRecoveries.Load()
	out.TornTailTruncations = s.TornTailTruncations.Load()
	out.Traversals = s.Traversals.Load()
	out.LeafReposition = s.LeafReposition.Load()
	out.SMOs = s.SMOs.Load()
	out.PageSplits = s.PageSplits.Load()
	out.PageDeletes = s.PageDeletes.Load()
	out.UndoPageOriented = s.UndoPageOriented.Load()
	out.UndoLogical = s.UndoLogical.Load()
	out.RedoApplied = s.RedoApplied.Load()
	out.RedoSkipped = s.RedoSkipped.Load()
	out.RedoRecordsScanned = s.RedoRecordsScanned.Load()
	out.OnlineRestarts = s.OnlineRestarts.Load()
	out.LocksReinstated = s.LocksReinstated.Load()
	out.PagesRedoneOnDemand = s.PagesRedoneOnDemand.Load()
	out.PagesRedoneByDrain = s.PagesRedoneByDrain.Load()
	out.CheckpointsSkippedRecovering = s.CheckpointsSkippedRecovering.Load()
	out.SegmentsShipped = s.SegmentsShipped.Load()
	out.SegmentsResent = s.SegmentsResent.Load()
	out.SegmentsApplied = s.SegmentsApplied.Load()
	out.SegmentsRejected = s.SegmentsRejected.Load()
	out.ReplNaks = s.ReplNaks.Load()
	out.ReplReseeds = s.ReplReseeds.Load()
	out.ReplCommitsAcked = s.ReplCommitsAcked.Load()
	out.Promotions = s.Promotions.Load()
	out.AmbiguityRestarts = s.AmbiguityRestarts.Load()
	out.SMBitWaits = s.SMBitWaits.Load()
	out.DeleteBitPOSCs = s.DeleteBitPOSCs.Load()
	out.SnapshotBegins = s.SnapshotBegins.Load()
	out.SnapshotReads = s.SnapshotReads.Load()
	out.SnapshotChainHits = s.SnapshotChainHits.Load()
	out.SnapshotTooOld = s.SnapshotTooOld.Load()
	out.VersionsPushed = s.VersionsPushed.Load()
	out.VersionsPruned = s.VersionsPruned.Load()
	out.ChainsCreated = s.ChainsCreated.Load()
	out.ChainsRemoved = s.ChainsRemoved.Load()
	out.ChainsScanned = s.ChainsScanned.Load()
	out.VersionChainPeak = s.VersionChainPeak.Load()
	out.ReadOnlyLockCalls = s.ReadOnlyLockCalls.Load()
	return out
}

// Diff returns after - before, cell-wise.
func Diff(before, after Snapshot) Snapshot {
	var d Snapshot
	for i := range d.LockCalls {
		for j := range d.LockCalls[i] {
			for k := range d.LockCalls[i][j] {
				d.LockCalls[i][j][k] = after.LockCalls[i][j][k] - before.LockCalls[i][j][k]
			}
		}
	}
	d.LockWaits = after.LockWaits - before.LockWaits
	d.LockDenials = after.LockDenials - before.LockDenials
	d.Deadlocks = after.Deadlocks - before.Deadlocks
	d.DeadlockVictims = after.DeadlockVictims - before.DeadlockVictims
	d.VictimsOther = after.VictimsOther - before.VictimsOther
	d.LockTimeouts = after.LockTimeouts - before.LockTimeouts
	d.SavepointLockReleases = after.SavepointLockReleases - before.SavepointLockReleases
	d.TxnRetries = after.TxnRetries - before.TxnRetries
	d.TxnDeadlockRetries = after.TxnDeadlockRetries - before.TxnDeadlockRetries
	d.TxnTimeoutRetries = after.TxnTimeoutRetries - before.TxnTimeoutRetries
	d.TxnCrashWaits = after.TxnCrashWaits - before.TxnCrashWaits
	d.TxnStepRetries = after.TxnStepRetries - before.TxnStepRetries
	d.TxnRetrySuccesses = after.TxnRetrySuccesses - before.TxnRetrySuccesses
	d.TxnRecoveringRetries = after.TxnRecoveringRetries - before.TxnRecoveringRetries
	d.LatchAcquires = after.LatchAcquires - before.LatchAcquires
	d.LatchWaits = after.LatchWaits - before.LatchWaits
	d.LatchTryFailures = after.LatchTryFailures - before.LatchTryFailures
	d.TreeLatchAcquires = after.TreeLatchAcquires - before.TreeLatchAcquires
	d.TreeLatchWaits = after.TreeLatchWaits - before.TreeLatchWaits
	d.PageFixes = after.PageFixes - before.PageFixes
	d.PageMisses = after.PageMisses - before.PageMisses
	d.PageWrites = after.PageWrites - before.PageWrites
	d.PageEvicted = after.PageEvicted - before.PageEvicted
	d.EvictionsDirty = after.EvictionsDirty - before.EvictionsDirty
	d.EvictionStalls = after.EvictionStalls - before.EvictionStalls
	d.FixParks = after.FixParks - before.FixParks
	d.CleanerPasses = after.CleanerPasses - before.CleanerPasses
	d.CleanerWrites = after.CleanerWrites - before.CleanerWrites
	d.PagesPrefetched = after.PagesPrefetched - before.PagesPrefetched
	d.LogRecords = after.LogRecords - before.LogRecords
	d.LogBytes = after.LogBytes - before.LogBytes
	d.LogForces = after.LogForces - before.LogForces
	d.ForceWaiters = after.ForceWaiters - before.ForceWaiters
	d.GroupCommits = after.GroupCommits - before.GroupCommits
	d.AppendReservations = after.AppendReservations - before.AppendReservations
	d.WatermarkStalls = after.WatermarkStalls - before.WatermarkStalls
	d.IORetries = after.IORetries - before.IORetries
	d.CorruptPages = after.CorruptPages - before.CorruptPages
	d.MediaRecoveries = after.MediaRecoveries - before.MediaRecoveries
	d.TornTailTruncations = after.TornTailTruncations - before.TornTailTruncations
	d.Traversals = after.Traversals - before.Traversals
	d.LeafReposition = after.LeafReposition - before.LeafReposition
	d.SMOs = after.SMOs - before.SMOs
	d.PageSplits = after.PageSplits - before.PageSplits
	d.PageDeletes = after.PageDeletes - before.PageDeletes
	d.UndoPageOriented = after.UndoPageOriented - before.UndoPageOriented
	d.UndoLogical = after.UndoLogical - before.UndoLogical
	d.RedoApplied = after.RedoApplied - before.RedoApplied
	d.RedoSkipped = after.RedoSkipped - before.RedoSkipped
	d.RedoRecordsScanned = after.RedoRecordsScanned - before.RedoRecordsScanned
	d.OnlineRestarts = after.OnlineRestarts - before.OnlineRestarts
	d.LocksReinstated = after.LocksReinstated - before.LocksReinstated
	d.PagesRedoneOnDemand = after.PagesRedoneOnDemand - before.PagesRedoneOnDemand
	d.PagesRedoneByDrain = after.PagesRedoneByDrain - before.PagesRedoneByDrain
	d.CheckpointsSkippedRecovering = after.CheckpointsSkippedRecovering - before.CheckpointsSkippedRecovering
	d.SegmentsShipped = after.SegmentsShipped - before.SegmentsShipped
	d.SegmentsResent = after.SegmentsResent - before.SegmentsResent
	d.SegmentsApplied = after.SegmentsApplied - before.SegmentsApplied
	d.SegmentsRejected = after.SegmentsRejected - before.SegmentsRejected
	d.ReplNaks = after.ReplNaks - before.ReplNaks
	d.ReplReseeds = after.ReplReseeds - before.ReplReseeds
	d.ReplCommitsAcked = after.ReplCommitsAcked - before.ReplCommitsAcked
	d.Promotions = after.Promotions - before.Promotions
	d.AmbiguityRestarts = after.AmbiguityRestarts - before.AmbiguityRestarts
	d.SMBitWaits = after.SMBitWaits - before.SMBitWaits
	d.DeleteBitPOSCs = after.DeleteBitPOSCs - before.DeleteBitPOSCs
	d.SnapshotBegins = after.SnapshotBegins - before.SnapshotBegins
	d.SnapshotReads = after.SnapshotReads - before.SnapshotReads
	d.SnapshotChainHits = after.SnapshotChainHits - before.SnapshotChainHits
	d.SnapshotTooOld = after.SnapshotTooOld - before.SnapshotTooOld
	d.VersionsPushed = after.VersionsPushed - before.VersionsPushed
	d.VersionsPruned = after.VersionsPruned - before.VersionsPruned
	d.ChainsCreated = after.ChainsCreated - before.ChainsCreated
	d.ChainsRemoved = after.ChainsRemoved - before.ChainsRemoved
	d.ChainsScanned = after.ChainsScanned - before.ChainsScanned
	// VersionChainPeak is an epoch-global high-water gauge; subtracting
	// snapshots is meaningless, so a diff carries the "after" reading.
	d.VersionChainPeak = after.VersionChainPeak
	d.ReadOnlyLockCalls = after.ReadOnlyLockCalls - before.ReadOnlyLockCalls
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

// Package trace provides the instrumentation substrate for ariesim.
//
// ARIES/IM's evaluation is expressed in counts: locks acquired (by name
// space, mode, and duration), latch acquisitions and waits, pages fixed,
// log records and bytes written, synchronous I/Os, and tree traversals
// performed during redo/undo. Every component of the engine reports into a
// Stats sink so that the benchmark harness can regenerate the paper's
// Figure 2 table and quantify the qualitative claims (fewer locks than
// ARIES/KVL and System R, page-oriented redo, readers unblocked by SMOs).
// Every constructor that takes a *Stats substitutes a fresh sink for nil, so
// no component holds a nil one and no call site checks for it.
//
// All counters are updateable concurrently; Snapshot produces a consistent-
// enough copy for reporting (individual counters are atomic; cross-counter
// skew is irrelevant for the quantities measured).
package trace

import (
	"fmt"
	"reflect"
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

// counterSet is the one list of the scalar counters. Stats holds it as
// atomics and Snapshot as plain values; Snap and Diff walk it by reflection,
// so a counter is added here and nowhere else. A field tagged `trace:"gauge"`
// is a high-water mark, not a count: a Diff carries its "after" reading.
type counterSet[C any] struct {
	// Lock manager.
	LockWaits       C // requests that could not be granted immediately
	Deadlocks       C // waits-for cycles detected
	DeadlockVictims C // waiters aborted to break a cycle (requester or other)
	VictimsOther    C // victims that were NOT the requester (cost-based choice)
	LockTimeouts    C // waits abandoned at the lock-wait timeout
	LockWaitNanos   C // time queued requests waited, enqueue to grant or abort
	LockWaitsParked C // waits that outlived the spin and parked

	// Transaction retry layer (db.RunTxn).
	TxnRetries           C // transaction bodies re-executed after rollback
	TxnDeadlockRetries   C // ...because the txn was a deadlock victim
	TxnTimeoutRetries    C // ...because a lock wait timed out
	TxnCrashWaits        C // RunTxn attempts parked waiting for Restart
	TxnRetrySuccesses    C // transactions that committed after >=1 retry
	TxnRecoveringRetries C // immediate retries on ErrRecovering (engine up, op degraded)

	// Latches.
	LatchAcquires     C
	LatchWaits        C // unconditional acquisitions that blocked
	LatchTryFailures  C // conditional acquisitions denied
	TreeLatchAcquires C
	TreeLatchWaits    C

	// Buffer pool.
	PageFixes      C
	PageMisses     C // fixes that required a disk read
	PageWrites     C // dirty pages written to disk (steal, cleaner, or flush)
	PageEvicted    C
	EvictionsDirty C // foreground evictions that had to write back a dirty victim
	EvictionStalls C // Fix retries because every candidate frame was pinned
	FixParks       C // fixers parked on another fixer's in-flight read
	CleanerPasses  C // background cleaner passes completed
	CleanerWrites  C // dirty frames flushed by the cleaner

	// Log.
	LogRecords         C
	LogBytes           C
	LogForces          C // physical flushes that advanced the stable LSN
	ForceWaiters       C // Force callers that blocked behind an in-flight flush
	GroupCommits       C // Force callers hardened by a flush they did not perform
	AppendReservations C // lock-free LSN range claims (one per append)
	WatermarkStalls    C // forces that waited for the contiguity watermark to cover their LSN

	// Fault handling (injected I/O errors and media corruption).
	IORetries           C // transient I/O errors retried by the buffer pool
	CorruptPages        C // checksum/permanent-error page reads detected
	MediaRecoveries     C // pages rebuilt via media recovery
	TornTailTruncations C // crash sweeps that cut a bad-CRC log tail

	// Index manager.
	Traversals       C // root-to-leaf tree traversals
	LeafReposition   C // fetch-next repositionings after LSN change
	SMOs             C // page splits + page deletions
	PageSplits       C
	PageDeletes      C
	UndoPageOriented C // undos applied without a traversal
	UndoLogical      C // undos that retraversed the tree
	RedoApplied      C // log records redone at restart

	// Online restart.
	OnlineRestarts               C // restarts that opened after analysis (online mode)
	LocksReinstated              C // loser locks re-granted from the log at restart
	PagesRedoneOnDemand          C // DPT pages recovered at fix time by a foreground caller
	PagesRedoneByDrain           C // DPT pages recovered by the background drain workers
	CheckpointsSkippedRecovering C // checkpoints refused while online recovery was pending

	// Replication (internal/repl hot standby).
	SegmentsShipped  C // segments the shipper framed and sent
	SegmentsResent   C // segments re-shipped after an ack stall
	SegmentsApplied  C // segments the standby appended and replayed
	SegmentsRejected C // segments the standby discarded (corrupt, after promotion or a redo failure, duplicate, gapped)

	AmbiguityRestarts C // Fig 4 "unwind recursion" events
	SMBitWaits        C // operations delayed by SM_Bit
	DeleteBitPOSCs    C // points of structural consistency forced by Delete_Bit

	// MVCC snapshot reads (internal/mvcc version store + db read-only mode).
	SnapshotBegins    C // read-only transactions begun in snapshot mode
	SnapshotReads     C // Get/Scan row reads resolved through a snapshot
	SnapshotChainHits C // snapshot reads answered by a version chain (not the page)
	SnapshotTooOld    C // reads aborted because the needed version was pruned
	VersionsPushed    C // record versions appended to chains by writers
	ChainsCreated     C // version chains materialized
	ChainsRemoved     C // version chains fully retired
	ChainsScanned     C // chains whose key a scan-window lookup (RowsBetween) examined
	VersionChainPeak  C `trace:"gauge"` // max versions ever held by one chain
	ReadOnlyLockCalls C // lock-manager requests issued by snapshot transactions (must stay 0)
}

// Stats is a sink of engine counters. The zero value is ready to use.
type Stats struct {
	lockCalls [MaxSpaces][MaxModes][MaxDurations]atomic.Uint64
	counterSet[atomic.Uint64]
}

// OrNew returns s, or a fresh Stats when s is nil: the substitution every
// constructor that takes a sink makes.
func OrNew(s *Stats) *Stats {
	if s == nil {
		return &Stats{}
	}
	return s
}

// MaxGauge raises a gauge counter to v if v exceeds its current value
// (lock-free CAS loop).
func (s *Stats) MaxGauge(c *atomic.Uint64, v uint64) {
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

// eachCell calls f with every (space, mode, duration) index of the lock table.
func eachCell(f func(i, j, k int)) {
	for i := range MaxSpaces {
		for j := range MaxModes {
			for k := range MaxDurations {
				f(i, j, k)
			}
		}
	}
}

// Snapshot is a plain-value copy of all counters, suitable for diffing
// around a measured region.
type Snapshot struct {
	LockCalls [MaxSpaces][MaxModes][MaxDurations]uint64
	counterSet[uint64]
}

// Snap copies the current counter values.
func (s *Stats) Snap() Snapshot {
	var out Snapshot
	eachCell(func(i, j, k int) { out.LockCalls[i][j][k] = s.lockCalls[i][j][k].Load() })
	live, snap := reflect.ValueOf(&s.counterSet).Elem(), reflect.ValueOf(&out.counterSet).Elem()
	for i := range live.NumField() {
		snap.Field(i).SetUint(live.Field(i).Addr().Interface().(*atomic.Uint64).Load())
	}
	return out
}

// Diff returns after - before, cell-wise (a gauge: after's reading).
func Diff(before, after Snapshot) Snapshot {
	d := after
	eachCell(func(i, j, k int) { d.LockCalls[i][j][k] -= before.LockCalls[i][j][k] })
	was, v := reflect.ValueOf(before.counterSet), reflect.ValueOf(&d.counterSet).Elem()
	for i := range v.NumField() {
		if v.Type().Field(i).Tag.Get("trace") != "gauge" {
			v.Field(i).SetUint(v.Field(i).Uint() - was.Field(i).Uint())
		}
	}
	return d
}

// TotalLocks sums every lock-call cell in the snapshot.
func (sn Snapshot) TotalLocks() uint64 {
	var t uint64
	eachCell(func(i, j, k int) { t += sn.LockCalls[i][j][k] })
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
	eachCell(func(i, j, k int) {
		if n := sn.LockCalls[i][j][k]; n > 0 {
			cells = append(cells, LockCell{Space: spaceName(i), Mode: modeName(j), Duration: durationName(k), Count: n})
		}
	})
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

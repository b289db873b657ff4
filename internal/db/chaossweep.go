// Chaos sweep: the concurrent, adversarial counterpart of the serial
// crash-point sweep. N goroutines run a mixed SMO-dense workload through
// RunTxn — deadlocks, lock-wait timeouts, and engine crashes are repaired
// by the retry layer, not the workload — while the driver injects disk
// faults, plants silent corruption, and crashes the engine at random
// points under live traffic. After every crash the committed state is
// verified exactly against a model maintained at commit-ack time: every
// acknowledged commit is durable, no aborted or in-flight effect is
// visible, and the structural invariants hold.
package db

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
	"ariesim/internal/workload"
)

// ChaosOpts configures a chaos sweep. The zero value is a full-size run;
// every field has a default. The sweep is deterministic in Seed only up to
// goroutine scheduling — the point is surviving nondeterminism, and the
// verification is exact regardless of interleaving.
type ChaosOpts struct {
	// Seed drives the workload generators, fault schedule, and retry jitter.
	Seed int64
	// Workers is the number of concurrent transaction goroutines (default 8).
	Workers int
	// Crashes is the number of crash/restart points (default 20).
	Crashes int
	// CommitsPerPhase is how many acked commits must accumulate between
	// crashes (default 25), so every crash lands under live traffic.
	CommitsPerPhase int
	// PageSize (default 512) — small pages force SMOs under the workload.
	PageSize int
	// PoolSize in frames (default 64) — small pools force steals, so
	// uncommitted pages reach disk and restart must undo them.
	PoolSize int
	// Faults injects seeded disk faults and plants silent corruption.
	Faults bool
	// LockWaitTimeout bounds lock waits (default 20ms); the retry layer
	// absorbs the resulting ErrLockTimeouts.
	LockWaitTimeout time.Duration
	// WatchdogPatience is the livelock bound (default 15s): the run fails
	// if commit throughput stalls for this long between crashes — the
	// symptom of retries collapsing into livelock.
	WatchdogPatience time.Duration
	// OnlineRestart restarts the engine (and every verification fork)
	// online: workers resume the moment analysis finishes, racing the
	// background drain and loser undo, and a rotating subset of crash
	// points re-crashes the engine while that recovery is still running.
	OnlineRestart bool
	// RedoWorkers sets restart redo parallelism (0/1 = serial).
	RedoWorkers int
	// SnapshotReaders adds N lock-free snapshot reader goroutines to the
	// crash phase: each loops full-table scans through RunReadOnly while
	// the writers churn and the engine crashes. Every observation is
	// verified at the end against an LSN-keyed ledger of acked commits
	// replayed through the snapshot's LSN — a torn read (any prefix that
	// is not exactly the committed state at some commit boundary) fails
	// the sweep, as does a single lock-manager call by a snapshot reader.
	SnapshotReaders int
	// SecondaryIndex maintains a secondary index over the workload's values
	// for the whole run: every Insert/Update/Delete updates both trees in
	// one transaction, and every crash boundary cross-verifies the index
	// against the base table (each committed row indexed exactly once under
	// the key the extractor derives, no orphan entries) in the verification
	// fork AND the restarted engine's final check. With SnapshotReaders,
	// readers alternate base-table and index-order snapshot scans and both
	// observation kinds are ledger-verified.
	SecondaryIndex bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o ChaosOpts) withDefaults() ChaosOpts {
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.Crashes == 0 {
		o.Crashes = 20
	}
	if o.CommitsPerPhase == 0 {
		o.CommitsPerPhase = 25
	}
	if o.PageSize == 0 {
		o.PageSize = 512
	}
	if o.PoolSize == 0 {
		o.PoolSize = 64
	}
	if o.LockWaitTimeout == 0 {
		o.LockWaitTimeout = 20 * time.Millisecond
	}
	if o.WatchdogPatience == 0 {
		o.WatchdogPatience = 15 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ChaosResult summarizes a chaos sweep.
type ChaosResult struct {
	Crashes int // crash/restart points survived
	Commits int // transactions acked committed

	// Contention-repair counters (from trace.Stats at the end of the run).
	Deadlocks       uint64 // waits-for cycles detected
	DeadlockVictims uint64 // victims aborted out of those cycles
	LockTimeouts    uint64 // waits abandoned at the timeout
	TxnRetries      uint64 // automatic full-transaction retries
	DeadlockRetries uint64 // ... due to being a deadlock victim
	TimeoutRetries  uint64 // ... due to a lock-wait timeout
	CrashWaits      uint64 // retries that waited out a restart
	RetrySuccesses  uint64 // transactions that committed after >=1 retry
	CorruptPages    uint64 // checksum failures detected
	MediaRecoveries uint64 // pages healed from image copy + log
	FaultsInjected  storage.FaultCounts
	RestartRedos    uint64 // redo records applied across all restarts
	RestartUndos    uint64 // undo steps driven across all restarts
	GaveUp          int    // transactions that exhausted their retries (no effect committed)

	// Online-restart counters (zero unless ChaosOpts.OnlineRestart).
	OnlineRestarts     uint64 // restarts that opened after analysis
	MidRecoveryCrashes int    // crashes landed while background recovery ran
	RecoveringRetries  uint64 // RunTxn immediate retries on ErrRecovering
	CheckpointsSkipped uint64 // checkpoints refused while recovery was pending
	PagesOnDemand      uint64 // pages recovered at fix time by the hook
	PagesDrained       uint64 // pages recovered by the background drain

	// Snapshot-reader counters (zero unless ChaosOpts.SnapshotReaders > 0).
	SnapshotsVerified int    // observations verified committed-consistent
	SnapshotBegins    uint64 // lock-free snapshots taken
	SnapshotReads     uint64 // per-key visibility resolutions
	SnapshotTooOld    uint64 // pruned-snapshot aborts absorbed by retry
	ReadOnlyLockCalls uint64 // lock-manager calls by snapshot readers (must be 0)
}

// chaosSnapLedger keys every acked commit's staged rows by commit-record
// LSN so a snapshot observed at LSN s replays exactly: apply all entries
// with LSN <= s in LSN order. Methods are nil-safe so the writer paths can
// record unconditionally; the ledger only exists when SnapshotReaders > 0.
type chaosSnapLedger struct {
	mu      sync.Mutex
	entries map[wal.LSN]map[string]*string
}

func (l *chaosSnapLedger) record(lsn wal.LSN, local map[string]*string) {
	if l == nil {
		return
	}
	cp := make(map[string]*string, len(local))
	for k, v := range local {
		if v == nil {
			cp[k] = nil
		} else {
			s := *v
			cp[k] = &s
		}
	}
	l.mu.Lock()
	l.entries[lsn] = cp
	l.mu.Unlock()
}

func (l *chaosSnapLedger) applyThrough(s wal.LSN) map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := make([]wal.LSN, 0, len(l.entries))
	for lsn := range l.entries {
		if lsn <= s {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	model := map[string]string{}
	for _, lsn := range lsns {
		for k, v := range l.entries[lsn] {
			if v == nil {
				delete(model, k)
			} else {
				model[k] = *v
			}
		}
	}
	return model
}

// chaosSnapObs is one snapshot reader observation: the full table as seen
// at snapshot LSN s, keyed by primary key. viaIndex marks observations
// gathered through a secondary-index-order scan (same verification: the
// index merge must yield exactly the committed rows at s).
type chaosSnapObs struct {
	s        wal.LSN
	rows     map[string]string
	viaIndex bool
}

// chaosIndexName is the secondary index the SecondaryIndex option maintains.
const chaosIndexName = "chaos_by_val"

// chaosIndexExtract derives the secondary key from a row value: the first
// two bytes. The workload's values collide heavily under it, so the
// secondary tree exercises duplicate-key paths, and short control values
// ("dl", "sep") stay legal.
func chaosIndexExtract(value []byte) []byte {
	if len(value) > 2 {
		value = value[:2]
	}
	return append([]byte(nil), value...)
}

// chaosModel is the exact model of acked-committed state. Mutations happen
// only inside RunTxn OnCommit callbacks — atomically with the commit ack —
// so at any crash instant the model IS the set of durable transactions.
//
// Acks do not arrive in commit order: with early lock release a transaction
// can take a lock its predecessor has just dropped, commit behind it and be
// acknowledged before it (both forces done, the predecessor's goroutine not
// yet run). Each key therefore remembers the commit LSN of the write that
// set it, and a write older than that is already overwritten.
type chaosModel struct {
	mu   sync.Mutex
	rows map[string]string
	at   map[string]wal.LSN // commit LSN of each key's last write, deletes included
}

func (m *chaosModel) apply(commit wal.LSN, local map[string]*string) {
	m.mu.Lock()
	for k, v := range local {
		if m.at[k] > commit {
			continue
		}
		m.at[k] = commit
		if v == nil {
			delete(m.rows, k)
		} else {
			m.rows[k] = *v
		}
	}
	m.mu.Unlock()
}

// ackHooks returns the RunTxn callbacks that record a committed
// transaction's staged writes — *local, filled by the body's last attempt —
// in the snapshot ledger and, at the ack, in the model.
func ackHooks(model *chaosModel, ledger *chaosSnapLedger, commits *atomic.Int64, local *map[string]*string) (onCommitted func(wal.LSN), onCommit func()) {
	var commit wal.LSN
	onCommitted = func(lsn wal.LSN) {
		commit = lsn
		ledger.record(lsn, *local)
	}
	onCommit = func() {
		model.apply(commit, *local)
		commits.Add(1)
	}
	return onCommitted, onCommit
}

func (m *chaosModel) snapshot() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.rows))
	for k, v := range m.rows {
		out[k] = v
	}
	return out
}

// chaosUpsert writes k=v regardless of prior existence and stages the
// result. The insert/update race with concurrent deleters is looped over:
// both ErrDuplicate and ErrNotFound are the other side of a race this
// transaction can immediately retry in place.
func chaosUpsert(tbl *Table, tx *txn.Tx, k, v []byte, local map[string]*string) error {
	var err error
	for i := 0; i < 4; i++ {
		if err = tbl.Insert(tx, k, v); err == nil {
			break
		}
		if !errors.Is(err, ErrDuplicate) {
			return err
		}
		if err = tbl.Update(tx, k, v); err == nil {
			break
		}
		if !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	if err != nil {
		return err
	}
	s := string(v)
	local[string(k)] = &s
	return nil
}

// RunChaosSweep runs the concurrent crash-under-load chaos sweep and
// verifies exact committed state after every crash. It returns an error on
// the first verification failure, livelock, or unexpected engine error.
func RunChaosSweep(o ChaosOpts) (*ChaosResult, error) {
	o = o.withDefaults()
	d := Open(Options{
		PageSize: o.PageSize, PoolSize: o.PoolSize,
		LockWaitTimeout: o.LockWaitTimeout,
		OnlineRestart:   o.OnlineRestart,
		RedoWorkers:     o.RedoWorkers,
	})
	const tableName = "chaos"
	tbl0, err := d.CreateTable(tableName)
	if err != nil {
		return nil, fmt.Errorf("chaos: create table: %v", err)
	}
	if o.SecondaryIndex {
		if err := tbl0.CreateIndex(chaosIndexName, chaosIndexExtract); err != nil {
			return nil, fmt.Errorf("chaos: create index: %v", err)
		}
	}
	// verifyState checks an engine's visible rows (and, with SecondaryIndex,
	// the index/base cross-consistency) against a model snapshot.
	verifyState := func(vd *DB, want map[string]string) error {
		if err := verifyAgainst(vd, tableName, want); err != nil {
			return err
		}
		if o.SecondaryIndex {
			return verifyIndexAgainst(vd, tableName, chaosIndexName, want)
		}
		return nil
	}
	model := &chaosModel{rows: map[string]string{}, at: map[string]wal.LSN{}}
	var commits atomic.Int64
	var gaveUp atomic.Int64
	res := &ChaosResult{}
	var snapLedger *chaosSnapLedger // nil unless the snapshot phase runs
	if o.SnapshotReaders > 0 {
		snapLedger = &chaosSnapLedger{entries: map[wal.LSN]map[string]*string{}}
	}

	// Phase 1: deterministic contention. Guarantees both repair paths —
	// deadlock victim and lock-wait timeout — are exercised and retried to
	// success even if the random phase's interleavings happen to avoid them.
	o.Logf("chaos: forcing deadlock and lock-timeout repair paths")
	for tries := 0; d.Stats().DeadlockVictims.Load() == 0; tries++ {
		// A scheduling hiccup can let a timeout beat the cycle; rerun the
		// rendezvous until a victim was genuinely aborted.
		if tries == 5 {
			return nil, fmt.Errorf("chaos: forced deadlock phase aborted no victim in %d tries", tries)
		}
		if err := forceDeadlockRepair(d, tableName, model, &commits, snapLedger, o.Seed+int64(tries)); err != nil {
			return nil, err
		}
	}
	for tries := 0; d.Stats().LockTimeouts.Load() == 0; tries++ {
		if tries == 5 {
			return nil, fmt.Errorf("chaos: forced timeout phase timed nothing out in %d tries", tries)
		}
		if err := forceTimeoutRepair(d, tableName, model, &commits, snapLedger, o.Seed+int64(tries), o.LockWaitTimeout); err != nil {
			return nil, err
		}
	}

	// Phase 2: concurrent workers under a random crash schedule. The disk
	// turns hostile only now — phase 1's rendezvous must not be broken up
	// by an injected fault.
	var inj *storage.Faults
	if o.Faults {
		inj = storage.NewFaults(storage.FaultConfig{
			Seed:           o.Seed * 7,
			ReadErrorProb:  0.02,
			WriteErrorProb: 0.02,
			TornWriteProb:  0.03,
			BitFlipProb:    0.03,
		})
		d.Disk().SetInjector(inj)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var workerErrMu sync.Mutex
	var workerErr error
	failWorker := func(err error) {
		workerErrMu.Lock()
		if workerErr == nil {
			workerErr = err
		}
		workerErrMu.Unlock()
	}
	failed := func() error {
		workerErrMu.Lock()
		defer workerErrMu.Unlock()
		return workerErr
	}

	hot := [][]byte{[]byte("hot-0"), []byte("hot-1"), []byte("hot-2")}
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.New(workload.Spec{
				Keys: 500, InsertFrac: 0.45, DeleteFrac: 0.35, ReadFrac: 0.2,
				Seed: o.Seed + int64(w)*101,
			})
			rng := rand.New(rand.NewSource(o.Seed + int64(w)*977))
			var local map[string]*string
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				opts := RunTxnOpts{Seed: o.Seed + int64(w)*1000003 + int64(iter)}
				opts.OnCommitted, opts.OnCommit = ackHooks(model, snapLedger, &commits, &local)
				err := d.RunTxnWith(opts, func(tx *txn.Tx) error {
					local = map[string]*string{} // fresh staging per attempt
					tbl, err := d.TableFor(tx, tableName)
					if err != nil {
						return err
					}
					val := []byte(fmt.Sprintf("w%d-i%d", w, iter))
					switch {
					case w < 2:
						// Adversary pair: the two hot keys in opposite
						// order — the classic deadlock shape.
						a, b := hot[0], hot[1]
						if w == 1 {
							a, b = b, a
						}
						if err := chaosUpsert(tbl, tx, a, val, local); err != nil {
							return err
						}
						if err := chaosUpsert(tbl, tx, b, val, local); err != nil {
							return err
						}
					case w == 2 && iter%7 == 0:
						// Slow holder: sits on a hot key past the lock-wait
						// timeout so contenders time out and retry.
						if err := chaosUpsert(tbl, tx, hot[2], val, local); err != nil {
							return err
						}
						time.Sleep(o.LockWaitTimeout * 3 / 2)
					default:
						if rng.Intn(4) == 0 {
							if err := chaosUpsert(tbl, tx, hot[2], val, local); err != nil {
								return err
							}
						}
					}
					n := 1 + rng.Intn(5)
					for j := 0; j < n; j++ {
						op := gen.Next()
						switch op.Kind {
						case workload.Insert:
							err := tbl.Insert(tx, op.Key, op.Value)
							switch {
							case err == nil:
								v := string(op.Value)
								local[string(op.Key)] = &v
							case errors.Is(err, ErrDuplicate):
								// key exists; fine
							default:
								return err
							}
						case workload.Delete:
							err := tbl.Delete(tx, op.Key)
							switch {
							case err == nil:
								local[string(op.Key)] = nil
							case errors.Is(err, ErrNotFound):
							default:
								return err
							}
						default:
							if _, err := tbl.Get(tx, op.Key); err != nil && !errors.Is(err, ErrNotFound) {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					// A transaction that exhausted its retries committed
					// nothing — a legal (if sad) outcome under extreme
					// contention; the watchdog catches systemic collapse.
					// The give-up error wraps its contention/crash cause, so
					// ClassifyErr sees through it; anything genuinely fatal
					// fails the run.
					if ClassifyErr(err) == ClassFatal {
						failWorker(fmt.Errorf("chaos: worker %d: %w", w, err))
						return
					}
					gaveUp.Add(1)
				}
			}
		}(w)
	}

	// Snapshot readers: lock-free full scans racing the writers and the
	// crash schedule. Observations are verified against the LSN ledger only
	// after the run quiesces — a commit can become visible to a snapshot
	// before its OnCommitted callback records it, so the ledger is complete
	// only once the writers stop.
	obsCh := make(chan chaosSnapObs, 4096)
	for r := 0; r < o.SnapshotReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				var obs *chaosSnapObs
				viaIndex := o.SecondaryIndex && iter%2 == 1
				err := d.RunReadOnlyWith(RunTxnOpts{
					Seed:          o.Seed + int64(r)*7919 + int64(iter),
					RetryDeadline: o.WatchdogPatience,
				}, func(tx *txn.Tx) error {
					obs = nil
					snap := tx.Snapshot()
					tbl, err := d.TableFor(tx, tableName)
					if err != nil {
						return err
					}
					rows := map[string]string{}
					if viaIndex && snap != nil {
						// Index-order scan through the lock-free chain merge;
						// the pair must agree with the extractor on the spot.
						if err := tbl.ScanIndex(tx, chaosIndexName, func(sk []byte, row Row) (bool, error) {
							if string(sk) != string(chaosIndexExtract(row.Value)) {
								return false, fmt.Errorf("index scan pair %q / %q disagrees with extractor", sk, row.Value)
							}
							if _, dup := rows[string(row.Key)]; dup {
								return false, fmt.Errorf("index scan emitted row %q twice", row.Key)
							}
							rows[string(row.Key)] = string(row.Value)
							return true, nil
						}); err != nil {
							return err
						}
					} else if err := tbl.Scan(tx, nil, nil, func(row Row) (bool, error) {
						rows[string(row.Key)] = string(row.Value)
						return true, nil
					}); err != nil {
						return err
					}
					if snap != nil { // locked fallback reads are not point-in-time
						obs = &chaosSnapObs{s: snap.LSN, rows: rows, viaIndex: viaIndex}
					}
					return nil
				})
				if err != nil {
					if ClassifyErr(err) == ClassFatal {
						failWorker(fmt.Errorf("chaos: snapshot reader %d: %w", r, err))
						return
					}
					continue // give-up under extreme contention: legal, retry fresh
				}
				if obs != nil {
					select {
					case obsCh <- *obs:
					default: // bounded backlog; later snapshots are just as good
					}
				}
			}
		}(r)
	}

	crashRNG := rand.New(rand.NewSource(o.Seed * 31))
	for c := 0; c < o.Crashes; c++ {
		// Let traffic accumulate, with the livelock watchdog running.
		target := commits.Load() + int64(o.CommitsPerPhase)
		deadline := time.Now().Add(o.WatchdogPatience)
		for commits.Load() < target {
			if err := failed(); err != nil {
				close(stop)
				wg.Wait()
				return nil, err
			}
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("chaos: livelock: %d/%d commits after %v at crash point %d (retry throughput collapsed)",
					commits.Load()-(target-int64(o.CommitsPerPhase)), o.CommitsPerPhase, o.WatchdogPatience, c)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if c%4 == 3 {
			d.Checkpoint() // later crashes exercise bounded analysis
		}
		if o.Faults {
			// Push dirty pages through the faulty device under live traffic
			// (FlushPage S-latches and forces the log first, so this is
			// safe) so the write fates actually fire and the disk has pages
			// to corrupt. Failures are fine — the log has everything.
			_ = d.Pool().FlushAll()
		}

		// Crash under live traffic, then snapshot the model: commits are
		// acked under the same mutex Crash holds, so nothing can slip into
		// the model after the crash instant.
		d.Crash()
		snap := model.snapshot()
		if o.Faults && c%2 == 1 {
			// Plant silent corruption on the crashed stable state; both the
			// verification fork and the restarted engine must heal it.
			if ids := d.Disk().PageIDs(); len(ids) > 0 {
				victim := ids[crashRNG.Intn(len(ids))]
				d.Disk().CorruptBits(victim, crashRNG.Intn(o.PageSize-1)+1, byte(crashRNG.Intn(255)+1))
			}
		}

		// Verify on a fork of the crashed stable state while the real
		// engine restarts — the workers resume traffic immediately, and the
		// fork proves what a recovery of this exact crash instant yields.
		fork := d.Fork()
		if _, err := fork.Restart(); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: crash %d: fork restart: %v", c, err)
		}
		if _, err := d.Restart(); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: crash %d: restart: %v", c, err)
		}

		// Under online restart the engine is already serving the workers
		// while its background drain and loser undo run. On a rotating
		// subset, crash it AGAIN inside that window — the hardest crash
		// point: live traffic, half-drained DPT, half-undone losers, no
		// checkpoint taken since before the first crash — and verify a
		// recovery of that instant too.
		if o.OnlineRestart && c%3 == 2 {
			time.Sleep(time.Duration(crashRNG.Intn(1500)+100) * time.Microsecond)
			d.Crash()
			snap2 := model.snapshot()
			refork := d.Fork()
			if _, err := refork.Restart(); err != nil {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("chaos: crash %d: mid-recovery fork restart: %v", c, err)
			}
			if _, err := d.Restart(); err != nil {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("chaos: crash %d: mid-recovery restart: %v", c, err)
			}
			if _, err := refork.AwaitRecovered(); err != nil {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("chaos: crash %d: mid-recovery fork await: %v", c, err)
			}
			if err := verifyState(refork, snap2); err != nil {
				close(stop)
				wg.Wait()
				return nil, fmt.Errorf("chaos: crash %d: mid-recovery: %v", c, err)
			}
			res.MidRecoveryCrashes++
		}

		if _, err := fork.AwaitRecovered(); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: crash %d: fork await recovered: %v", c, err)
		}
		if err := verifyState(fork, snap); err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("chaos: crash %d: %v", c, err)
		}
		res.Crashes++
		o.Logf("chaos: crash %2d survived: %4d commits acked, %4d rows verified",
			c, commits.Load(), len(snap))
	}

	close(stop)
	wg.Wait()
	if err := failed(); err != nil {
		return nil, err
	}

	// Final quiesced verification on the live engine itself (waiting out
	// any still-running background recovery first).
	if _, err := d.AwaitRecovered(); err != nil {
		return nil, fmt.Errorf("chaos: final await recovered: %v", err)
	}
	if err := verifyState(d, model.snapshot()); err != nil {
		return nil, fmt.Errorf("chaos: final: %v", err)
	}

	sn := d.Stats().Snap()
	if o.SnapshotReaders > 0 {
		// Readers have exited (wg above); drain and verify every snapshot
		// observation against the now-complete acked-commit ledger.
		close(obsCh)
		indexObs := 0
		for obs := range obsCh {
			via := "scan"
			if obs.viaIndex {
				via = "index scan"
				indexObs++
			}
			want := snapLedger.applyThrough(obs.s)
			if len(want) != len(obs.rows) {
				return nil, fmt.Errorf("chaos: torn snapshot (%s) at LSN %d: observed %d rows, ledger has %d",
					via, obs.s, len(obs.rows), len(want))
			}
			for k, v := range want {
				if obs.rows[k] != v {
					return nil, fmt.Errorf("chaos: torn snapshot (%s) at LSN %d: key %q = %q, ledger says %q",
						via, obs.s, k, obs.rows[k], v)
				}
			}
			res.SnapshotsVerified++
		}
		if o.SecondaryIndex && indexObs == 0 {
			return nil, fmt.Errorf("chaos: snapshot phase produced no index-scan observations")
		}
		if res.SnapshotsVerified == 0 {
			return nil, fmt.Errorf("chaos: snapshot phase produced no verifiable observations")
		}
		if sn.ReadOnlyLockCalls != 0 {
			return nil, fmt.Errorf("chaos: snapshot readers issued %d lock-manager calls (must be 0)",
				sn.ReadOnlyLockCalls)
		}
		res.SnapshotBegins = sn.SnapshotBegins
		res.SnapshotReads = sn.SnapshotReads
		res.SnapshotTooOld = sn.SnapshotTooOld
		res.ReadOnlyLockCalls = sn.ReadOnlyLockCalls
	}
	res.Commits = int(commits.Load())
	res.GaveUp = int(gaveUp.Load())
	res.Deadlocks = sn.Deadlocks
	res.DeadlockVictims = sn.DeadlockVictims
	res.LockTimeouts = sn.LockTimeouts
	res.TxnRetries = sn.TxnRetries
	res.DeadlockRetries = sn.TxnDeadlockRetries
	res.TimeoutRetries = sn.TxnTimeoutRetries
	res.CrashWaits = sn.TxnCrashWaits
	res.RetrySuccesses = sn.TxnRetrySuccesses
	res.CorruptPages = sn.CorruptPages
	res.MediaRecoveries = sn.MediaRecoveries
	res.RestartRedos = sn.RedoApplied
	res.RestartUndos = sn.UndoPageOriented + sn.UndoLogical
	res.OnlineRestarts = sn.OnlineRestarts
	res.RecoveringRetries = sn.TxnRecoveringRetries
	res.CheckpointsSkipped = sn.CheckpointsSkippedRecovering
	res.PagesOnDemand = sn.PagesRedoneOnDemand
	res.PagesDrained = sn.PagesRedoneByDrain
	if inj != nil {
		res.FaultsInjected = inj.Counts()
	}
	if res.DeadlockRetries == 0 || res.TimeoutRetries == 0 || res.RetrySuccesses == 0 {
		return res, fmt.Errorf("chaos: repair paths under-exercised: %d deadlock retries, %d timeout retries, %d retry successes",
			res.DeadlockRetries, res.TimeoutRetries, res.RetrySuccesses)
	}
	return res, nil
}

// verifyAgainst checks that the engine's visible rows are exactly want and
// that every structural invariant holds.
func verifyAgainst(d *DB, tableName string, want map[string]string) error {
	tbl, err := d.Table(tableName)
	if err != nil {
		return err
	}
	got := map[string]string{}
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	if err := tbl.Scan(tx, []byte(""), nil, func(r Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	}); err != nil {
		return fmt.Errorf("verify scan: %v", err)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("committed row %q missing after restart (want %q)", k, v)
		}
		if gv != v {
			return fmt.Errorf("row %q = %q after restart, want %q", k, gv, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("phantom row %q visible after restart (uncommitted effect?)", k)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		return fmt.Errorf("consistency: %v", err)
	}
	return nil
}

// verifyIndexAgainst cross-checks a secondary index against the committed
// model: an index-order scan must yield every committed row exactly once,
// under exactly the key the extractor derives from its committed value, and
// nothing else — zero base/index divergence at this crash boundary.
func verifyIndexAgainst(d *DB, tableName, indexName string, want map[string]string) error {
	tbl, err := d.Table(tableName)
	if err != nil {
		return err
	}
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	got := map[string]string{} // primary key → secondary key observed
	if err := tbl.ScanIndex(tx, indexName, func(sk []byte, r Row) (bool, error) {
		if prev, dup := got[string(r.Key)]; dup {
			return false, fmt.Errorf("index %q: row %q indexed twice (%q and %q)", indexName, r.Key, prev, sk)
		}
		got[string(r.Key)] = string(sk)
		wv, ok := want[string(r.Key)]
		if !ok {
			return false, fmt.Errorf("index %q: orphan entry %q → uncommitted row %q", indexName, sk, r.Key)
		}
		if string(r.Value) != wv {
			return false, fmt.Errorf("index %q: row %q = %q through the index, committed value %q", indexName, r.Key, r.Value, wv)
		}
		return true, nil
	}); err != nil {
		return fmt.Errorf("index verify scan: %v", err)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for k, v := range want {
		sk, ok := got[k]
		if !ok {
			return fmt.Errorf("index %q: committed row %q missing from index", indexName, k)
		}
		if wantSK := string(chaosIndexExtract([]byte(v))); sk != wantSK {
			return fmt.Errorf("index %q: row %q indexed under %q, extractor derives %q", indexName, k, sk, wantSK)
		}
	}
	return nil
}

// forceDeadlockRepair rendezvouses two RunTxn transactions so each holds
// one of two keys before requesting the other's — a guaranteed waits-for
// cycle. The victim selection aborts one; RunTxn retries it to success.
// A committed separator key sits between the two so their initial inserts
// are not next-key neighbors (adjacent inserts would couple through the
// next-key lock before the rendezvous).
func forceDeadlockRepair(d *DB, tableName string, model *chaosModel, commits *atomic.Int64, ledger *chaosSnapLedger, seed int64) error {
	var sepLocal map[string]*string
	opts := RunTxnOpts{Seed: seed + 17}
	opts.OnCommitted, opts.OnCommit = ackHooks(model, ledger, commits, &sepLocal)
	err := d.RunTxnWith(opts, func(tx *txn.Tx) error {
		sepLocal = map[string]*string{}
		tbl, err := d.TableFor(tx, tableName)
		if err != nil {
			return err
		}
		return chaosUpsert(tbl, tx, []byte("force-dl-ab-sep"), []byte("sep"), sepLocal)
	})
	if err != nil {
		return fmt.Errorf("chaos: forced deadlock separator: %w", err)
	}
	keys := [2][]byte{[]byte("force-dl-a"), []byte("force-dl-b")}
	var barrier sync.WaitGroup
	barrier.Add(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first, second := keys[i], keys[1-i]
			rendezvoused := false
			var local map[string]*string
			opts := RunTxnOpts{Seed: seed + int64(i) + 51}
			opts.OnCommitted, opts.OnCommit = ackHooks(model, ledger, commits, &local)
			errs[i] = d.RunTxnWith(opts, func(tx *txn.Tx) error {
				local = map[string]*string{}
				tbl, err := d.TableFor(tx, tableName)
				if err != nil {
					return err
				}
				if err := chaosUpsert(tbl, tx, first, []byte("dl"), local); err != nil {
					return err
				}
				if !rendezvoused {
					// Only the first attempt synchronizes; the retry (the
					// victim re-executing) must run free or it would wait
					// for a partner that already finished.
					rendezvoused = true
					barrier.Done()
					barrier.Wait()
				}
				return chaosUpsert(tbl, tx, second, []byte("dl"), local)
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos: forced deadlock txn %d: %w", i, err)
		}
	}
	return nil
}

// forceTimeoutRepair parks one transaction on a key well past the lock-wait
// timeout while another requests it: the waiter must time out and RunTxn
// must retry it to success once the holder commits.
func forceTimeoutRepair(d *DB, tableName string, model *chaosModel, commits *atomic.Int64, ledger *chaosSnapLedger, seed int64, timeout time.Duration) error {
	key := []byte("force-to")
	holderHas := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var holderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var local map[string]*string
		opts := RunTxnOpts{Seed: seed + 97}
		opts.OnCommitted, opts.OnCommit = ackHooks(model, ledger, commits, &local)
		holderErr = d.RunTxnWith(opts, func(tx *txn.Tx) error {
			local = map[string]*string{}
			tbl, err := d.TableFor(tx, tableName)
			if err != nil {
				return err
			}
			if err := chaosUpsert(tbl, tx, key, []byte("held"), local); err != nil {
				return err
			}
			once.Do(func() { close(holderHas) })
			time.Sleep(timeout * 5)
			return nil
		})
	}()
	<-holderHas
	var local map[string]*string
	opts := RunTxnOpts{Seed: seed + 193}
	opts.OnCommitted, opts.OnCommit = ackHooks(model, ledger, commits, &local)
	waiterErr := d.RunTxnWith(opts, func(tx *txn.Tx) error {
		local = map[string]*string{}
		tbl, err := d.TableFor(tx, tableName)
		if err != nil {
			return err
		}
		return chaosUpsert(tbl, tx, key, []byte("won"), local)
	})
	wg.Wait()
	if holderErr != nil {
		return fmt.Errorf("chaos: forced timeout holder: %w", holderErr)
	}
	if waiterErr != nil {
		return fmt.Errorf("chaos: forced timeout waiter: %w", waiterErr)
	}
	return nil
}

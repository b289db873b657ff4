package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// Chaos sweep: the concurrent, adversarial counterpart of the serial
// crash-point sweep. N goroutines run a mixed SMO-dense workload through
// RunTxn — deadlocks, lock-wait timeouts, and engine crashes are repaired
// by the retry layer, not the workload — while the driver injects disk
// faults, plants silent corruption, and crashes the engine at random
// points under live traffic. After every crash the committed state is
// verified exactly against the ledger of commits: every acknowledged commit
// is durable, no aborted (some writers roll back on purpose) or in-flight
// effect is visible, and the structural invariants hold.

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
	// Faults injects seeded disk faults, plants silent corruption, and
	// tears the log tail at one last crash once the workers have stopped.
	// The sweep then fails unless some page was healed by media recovery, a
	// torn record was cut, and a writer rolled back (which takes Workers ≥ 3).
	Faults bool
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
	// its key, no orphan entries) in the verification
	// fork AND the restarted engine's final check. With SnapshotReaders,
	// readers alternate base-table and index-order snapshot scans and both
	// observation kinds are ledger-verified.
	SecondaryIndex bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// whileDown is a seam for this package's tests: it runs after every
	// Crash, with the engine still down, and a non-nil error fails the sweep
	// right there.
	whileDown func(point int) error
}

// The chaos engine: small pages force SMOs, a small pool forces steals (so
// restart must undo uncommitted pages that reached disk), and a short
// lock-wait bound makes ErrLockTimeouts for the retry layer to absorb.
const (
	chaosPageSize        = 512
	chaosPoolSize        = 64
	chaosLockWaitTimeout = 20 * time.Millisecond
)

// watchdogPatience is the livelock bound: the run fails if commit
// throughput stalls for this long between crashes — the symptom of retries
// collapsing into livelock.
const watchdogPatience = 15 * time.Second

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
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ChaosResult summarizes a chaos sweep.
type ChaosResult struct {
	Crashes int // crash/restart points survived
	Commits int // transactions acked committed
	// InPlaceUpdates counts the OpDataUpdate records in the final log; a run
	// with none is an error.
	InPlaceUpdates     int
	GaveUp             int // transactions that exhausted their retries (no effect committed)
	Rollbacks          int // writer bodies that asked RunTxn to roll their work back
	MidRecoveryCrashes int // crashes landed while background recovery ran
	SnapshotsVerified  int // snapshot observations verified committed-consistent
	FaultsInjected     storage.FaultCounts
	// Stats is the engine's counters at the end of the run: contention and
	// its repair, restarts, media recovery, snapshot reads.
	Stats trace.Snapshot
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

// chaosTable is the table the chaos sweep runs on.
const chaosTable = "chaos"

// chaosRun is what the sweep's writers share: the engine and the ledger of
// its commits.
type chaosRun struct {
	d   *db.DB
	led *ledger
}

// errRollback is what a writer body returns to roll its completed work back.
var errRollback = errors.New("chaos: voluntary rollback")

// firstErr keeps the first error a sweep's goroutines report.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// upsert is the package's upsert plus staging the result.
func (st staged) upsert(tbl *db.Table, tx *txn.Tx, k, v []byte) error {
	if err := upsert(tbl, tx, k, v); err != nil {
		return err
	}
	s := string(v)
	st[string(k)] = &s
	return nil
}

// write runs body as one RunTxn transaction on the chaos table. What the
// body's last attempt staged is recorded in the ledger once the commit is
// durable and acknowledged with the ack, under the same crash fence.
func (r *chaosRun) write(seed int64, body func(tbl *db.Table, tx *txn.Tx, st staged) error) error {
	var st staged
	var commit wal.LSN
	return r.d.RunTxnWith(db.RunTxnOpts{
		Seed:        seed,
		OnCommitted: func(lsn wal.LSN) { commit = lsn; r.led.record(lsn, st) },
		OnCommit:    func() { r.led.ack(commit) },
	}, func(tx *txn.Tx) error {
		st = staged{} // fresh staging per attempt
		tbl, err := r.d.TableFor(tx, chaosTable)
		if err != nil {
			return err
		}
		return body(tbl, tx, st)
	})
}

// RunChaosSweep runs the concurrent crash-under-load chaos sweep and
// verifies exact committed state after every crash. It returns an error on
// the first verification failure, livelock, or unexpected engine error.
func RunChaosSweep(o ChaosOpts) (*ChaosResult, error) {
	o = o.withDefaults()
	d := db.Open(db.Options{
		PageSize: chaosPageSize, PoolSize: chaosPoolSize,
		LockWaitTimeout: chaosLockWaitTimeout,
		OnlineRestart:   o.OnlineRestart,
		RedoWorkers:     o.RedoWorkers,
	})
	tbl0, err := d.CreateTable(chaosTable)
	if err != nil {
		return nil, fmt.Errorf("chaos: create table: %v", err)
	}
	if o.SecondaryIndex {
		if err := tbl0.CreateIndex(indexName, indexKey); err != nil {
			return nil, fmt.Errorf("chaos: create index: %v", err)
		}
	}
	// verifyState checks an engine's visible rows (and, with SecondaryIndex,
	// the index/base cross-consistency) against a model snapshot, and that
	// its log re-encodes to the bytes it holds.
	verifyState := func(vd *db.DB, want map[string]string) error {
		if err := verifyRows(vd, chaosTable, want); err != nil {
			return err
		}
		if err := vd.VerifyConsistency(); err != nil {
			return fmt.Errorf("consistency: %v", err)
		}
		if err := vd.Log().CodecRoundTrip(); err != nil {
			return fmt.Errorf("log codec: %v", err)
		}
		if o.SecondaryIndex {
			return verifyIndex(vd, chaosTable, indexName, true, want)
		}
		return nil
	}
	run := &chaosRun{d: d, led: newLedger()}
	var gaveUp, rollbacks atomic.Int64
	res := &ChaosResult{}

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
		if err := forceDeadlockRepair(run, o.Seed+int64(tries)); err != nil {
			return nil, err
		}
	}
	for tries := 0; d.Stats().LockTimeouts.Load() == 0; tries++ {
		if tries == 5 {
			return nil, fmt.Errorf("chaos: forced timeout phase timed nothing out in %d tries", tries)
		}
		if err := forceTimeoutRepair(run, o.Seed+int64(tries)); err != nil {
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
	var workerErr firstErr
	// fail ends the run with err. With the engine down the workers are parked
	// in AwaitUp inside RunTxn, which only a Restart releases: they are
	// abandoned there, not waited for, so the failure is reported instead of
	// the process dying with every goroutine asleep.
	down := false
	fail := func(err error) (*ChaosResult, error) {
		close(stop)
		if !down {
			wg.Wait()
		}
		return nil, err
	}

	hot := [][]byte{[]byte("hot-0"), []byte("hot-1"), []byte("hot-2")}
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := NewOps(Mix{
				Keys: 500, InsertFrac: 0.45, DeleteFrac: 0.35, ReadFrac: 0.2,
				Seed: o.Seed + int64(w)*101,
			})
			rng := rand.New(rand.NewSource(o.Seed + int64(w)*977))
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				holder := w == 2 && iter%7 == 0
				err := run.write(o.Seed+int64(w)*1000003+int64(iter), func(tbl *db.Table, tx *txn.Tx, st staged) error {
					// Every third iteration a hot key's new value ends in the
					// four bytes its last committed value ended in, so that
					// the secondary index's key stays put and the update must
					// leave that tree alone. (The ledger may be a commit
					// behind; then the key moves, as on the other iterations.)
					val := func(k []byte) []byte {
						v := fmt.Sprintf("w%d-i%d", w, iter)
						if iter%3 == 0 {
							if old := run.led.latest(string(k)); len(old) >= 4 {
								v += old[len(old)-4:]
							}
						}
						return []byte(v)
					}
					switch {
					case w < 2:
						// Adversary pair: the two hot keys in opposite
						// order — the classic deadlock shape.
						a, b := hot[0], hot[1]
						if w == 1 {
							a, b = b, a
						}
						if err := st.upsert(tbl, tx, a, val(a)); err != nil {
							return err
						}
						if err := st.upsert(tbl, tx, b, val(b)); err != nil {
							return err
						}
					case holder:
						// Slow holder: sits on a hot key past the lock-wait
						// timeout so contenders time out and retry, and in
						// the end rolls all its work back.
						if err := st.upsert(tbl, tx, hot[2], val(hot[2])); err != nil {
							return err
						}
						time.Sleep(chaosLockWaitTimeout * 3 / 2)
					default:
						if rng.Intn(4) == 0 {
							if err := st.upsert(tbl, tx, hot[2], val(hot[2])); err != nil {
								return err
							}
						}
					}
					n := 1 + rng.Intn(5)
					for j := 0; j < n; j++ {
						op := gen.Next()
						switch op.Kind {
						case OpInsert:
							err := tbl.Insert(tx, op.Key, op.Value)
							switch {
							case err == nil:
								v := string(op.Value)
								st[string(op.Key)] = &v
							case errors.Is(err, db.ErrDuplicate):
								// key exists; fine
							default:
								return err
							}
						case OpDelete:
							err := tbl.Delete(tx, op.Key)
							switch {
							case err == nil:
								st[string(op.Key)] = nil
							case errors.Is(err, db.ErrNotFound):
							default:
								return err
							}
						default:
							if _, err := tbl.Get(tx, op.Key); err != nil && !errors.Is(err, db.ErrNotFound) {
								return err
							}
						}
					}
					if holder {
						return errRollback // RunTxn rolls the work above back
					}
					return nil
				})
				if errors.Is(err, errRollback) {
					rollbacks.Add(1)
				} else if err != nil {
					// A transaction that exhausted its retries committed
					// nothing — a legal (if sad) outcome under extreme
					// contention; the watchdog catches systemic collapse.
					// The give-up error wraps its contention/crash cause, so
					// ClassifyErr sees through it; anything genuinely fatal
					// fails the run.
					if db.ClassifyErr(err) == db.ClassFatal {
						workerErr.set(fmt.Errorf("chaos: worker %d: %w", w, err))
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
				err := d.RunReadOnlyWith(db.RunTxnOpts{
					Seed:          o.Seed + int64(r)*7919 + int64(iter),
					RetryDeadline: watchdogPatience,
				}, func(tx *txn.Tx) error {
					obs = nil
					snap := tx.Snapshot()
					tbl, err := d.TableFor(tx, chaosTable)
					if err != nil {
						return err
					}
					rows := map[string]string{}
					if viaIndex && snap != nil {
						// Index-order scan through the lock-free chain merge;
						// the pair must agree with the key on the spot.
						if err := tbl.ScanIndex(tx, indexName, func(sk []byte, row db.Row) (bool, error) {
							if string(sk) != string(indexKey.Key(row.Value)) {
								return false, fmt.Errorf("index scan pair %q / %q disagrees with its key", sk, row.Value)
							}
							if _, dup := rows[string(row.Key)]; dup {
								return false, fmt.Errorf("index scan emitted row %q twice", row.Key)
							}
							rows[string(row.Key)] = string(row.Value)
							return true, nil
						}); err != nil {
							return err
						}
					} else if err := tbl.Scan(tx, nil, nil, func(row db.Row) (bool, error) {
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
					if db.ClassifyErr(err) == db.ClassFatal {
						workerErr.set(fmt.Errorf("chaos: snapshot reader %d: %w", r, err))
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
	// crashRestart crashes the engine and snapshots the ledger — commits are
	// recorded and acked under the same mutex Crash holds, so nothing can slip
	// into it after the crash instant — then forks the crashed stable state and
	// restarts both. The workers resume traffic on the engine at once; the
	// fork proves what a recovery of this exact crash instant yields.
	crashRestart := func(c int, what string, corrupt bool) (*db.DB, map[string]string, error) {
		d.Crash()
		down = true
		snap := run.led.state()
		if o.whileDown != nil {
			if err := o.whileDown(c); err != nil {
				return nil, nil, fmt.Errorf("chaos: crash %d: %w", c, err)
			}
		}
		if corrupt {
			// Both the fork and the restarted engine must heal it.
			if ids := d.Disk().PageIDs(); len(ids) > 0 {
				victim := ids[crashRNG.Intn(len(ids))]
				d.Disk().CorruptBits(victim, crashRNG.Intn(chaosPageSize-1)+1, byte(crashRNG.Intn(255)+1))
			}
		}
		fork := d.Fork()
		if _, err := fork.Restart(); err != nil {
			return nil, nil, fmt.Errorf("chaos: crash %d: %sfork restart: %v", c, what, err)
		}
		if _, err := d.Restart(); err != nil {
			return nil, nil, fmt.Errorf("chaos: crash %d: %srestart: %v", c, what, err)
		}
		down = false
		return fork, snap, nil
	}
	checkFork := func(c int, what string, fork *db.DB, want map[string]string) error {
		if _, err := fork.AwaitRecovered(); err != nil {
			return fmt.Errorf("chaos: crash %d: %sfork await recovered: %v", c, what, err)
		}
		if err := verifyState(fork, want); err != nil {
			return fmt.Errorf("chaos: crash %d: %s%v", c, what, err)
		}
		return nil
	}
	for c := 0; c < o.Crashes; c++ {
		// Let traffic accumulate, with the livelock watchdog running.
		target := run.led.ackedCount() + o.CommitsPerPhase
		deadline := time.Now().Add(watchdogPatience)
		for run.led.ackedCount() < target {
			if err := workerErr.get(); err != nil {
				return fail(err)
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("chaos: livelock: %d/%d commits after %v at crash point %d (retry throughput collapsed)",
					run.led.ackedCount()-(target-o.CommitsPerPhase), o.CommitsPerPhase, watchdogPatience, c))
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

		// Crash under live traffic and verify a recovery of exactly that
		// instant; plant silent corruption on alternate crashed states.
		fork, snap, err := crashRestart(c, "", o.Faults && c%2 == 1)
		if err != nil {
			return fail(err)
		}

		// Under online restart the engine is already serving the workers
		// while its background drain and loser undo run. On a rotating
		// subset, crash it AGAIN inside that window — the hardest crash
		// point: live traffic, half-drained DPT, half-undone losers, no
		// checkpoint taken since before the first crash — and verify a
		// recovery of that instant too.
		if o.OnlineRestart && c%3 == 2 {
			time.Sleep(time.Duration(crashRNG.Intn(1500)+100) * time.Microsecond)
			refork, snap2, err := crashRestart(c, "mid-recovery: ", false)
			if err == nil {
				err = checkFork(c, "mid-recovery: ", refork, snap2)
			}
			if err != nil {
				return fail(err)
			}
			res.MidRecoveryCrashes++
		}
		if err := checkFork(c, "", fork, snap); err != nil {
			return fail(err)
		}
		res.Crashes++
		o.Logf("chaos: crash %2d survived: %4d commits acked, %4d rows verified",
			c, run.led.ackedCount(), len(snap))
	}

	close(stop)
	wg.Wait()
	if err := workerErr.get(); err != nil {
		return nil, err
	}

	// Final quiesced verification on the live engine itself (waiting out
	// any still-running background recovery first).
	if _, err := d.AwaitRecovered(); err != nil {
		return nil, fmt.Errorf("chaos: final await recovered: %v", err)
	}
	want := run.led.state()
	if err := verifyState(d, want); err != nil {
		return nil, fmt.Errorf("chaos: final: %v", err)
	}
	if o.Faults {
		// Tear the log tail only now: under live traffic an unforced commit
		// record could survive without its ack, and a log crash ahead of the
		// engine's would let running transactions append past the rewound
		// frontier. An uncommitted loser puts records past the forced
		// prefix; the crash keeps some and tears the last, and restart must
		// cut that one at its bad CRC and undo the rest.
		loser, err := tearLogTail(d, 1+crashRNG.Intn(3))
		if err != nil {
			return nil, fmt.Errorf("chaos: torn tail: %v", err)
		}
		if err := verifyState(d, want); err != nil {
			return nil, fmt.Errorf("chaos: torn tail: %v\n%s", err, tornTailReport(d, loser))
		}
	}

	if res.InPlaceUpdates = inPlaceUpdates(d.Log()); res.InPlaceUpdates == 0 {
		return nil, errNoInPlaceUpdate
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
			want := run.led.through(obs.s)
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
	}
	res.Commits = run.led.ackedCount()
	res.GaveUp = int(gaveUp.Load())
	res.Rollbacks = int(rollbacks.Load())
	res.Stats = sn
	if inj != nil {
		res.FaultsInjected = inj.Counts()
	}
	if sn.TxnDeadlockRetries == 0 || sn.TxnTimeoutRetries == 0 || sn.TxnRetrySuccesses == 0 {
		return res, fmt.Errorf("chaos: repair paths under-exercised: %d deadlock retries, %d timeout retries, %d retry successes",
			sn.TxnDeadlockRetries, sn.TxnTimeoutRetries, sn.TxnRetrySuccesses)
	}
	if o.Faults && (res.Rollbacks == 0 || sn.TornTailTruncations == 0 || sn.MediaRecoveries == 0) {
		return res, fmt.Errorf("chaos: fault paths under-exercised: %d voluntary rollbacks, %d torn-tail truncations, %d media recoveries",
			res.Rollbacks, sn.TornTailTruncations, sn.MediaRecoveries)
	}
	return res, nil
}

// tornKeys is the number of rows tearLogTail's loser inserts, under the keys
// torn-0, torn-1, ...
const tornKeys = 3

// tearLogTail leaves an uncommitted loser's records past the forced log
// prefix, crashes the log keeping extra of them with the last one torn, then
// crashes and restarts the engine. It returns the loser's transaction ID.
func tearLogTail(d *db.DB, extra int) (wal.TxID, error) {
	tx, err := d.Begin()
	if err != nil {
		return 0, err
	}
	tbl, err := d.TableFor(tx, chaosTable)
	if err != nil {
		return 0, err
	}
	for i := 0; i < tornKeys; i++ {
		if err := tbl.Insert(tx, []byte(fmt.Sprintf("torn-%d", i)), []byte("never-committed")); err != nil {
			return 0, err
		}
	}
	d.Log().CrashWithTornTail(extra)
	d.Crash()
	if _, err := d.Restart(); err != nil {
		return 0, err
	}
	_, err = d.AwaitRecovered()
	return tx.ID, err
}

// tornTailReport describes what the restart after tearLogTail left of its
// loser: the loser's records the log kept, and where each torn-i key lives
// (db.Table.Locate). It is the context of a failed state check after the
// tear.
func tornTailReport(d *db.DB, loser wal.TxID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loser tx %d kept:", loser)
	d.Log().Scan(wal.NilLSN+1, func(r *wal.Record) bool {
		if r.TxID == loser {
			fmt.Fprintf(&b, "\n  LSN %d %s op=%s page=%d", r.LSN, r.Type, r.Op, r.Page)
		}
		return true
	})
	tbl, err := d.Table(chaosTable)
	if err != nil {
		return b.String() + "\n" + err.Error()
	}
	keys := make([][]byte, tornKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("torn-%d", i))
	}
	locs, err := tbl.Locate(keys...)
	if err != nil {
		return b.String() + "\n" + err.Error()
	}
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %s: %s", k, locs[string(k)])
	}
	return b.String()
}

// forceDeadlockRepair rendezvouses two RunTxn transactions so each holds
// one of two keys before requesting the other's — a guaranteed waits-for
// cycle. The victim selection aborts one; RunTxn retries it to success.
// A committed separator row sits between the two, by key and — for the
// secondary index — by value, so their initial inserts are not next-key
// neighbors in either tree (adjacent inserts would couple through the
// next-key lock before the rendezvous, and the blocked one would time out
// there until it gave up).
func forceDeadlockRepair(run *chaosRun, seed int64) error {
	err := run.write(seed+17, func(tbl *db.Table, tx *txn.Tx, st staged) error {
		return st.upsert(tbl, tx, []byte("force-dl-ab-sep"), []byte("dl-m"))
	})
	if err != nil {
		return fmt.Errorf("chaos: forced deadlock separator: %w", err)
	}
	keys := [2][]byte{[]byte("force-dl-a"), []byte("force-dl-b")}
	vals := [2][]byte{[]byte("dl-a"), []byte("dl-z")}
	var barrier sync.WaitGroup
	barrier.Add(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first, second, val := keys[i], keys[1-i], vals[i]
			rendezvoused := false
			errs[i] = run.write(seed+int64(i)+51, func(tbl *db.Table, tx *txn.Tx, st staged) error {
				if err := st.upsert(tbl, tx, first, val); err != nil {
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
				return st.upsert(tbl, tx, second, val)
			})
			if !rendezvoused {
				barrier.Done() // gave up before the rendezvous: don't strand the partner there
			}
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
func forceTimeoutRepair(run *chaosRun, seed int64) error {
	key := []byte("force-to")
	holderHas := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var holderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		holderErr = run.write(seed+97, func(tbl *db.Table, tx *txn.Tx, st staged) error {
			if err := st.upsert(tbl, tx, key, []byte("held")); err != nil {
				return err
			}
			once.Do(func() { close(holderHas) })
			time.Sleep(chaosLockWaitTimeout * 5)
			return nil
		})
	}()
	<-holderHas
	waiterErr := run.write(seed+193, func(tbl *db.Table, tx *txn.Tx, st staged) error {
		return st.upsert(tbl, tx, key, []byte("won"))
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

// Command ariesim-crash tortures the engine with crash/restart cycles:
// each round runs a concurrent random workload, crashes at an arbitrary
// moment (in-flight transactions lose their unforced log tail), restarts,
// and verifies that (a) every transaction whose commit record survived is
// fully present, (b) no other transaction left a trace, and (c) every
// structural invariant of the tree and record heap holds.
//
// The fault flags turn the simulated hardware hostile: -faults makes the
// disk fail, tear, and bit-flip page I/O under a seeded schedule, -torn
// tears the log tail at each crash, and -bitflip plants silent on-disk
// corruption each round. The engine must absorb all of it: transient
// errors are retried, checksum-detected corruption is healed by media
// recovery, and a torn log is truncated at the first bad-CRC record.
//
// The -chaos mode runs the concurrent adversarial sweep instead: N
// goroutines drive the workload through db.RunTxn — deadlock victims,
// lock-wait timeouts, and crashes are repaired by automatic retry — while
// the harness injects faults and crashes the engine at random points under
// live traffic, verifying exact committed state after every restart.
//
// The -standby mode runs the hot-standby failover sweep: a primary ships
// WAL to a standby over a seeded lossy channel (drops, duplicates,
// reorders, corruption, stalls) while concurrent clients commit through
// the semi-sync gate; the primary is crashed under live traffic, the
// standby is promoted, the zombie primary's stragglers must bounce off
// the epoch fence, and the promoted node is verified byte-exactly against
// the acked-commit ledger — plus one promotion fork per log record
// boundary of the standby's received window.
//
//	ariesim-crash -rounds 20 -workers 4 -ops 300 -seed 1
//	ariesim-crash -rounds 10 -faults -torn -bitflip
//	ariesim-crash -sweep               # every-boundary crash-point sweep
//	ariesim-crash -chaos -workers 8 -crashes 20 -faults
//	ariesim-crash -chaos -online -workers 8 -crashes 20 -faults
//	ariesim-crash -standby -faults     # hot-standby failover sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"ariesim/internal/db"
	"ariesim/internal/harness"
	"ariesim/internal/lock"
	"ariesim/internal/repl"
	"ariesim/internal/storage"
)

func main() {
	rounds := flag.Int("rounds", 10, "crash/restart cycles")
	workers := flag.Int("workers", 4, "concurrent transactions per round")
	ops := flag.Int("ops", 200, "operations per worker per round")
	seed := flag.Int64("seed", 1, "workload seed")
	pageSize := flag.Int("pagesize", 512, "page size (small pages force SMOs)")
	poolSize := flag.Int("pool", 64, "buffer pool frames (small pools force steals)")
	faults := flag.Bool("faults", false, "inject seeded disk faults (failed/torn/bit-flipped I/O)")
	torn := flag.Bool("torn", false, "tear the log tail at each crash")
	bitflip := flag.Bool("bitflip", false, "plant silent corruption on a random disk page each round")
	sweep := flag.Bool("sweep", false, "run the every-log-boundary crash-point sweep instead of torture rounds")
	chaos := flag.Bool("chaos", false, "run the concurrent crash-under-load chaos sweep instead of torture rounds")
	crashes := flag.Int("crashes", 20, "chaos mode: crash/restart points")
	online := flag.Bool("online", false, "chaos mode: recover with online restart (open after analysis; a rotating subset of points re-crashes mid-recovery)")
	redoWorkers := flag.Int("redo", 8, "chaos -online mode: parallel redo/drain workers")
	mvccReaders := flag.Int("mvcc", 0, "chaos mode: concurrent lock-free snapshot readers; every observation is verified committed-consistent against the acked-commit ledger")
	secIndex := flag.Bool("index", false, "chaos mode: maintain a secondary index through the whole run and cross-verify it against the base table at every crash boundary")
	standby := flag.Bool("standby", false, "run the hot-standby failover sweep (crash the primary under live replicated traffic, promote, verify)")
	commits := flag.Int("commits", 120, "standby mode: acked commits before the primary is crashed")
	flag.Parse()

	if *standby {
		runStandby(*seed, *workers, *commits, *faults, *online, *redoWorkers)
		return
	}
	if *sweep {
		runSweep(*seed)
		return
	}
	if *chaos {
		runChaos(*seed, *workers, *crashes, *faults, *online, *redoWorkers, *mvccReaders, *secIndex)
		return
	}

	d := db.Open(db.Options{PageSize: *pageSize, PoolSize: *poolSize})
	tbl, err := d.CreateTable("torture")
	if err != nil {
		fail("create table: %v", err)
	}

	var inj *storage.Faults
	if *faults {
		inj = storage.NewFaults(storage.FaultConfig{
			Seed:           *seed,
			ReadErrorProb:  0.03,
			WriteErrorProb: 0.03,
			TornWriteProb:  0.05,
			BitFlipProb:    0.05,
		})
		d.Disk().SetInjector(inj)
	}
	crashRNG := rand.New(rand.NewSource(*seed * 31))

	// committed mirrors exactly the state the committed transactions
	// produced, maintained under a mutex at commit points.
	committed := map[string]string{}
	var mu sync.Mutex

	totalCommits, totalCrashes := 0, 0
	for round := 0; round < *rounds; round++ {
		var wg sync.WaitGroup
		var commits int
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := harness.NewOps(harness.Mix{
					Keys: 600, InsertFrac: 0.5, DeleteFrac: 0.3, ReadFrac: 0.2,
					Seed: *seed + int64(round*1000+w),
				})
				rng := rand.New(rand.NewSource(*seed + int64(round*77+w)))
				for i := 0; i < *ops; {
					// One transaction of 1..6 operations.
					n := rng.Intn(6) + 1
					tx, err := d.Begin()
					if err != nil {
						fail("begin: %v", err)
					}
					local := map[string]*string{} // staged changes
					ok := true
					for j := 0; j < n && ok; j++ {
						op := gen.Next()
						i++
						switch op.Kind {
						case harness.OpInsert:
							err := tbl.Insert(tx, op.Key, op.Value)
							switch {
							case err == nil:
								v := string(op.Value)
								local[string(op.Key)] = &v
							case errors.Is(err, db.ErrDuplicate):
								// fine: key exists
							case errors.Is(err, lock.ErrDeadlock):
								ok = false
							default:
								fail("insert: %v", err)
							}
						case harness.OpDelete:
							err := tbl.Delete(tx, op.Key)
							switch {
							case err == nil:
								local[string(op.Key)] = nil
							case errors.Is(err, db.ErrNotFound):
							case errors.Is(err, lock.ErrDeadlock):
								ok = false
							default:
								fail("delete: %v", err)
							}
						default:
							if _, err := tbl.Get(tx, op.Key); err != nil &&
								!errors.Is(err, db.ErrNotFound) && !errors.Is(err, lock.ErrDeadlock) {
								fail("get: %v", err)
							}
						}
					}
					if !ok || rng.Intn(5) == 0 {
						if err := tx.Rollback(); err != nil {
							fail("rollback: %v", err)
						}
						continue
					}
					mu.Lock()
					if err := tx.Commit(); err != nil {
						mu.Unlock()
						fail("commit: %v", err)
					}
					for k, v := range local {
						if v == nil {
							delete(committed, k)
						} else {
							committed[k] = *v
						}
					}
					commits++
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		totalCommits += commits

		// Pre-crash verification: distinguishes concurrency bugs (visible
		// now) from recovery bugs (appearing only after restart).
		preRows := map[string]bool{}
		pre, err := d.Begin()
		if err != nil {
			fail("pre-crash begin: %v", err)
		}
		if err := tbl.Scan(pre, []byte(""), nil, func(r db.Row) (bool, error) {
			preRows[string(r.Key)] = true
			return true, nil
		}); err != nil {
			fail("pre-crash scan: %v", err)
		}
		_ = pre.Commit()
		if len(preRows) != len(committed) {
			for k := range preRows {
				if _, ok := committed[k]; !ok {
					fmt.Fprintf(os.Stderr, "PRE-CRASH EXTRA row %q\n", k)
				}
			}
			fail("round %d PRE-CRASH: %d rows vs %d committed", round, len(preRows), len(committed))
		}

		// Push every dirty page through the (possibly faulty) device so the
		// write fates actually fire and the disk has pages to corrupt; the
		// crash then drops the pool, forcing restart to reread them all.
		if *faults || *torn || *bitflip {
			if err := d.Pool().FlushAll(); err != nil {
				fail("round %d: flush: %v", round, err)
			}
		}

		// Silent corruption: flip stored bits on a random disk page without
		// updating its checksum; the post-restart sweep must heal it.
		if *bitflip {
			if ids := d.Disk().PageIDs(); len(ids) > 0 {
				victim := ids[crashRNG.Intn(len(ids))]
				d.Disk().CorruptBits(victim, crashRNG.Intn(*pageSize-1)+1, byte(crashRNG.Intn(255)+1))
			}
		}

		// Crash. Whatever was not forced (in-flight work) is gone; the
		// commit protocol forced everything in `committed`. A torn crash
		// lets a few unforced records survive with the last one torn —
		// commits are always in the forced prefix, so the model still holds.
		if *torn {
			d.Log().CrashWithTornTail(1 + crashRNG.Intn(3))
		}
		d.Crash()
		totalCrashes++
		if _, err := d.Restart(); err != nil {
			fail("round %d: restart: %v", round, err)
		}
		tbl, err = d.Table("torture")
		if err != nil {
			fail("reopen: %v", err)
		}
		if err := d.VerifyConsistency(); err != nil {
			fail("round %d: consistency: %v", round, err)
		}
		// Exact-state check against the committed model.
		rows := map[string]string{}
		tx, err := d.Begin()
		if err != nil {
			fail("post-restart begin: %v", err)
		}
		if err := tbl.Scan(tx, []byte(""), nil, func(r db.Row) (bool, error) {
			rows[string(r.Key)] = string(r.Value)
			return true, nil
		}); err != nil {
			fail("scan: %v", err)
		}
		_ = tx.Commit()
		if len(rows) != len(committed) {
			for k := range rows {
				if _, ok := committed[k]; !ok {
					fmt.Fprintf(os.Stderr, "EXTRA row %q = %q\n", k, rows[k])
				}
			}
			for k := range committed {
				if _, ok := rows[k]; !ok {
					fmt.Fprintf(os.Stderr, "MISSING row %q (want %q)\n", k, committed[k])
				}
			}
			fail("round %d: %d rows vs %d committed", round, len(rows), len(committed))
		}
		for k, v := range committed {
			if rows[k] != v {
				fail("round %d: key %q = %q, want %q", round, k, rows[k], v)
			}
		}
		fmt.Printf("round %2d: %4d commits, %5d rows verified after crash+restart\n",
			round, commits, len(rows))

		// Occasionally checkpoint so later rounds exercise bounded analysis.
		if round%3 == 2 {
			d.Checkpoint()
		}
	}
	sn := d.Stats().Snap()
	fmt.Printf("\nPASS: %d crashes survived, %d transactions committed\n", totalCrashes, totalCommits)
	fmt.Printf("engine totals: %d traversals, %d splits, %d page deletes, %d logical undos, %d page-oriented undos, %d redos\n",
		sn.Traversals, sn.PageSplits, sn.PageDeletes, sn.UndoLogical, sn.UndoPageOriented, sn.RedoApplied)
	if *faults || *torn || *bitflip {
		fmt.Printf("fault handling: %d corrupt pages detected, %d media recoveries, %d torn-tail truncations, %d I/O retries\n",
			sn.CorruptPages, sn.MediaRecoveries, sn.TornTailTruncations, sn.IORetries)
	}
	if inj != nil {
		c := inj.Counts()
		fmt.Printf("faults injected: %d read errors, %d write errors, %d torn writes, %d bit flips\n",
			c.ReadFaults, c.WriteFaults, c.TornWrites, c.BitFlips)
	}
}

// runSweep exhaustively crash-tests every log record boundary of a
// scripted workload, double-crashing each point mid-restart.
func runSweep(seed int64) {
	res, err := harness.CrashSweep(harness.SweepOpts{
		Seed: seed,
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fail("sweep: %v", err)
	}
	fmt.Printf("\nPASS: %d/%d crash points verified (%d with interrupted restarts), %d commits, %d rollbacks, %d updates in place\n",
		res.Points, res.Records, res.DoubleRecoveries, res.Commits, res.Rollbacks, res.InPlaceUpdates)
}

// runChaos drives the concurrent crash-under-load sweep: workers hammer
// the engine through db.RunTxn while the driver injects faults and
// crashes it at random points, verifying the acked-commit model exactly
// after every restart.
func runChaos(seed int64, workers, crashes int, faults, online bool, redoWorkers, mvccReaders int, secIndex bool) {
	res, err := harness.RunChaosSweep(harness.ChaosOpts{
		Seed:            seed,
		Workers:         workers,
		Crashes:         crashes,
		Faults:          faults,
		OnlineRestart:   online,
		RedoWorkers:     redoWorkers,
		SnapshotReaders: mvccReaders,
		SecondaryIndex:  secIndex,
		Logf:            func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fail("chaos: %v", err)
	}
	fmt.Printf("\nPASS: %d crashes survived under live traffic, %d commits verified (%d gave up)\n",
		res.Crashes, res.Commits, res.GaveUp)
	if secIndex {
		fmt.Printf("secondary index: cross-verified against the base table at every crash boundary\n")
	}
	fmt.Printf("contention: %d deadlocks (%d victims), %d lock timeouts\n",
		res.Deadlocks, res.DeadlockVictims, res.LockTimeouts)
	fmt.Printf("retry layer: %d retries (%d deadlock, %d timeout, %d crash-wait), %d retried txns committed\n",
		res.TxnRetries, res.DeadlockRetries, res.TimeoutRetries, res.CrashWaits, res.RetrySuccesses)
	fmt.Printf("recovery: %d redos, %d undo steps across restarts, %d updates in place in the log\n",
		res.RestartRedos, res.RestartUndos, res.InPlaceUpdates)
	if online {
		fmt.Printf("online restart: %d online restarts, %d mid-recovery crashes, %d recovering retries\n",
			res.OnlineRestarts, res.MidRecoveryCrashes, res.RecoveringRetries)
		fmt.Printf("online redo: %d pages on demand at fix time, %d by background drain, %d checkpoints fenced\n",
			res.PagesOnDemand, res.PagesDrained, res.CheckpointsSkipped)
	}
	if mvccReaders > 0 {
		fmt.Printf("mvcc: %d snapshots verified committed-consistent (%d begun, %d row reads, %d too-old retries, %d reader lock calls)\n",
			res.SnapshotsVerified, res.SnapshotBegins, res.SnapshotReads, res.SnapshotTooOld, res.ReadOnlyLockCalls)
	}
	if faults {
		fmt.Printf("fault handling: %d corrupt pages healed by %d media recoveries\n",
			res.CorruptPages, res.MediaRecoveries)
		c := res.FaultsInjected
		fmt.Printf("faults injected: %d read errors, %d write errors, %d torn writes, %d bit flips\n",
			c.ReadFaults, c.WriteFaults, c.TornWrites, c.BitFlips)
	}
}

// runStandby drives the hot-standby failover sweep: live replicated
// traffic through the semi-sync gate, a primary crash, a promotion, a
// fenced zombie, and exact + every-boundary verification on the standby.
func runStandby(seed int64, workers, commits int, faults, online bool, redoWorkers int) {
	f := repl.ChannelFaults{Seed: seed}
	if faults {
		f.DropProb, f.DupProb, f.ReorderProb = 0.15, 0.08, 0.08
		f.CorruptProb, f.StallProb = 0.05, 0.02
	}
	res, err := harness.RunStandbySweep(harness.StandbySweepOpts{
		Seed:            seed,
		Workers:         workers,
		PreCrashCommits: commits,
		Faults:          f,
		SyncGate:        true,
		OnlineRestart:   online,
		RedoWorkers:     redoWorkers,
		Logf:            func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	})
	if err != nil {
		fail("standby: %v", err)
	}
	fmt.Printf("\nPASS: failover verified — %d acked commits, zero acked loss, %d boundary forks, %d updates in place replayed\n",
		res.CommitsAcked, res.Boundaries, res.InPlaceUpdates)
	fmt.Printf("ambiguity: %d gate-failed commits (%d resolved present, %d resolved lost)\n",
		res.CommitsUnacked, res.ResolvedIn, res.ResolvedOut)
	fmt.Printf("shipping: %d segments shipped, %d resent, %d applied, %d rejected; %d naks, %d reseeds\n",
		res.SegmentsShipped, res.SegmentsResent, res.SegmentsApplied, res.SegmentsRejected,
		res.Naks, res.Reseeds)
	fmt.Printf("channel faults: %+v\n", res.Channel)
	fmt.Printf("failover: TTFC %v, zombie segments fenced %d, lag p50 %.0f / p99 %.0f log bytes\n",
		res.FailoverTTFC, res.ZombieRejected, res.LagP50, res.LagP99)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	os.Exit(1)
}

// Command ariesim-crash runs the engine's crash-robustness sweeps
// (internal/harness) and prints their verdicts.
//
// The default mode is the chaos sweep: N goroutines drive a random workload
// through db.RunTxn — deadlock victims, lock-wait timeouts and crashes are
// repaired by automatic retry, and some writers roll their work back on
// purpose — while the harness crashes the engine at random points under live
// traffic and verifies exact committed state after every restart. -faults
// makes the disk fail, tear and bit-flip page I/O, plants silent corruption,
// and tears the log tail at a last crash once the workers have stopped.
//
// The -sweep mode crashes a scripted serial workload at every log record
// boundary and recovers each point twice.
//
// The -standby mode runs the hot-standby failover sweep: a primary ships
// WAL to a standby over a seeded lossy channel (drops, duplicates,
// reorders, corruption, stalls) while concurrent clients commit through
// the semi-sync gate; the primary is crashed under live traffic, the
// standby is promoted, the zombie primary's stragglers must bounce off
// the promotion fence, and the promoted node is verified byte-exactly against
// the acked-commit ledger — plus one promotion fork per log record
// boundary of the standby's received window.
//
// A flag the selected mode does not read is an error.
//
//	ariesim-crash -workers 4 -crashes 3 -seed 1 -faults
//	ariesim-crash -online -workers 8 -crashes 20 -faults -mvcc 4 -index
//	ariesim-crash -sweep               # every-boundary crash-point sweep
//	ariesim-crash -standby -faults     # hot-standby failover sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ariesim/internal/harness"
	"ariesim/internal/repl"
)

func main() {
	workers := flag.Int("workers", 4, "concurrent client goroutines")
	seed := flag.Int64("seed", 1, "workload seed")
	faults := flag.Bool("faults", false, "chaos: seeded disk faults, planted corruption and a torn log tail; standby: a lossy channel")
	sweep := flag.Bool("sweep", false, "run the every-log-boundary crash-point sweep instead of the chaos sweep")
	crashes := flag.Int("crashes", 20, "chaos: crash/restart points")
	online := flag.Bool("online", false, "recover with online restart (open after analysis; chaos re-crashes a rotating subset of points mid-recovery)")
	redoWorkers := flag.Int("redo", 8, "goroutines replaying pages (one page at a time each) in every chaos restart's redo and the standby sweep's apply; 0 or 1 is one goroutine")
	mvccReaders := flag.Int("mvcc", 0, "chaos: concurrent lock-free snapshot readers; every observation is verified against the commit ledger")
	secIndex := flag.Bool("index", false, "chaos: maintain a secondary index through the whole run and cross-verify it against the base table at every crash boundary")
	standby := flag.Bool("standby", false, "run the hot-standby failover sweep (crash the primary under live replicated traffic, promote, verify)")
	commits := flag.Int("commits", 120, "standby: acked commits before the primary is crashed")
	flag.Parse()

	mode, reads := "chaos", "workers crashes faults online redo mvcc index"
	switch {
	case *sweep:
		mode, reads = "sweep", ""
	case *standby:
		mode, reads = "standby", "workers commits faults online redo"
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "seed" && f.Name != mode && !strings.Contains(" "+reads+" ", " "+f.Name+" ") {
			fail("-%s is not read by the %s mode", f.Name, mode)
		}
	})
	switch mode {
	case "sweep":
		runSweep(*seed)
	case "standby":
		runStandby(*seed, *workers, *commits, *faults, *online, *redoWorkers)
	default:
		runChaos(*seed, *workers, *crashes, *faults, *online, *redoWorkers, *mvccReaders, *secIndex)
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
	fmt.Printf("\nPASS: %d crash points verified (%d with interrupted restarts), %d commits, %d rollbacks, %d updates in place\n",
		res.Records, res.DoubleRecoveries, res.Commits, res.Rollbacks, res.InPlaceUpdates)
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
		fail("%v", err)
	}
	fmt.Printf("\nPASS: %d crashes survived under live traffic, %d commits verified (%d gave up)\n",
		res.Crashes, res.Commits, res.GaveUp)
	if secIndex {
		fmt.Printf("secondary index: cross-verified against the base table at every crash boundary\n")
	}
	st := res.Stats
	fmt.Printf("contention: %d deadlocks (%d victims), %d lock timeouts\n",
		st.Deadlocks, st.DeadlockVictims, st.LockTimeouts)
	fmt.Printf("retry layer: %d retries (%d deadlock, %d timeout, %d crash-wait), %d retried txns committed\n",
		st.TxnRetries, st.TxnDeadlockRetries, st.TxnTimeoutRetries, st.TxnCrashWaits, st.TxnRetrySuccesses)
	fmt.Printf("recovery: %d redos, %d undo steps across restarts, %d updates in place in the log\n",
		st.RedoApplied, st.UndoPageOriented+st.UndoLogical, res.InPlaceUpdates)
	if online {
		fmt.Printf("online restart: %d online restarts, %d mid-recovery crashes, %d recovering retries\n",
			st.OnlineRestarts, res.MidRecoveryCrashes, st.TxnRecoveringRetries)
		fmt.Printf("online redo: %d pages on demand at fix time, %d by background drain, %d checkpoints fenced\n",
			st.PagesRedoneOnDemand, st.PagesRedoneByDrain, st.CheckpointsSkippedRecovering)
	}
	if mvccReaders > 0 {
		fmt.Printf("mvcc: %d snapshots verified committed-consistent (%d begun, %d row reads, %d too-old retries, %d reader lock calls)\n",
			res.SnapshotsVerified, st.SnapshotBegins, st.SnapshotReads, st.SnapshotTooOld, st.ReadOnlyLockCalls)
	}
	if faults {
		fmt.Printf("fault handling: %d voluntary rollbacks, %d torn-tail truncations, %d corrupt pages healed by %d media recoveries\n",
			res.Rollbacks, st.TornTailTruncations, st.CorruptPages, st.MediaRecoveries)
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
	fmt.Printf("shipping: %d segments shipped, %d resent, %d applied, %d rejected\n",
		res.Primary.SegmentsShipped, res.Primary.SegmentsResent, res.Promoted.SegmentsApplied,
		res.Promoted.SegmentsRejected)
	fmt.Printf("channel faults: %+v\n", res.Channel)
	fmt.Printf("failover: TTFC %v, zombie segments fenced %d\n",
		res.FailoverTTFC, res.ZombieRejected)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	os.Exit(1)
}

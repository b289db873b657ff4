// The crash-point sweep is the engine's crash-robustness test; the sweep itself lives in
// internal/harness (which imports this package, hence the external test
// package).
package db_test

import (
	"testing"

	"ariesim/internal/harness"
)

// TestCrashSweepEveryBoundary is the tentpole robustness test: every log
// record boundary of an SMO-heavy workload becomes a crash point, each
// point recovers twice (the first restart is itself crashed mid-undo),
// and the recovered state must exactly equal the covered committed
// snapshot under full consistency verification.
func TestCrashSweepEveryBoundary(t *testing.T) {
	opts := harness.SweepOpts{Seed: 42, Logf: t.Logf}
	if testing.Short() {
		opts.Txns = 12
	}
	res, err := harness.CrashSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweep: %d points, %d commits, %d rollbacks, %d double recoveries",
		res.Records, res.Commits, res.Rollbacks, res.DoubleRecoveries)
	min := 300
	if testing.Short() {
		min = 60
	}
	if res.Records < min {
		t.Fatalf("only %d crash points; want >= %d (workload too small to be exhaustive)", res.Records, min)
	}
	if res.DoubleRecoveries == 0 {
		t.Fatal("no point interrupted its first restart mid-undo; the double-recovery path went unexercised")
	}
	if res.OnlineRecrashes == 0 {
		t.Fatal("no online recovery was re-crashed mid-flight")
	}
	if res.Rollbacks == 0 || res.Commits == 0 {
		t.Fatalf("workload not mixed: %d commits, %d rollbacks", res.Commits, res.Rollbacks)
	}
}

// TestCrashSweepSecondaryIndex re-runs the boundary sweep with a secondary
// index riding on every transaction: each crash point must recover the
// base table AND the index to the covered committed snapshot, after both
// the offline double-recovery and the online (re-crashed) restart.
func TestCrashSweepSecondaryIndex(t *testing.T) {
	opts := harness.SweepOpts{Seed: 43, Txns: 25, SecondaryIndex: true, Logf: t.Logf}
	if testing.Short() {
		opts.Txns = 8
	}
	res, err := harness.CrashSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweep: %d points, %d commits, %d rollbacks, %d double recoveries",
		res.Records, res.Commits, res.Rollbacks, res.DoubleRecoveries)
	if res.Rollbacks == 0 || res.Commits == 0 {
		t.Fatalf("workload not mixed: %d commits, %d rollbacks", res.Commits, res.Rollbacks)
	}
}

// TestCrashSweepDeterministic re-runs a small sweep with the same seed and
// expects identical shape — the substrate promise that lets a failing
// crash point be replayed exactly.
func TestCrashSweepDeterministic(t *testing.T) {
	run := func() *harness.SweepResult {
		res, err := harness.CrashSweep(harness.SweepOpts{Seed: 7, Txns: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *a != *b {
		t.Fatalf("same seed, different sweeps:\n  %+v\n  %+v", *a, *b)
	}
}

// TestCrashSweepParallelRedo re-runs the exhaustive crash-point sweep with
// parallel redo on every fork: every boundary must still recover to the
// exact covered committed snapshot under full consistency verification.
func TestCrashSweepParallelRedo(t *testing.T) {
	opts := harness.SweepOpts{Seed: 99, Txns: 20, RedoWorkers: 8, Logf: t.Logf}
	if testing.Short() {
		opts.Txns = 8
	}
	res, err := harness.CrashSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("sweep exercised no crash points")
	}
}

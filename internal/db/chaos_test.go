// The chaos sweep is the engine's crash-robustness test; the sweep itself lives in
// internal/harness (which imports this package, hence the external test
// package).
package db_test

import (
	"testing"

	"ariesim/internal/harness"
)

// TestChaosSweep runs a scaled-down chaos sweep: concurrent workers
// through RunTxn, injected disk faults, crashes under live traffic, exact
// committed-state verification after every restart. The full-size run
// (8 workers, 20 crashes) is `make chaos`; -short shrinks this further.
func TestChaosSweep(t *testing.T) {
	o := harness.ChaosOpts{
		Seed:            1,
		Workers:         8,
		Crashes:         5,
		CommitsPerPhase: 12,
		Faults:          true,
		Logf:            t.Logf,
	}
	if testing.Short() {
		o.Workers = 4
		o.Crashes = 2
		o.CommitsPerPhase = 6
	}
	res, err := harness.RunChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != o.Crashes {
		t.Errorf("crashes = %d, want %d", res.Crashes, o.Crashes)
	}
	if res.Commits == 0 {
		t.Error("no commits acked")
	}
	// The contract the retry layer exists for: both contention repair
	// paths exercised and retried through to a successful commit.
	st := res.Stats
	if st.DeadlockVictims == 0 {
		t.Error("no deadlock victim was aborted")
	}
	if st.LockTimeouts == 0 {
		t.Error("no lock wait timed out")
	}
	if st.TxnDeadlockRetries == 0 || st.TxnTimeoutRetries == 0 || st.TxnRetrySuccesses == 0 {
		t.Errorf("retry counters: deadlock=%d timeout=%d successes=%d, want all > 0",
			st.TxnDeadlockRetries, st.TxnTimeoutRetries, st.TxnRetrySuccesses)
	}
	t.Logf("chaos result: %+v", res)
}

// TestChaosSweepOnlineRestart reruns the chaos sweep with online restarts:
// workers resume the instant analysis finishes (racing the background
// drain and loser undo), and a rotating subset of crash points re-crashes
// the engine mid-recovery. Verification is the same exact committed model.
// This is the run `make race` puts under the race detector.
func TestChaosSweepOnlineRestart(t *testing.T) {
	o := harness.ChaosOpts{
		Seed:            3,
		Workers:         8,
		Crashes:         6,
		CommitsPerPhase: 12,
		Faults:          true,
		OnlineRestart:   true,
		RedoWorkers:     8,
		Logf:            t.Logf,
	}
	if testing.Short() {
		o.Workers = 4
		o.Crashes = 3
		o.CommitsPerPhase = 6
	}
	res, err := harness.RunChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != o.Crashes {
		t.Errorf("crashes = %d, want %d", res.Crashes, o.Crashes)
	}
	if res.Stats.OnlineRestarts == 0 {
		t.Error("no restart ran online")
	}
	if res.MidRecoveryCrashes == 0 {
		t.Error("no crash landed mid-recovery")
	}
	if res.Stats.PagesRedoneOnDemand+res.Stats.PagesRedoneByDrain == 0 {
		t.Error("no pages recovered by hook or drain")
	}
	t.Logf("chaos result: %+v", res)
}

// TestChaosSweepSecondaryIndex reruns the chaos sweep with a secondary
// index maintained transactionally for the whole run and snapshot readers
// alternating base-table and index-order scans. Every crash boundary
// cross-verifies the index against the base table (offline restarts here;
// TestChaosSweepSecondaryIndexOnline covers the online mode), and every
// index-scan snapshot observation is ledger-verified like a base scan.
// The full-size runs are `make chaos-index`.
func TestChaosSweepSecondaryIndex(t *testing.T) {
	o := harness.ChaosOpts{
		Seed:            5,
		Workers:         8,
		Crashes:         5,
		CommitsPerPhase: 12,
		Faults:          true,
		SecondaryIndex:  true,
		SnapshotReaders: 2,
		Logf:            t.Logf,
	}
	if testing.Short() {
		o.Workers = 4
		o.Crashes = 2
		o.CommitsPerPhase = 6
	}
	res, err := harness.RunChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != o.Crashes {
		t.Errorf("crashes = %d, want %d", res.Crashes, o.Crashes)
	}
	if res.SnapshotsVerified == 0 {
		t.Error("no snapshot observations verified")
	}
	if res.Stats.ReadOnlyLockCalls != 0 {
		t.Errorf("snapshot readers made %d lock calls, want 0", res.Stats.ReadOnlyLockCalls)
	}
	t.Logf("chaos result: %+v", res)
}

// TestChaosSweepSecondaryIndexOnline is the online-restart counterpart:
// index/base cross-verification at crash boundaries that land while the
// background drain and loser undo are still running.
func TestChaosSweepSecondaryIndexOnline(t *testing.T) {
	o := harness.ChaosOpts{
		Seed:            7,
		Workers:         8,
		Crashes:         6,
		CommitsPerPhase: 12,
		Faults:          true,
		OnlineRestart:   true,
		RedoWorkers:     8,
		SecondaryIndex:  true,
		SnapshotReaders: 2,
		Logf:            t.Logf,
	}
	if testing.Short() {
		o.Workers = 4
		o.Crashes = 3
		o.CommitsPerPhase = 6
	}
	res, err := harness.RunChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != o.Crashes {
		t.Errorf("crashes = %d, want %d", res.Crashes, o.Crashes)
	}
	if res.MidRecoveryCrashes == 0 {
		t.Error("no crash landed mid-recovery")
	}
	t.Logf("chaos result: %+v", res)
}

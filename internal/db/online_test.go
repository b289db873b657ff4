package db

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ariesim/internal/recovery"
	"ariesim/internal/txn"
)

// buildOnlineBase populates a small-page engine with committed rows, takes
// a checkpoint partway so analysis has a master record to start from, and
// leaves an in-flight insert-only loser plus an in-flight delete loser
// forced into the stable log. Returns the committed model.
func buildOnlineBase(t *testing.T, d *DB, rows int) map[string]string {
	t.Helper()
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	model := map[string]string{}
	for i := 0; i < rows; i++ {
		tx := d.MustBegin()
		key, val := string(k(i)), string(v(i))
		if err := tbl.Insert(tx, []byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model[key] = val
		if i == rows/2 {
			d.Checkpoint()
		}
	}
	// Insert-only loser: eligible for background undo under reinstated locks.
	ins := d.MustBegin()
	for i := 0; i < 4; i++ {
		if err := tbl.Insert(ins, []byte(fmt.Sprintf("zz-loser%02d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Delete loser: its next-key locks are not log-derivable, so it must be
	// fully undone before the engine opens (stabilization).
	del := d.MustBegin()
	if err := tbl.Delete(del, k(1)); err != nil {
		t.Fatal(err)
	}
	d.Log().ForceAll() // both losers' records survive the crash
	return model
}

func verifyModel(t *testing.T, d *DB, model map[string]string) {
	t.Helper()
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	got := map[string]string{}
	if err := tbl.Scan(tx, nil, nil, func(r Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if len(got) != len(model) {
		t.Fatalf("scan found %d rows, want %d", len(got), len(model))
	}
	for key, val := range model {
		if got[key] != val {
			t.Fatalf("row %q = %q, want %q", key, got[key], val)
		}
	}
}

// TestOnlineRestartCommitsBeforeRecoveryDone is the tentpole contract: with
// a slow data device the engine accepts and commits new work while the DPT
// drain is still running, operations that need a quiesced engine fail with
// ErrRecovering, checkpoints are skipped (not mis-taken), and after
// AwaitRecovered the engine is exactly as consistent as after an offline
// restart.
func TestOnlineRestartCommitsBeforeRecoveryDone(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128, OnlineRestart: true, RedoWorkers: 4})
	model := buildOnlineBase(t, d, 300)
	d.Crash()
	// Slow the device so the background drain holds the recovering window
	// open long enough to probe it.
	d.Disk().SetIODelay(time.Millisecond)
	rep, err := d.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Online {
		t.Fatal("report not marked online")
	}
	if !d.Recovering() {
		t.Fatal("engine finished recovery before we could probe it (device too fast?)")
	}

	// Operations that need a quiesced engine are refused while recovery is
	// in flight. It may end between a probe and the check of its result, so
	// a probe that was let through counts against the gate only if recovery
	// is still running afterwards.
	if err := d.VerifyConsistency(); !errors.Is(err, ErrRecovering) && d.Recovering() {
		t.Fatalf("VerifyConsistency mid-recovery = %v, want ErrRecovering", err)
	}
	if _, err := d.CreateTable("t2"); !errors.Is(err, ErrRecovering) && d.Recovering() {
		t.Fatalf("CreateTable mid-recovery = %v, want ErrRecovering", err)
	}
	d.Checkpoint()
	if n := d.Stats().CheckpointsSkippedRecovering.Load(); n == 0 && d.Recovering() {
		t.Fatal("mid-recovery checkpoint was not skipped")
	}

	// A transaction commits while recovery is still in flight; its reads go
	// through the on-demand hook.
	tbl, _ := d.Table("t")
	err = d.RunTxn(func(tx *txn.Tx) error {
		if got, err := tbl.Get(tx, k(7)); err != nil || string(got) != string(v(7)) {
			return fmt.Errorf("get during recovery = %q, %v", got, err)
		}
		return tbl.Insert(tx, []byte("during-recovery"), []byte("committed"))
	})
	if err != nil {
		t.Fatalf("commit during recovery: %v", err)
	}
	model["during-recovery"] = "committed"

	full, err := d.AwaitRecovered()
	if err != nil {
		t.Fatal(err)
	}
	if full.LosersUndone == 0 {
		t.Fatal("no losers undone")
	}
	if full.LosersBackground == 0 {
		t.Fatal("insert-only loser was not classified for background undo")
	}
	if full.LosersStabilized == 0 {
		t.Fatal("delete loser was not stabilized before open")
	}
	if d.Stats().LocksReinstated.Load() == 0 {
		t.Fatal("no locks reinstated for the background loser")
	}
	if full.PagesDrained+full.PagesOnDemand == 0 {
		t.Fatal("no pages recovered")
	}
	d.Disk().SetIODelay(0)
	verifyModel(t, d, model)
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().OnlineRestarts.Load() != 1 {
		t.Fatalf("OnlineRestarts = %d", d.Stats().OnlineRestarts.Load())
	}
}

// TestOnlineRestartUndoesLoserInBackground checks the lock story: after an
// online restart the insert-only loser's keys are X-locked by the
// reinstated locks, so a reader blocks until the background undo ends the
// loser — and then sees the key gone, exactly as with a live rollback.
func TestOnlineRestartUndoesLoserInBackground(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128, OnlineRestart: true})
	model := buildOnlineBase(t, d, 100)
	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := d.Table("t")
	// These Gets either arrive after the background undo (key already gone)
	// or queue behind the loser's reinstated X lock until it ends; both
	// paths must end in NotFound, never in the loser's uncommitted row.
	check := d.MustBegin()
	for i := 0; i < 4; i++ {
		if _, err := tbl.Get(check, []byte(fmt.Sprintf("zz-loser%02d", i))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("loser row %d visible after online restart: %v", i, err)
		}
	}
	_ = check.Commit()
	if _, err := d.AwaitRecovered(); err != nil {
		t.Fatal(err)
	}
	verifyModel(t, d, model)
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestOnlineRestartMatchesOffline restarts two forks of the same crashed
// engine — one offline, one online-then-awaited — and requires identical
// row sets and clean consistency sweeps from both.
func TestOnlineRestartMatchesOffline(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128})
	model := buildOnlineBase(t, d, 200)
	d.Crash()

	offline := d.Fork()
	if _, err := offline.Restart(); err != nil {
		t.Fatal(err)
	}
	online := d.Fork()
	online.SetOnlineRestart(true)
	online.SetRedoWorkers(8)
	if _, err := online.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := online.AwaitRecovered(); err != nil {
		t.Fatal(err)
	}
	verifyModel(t, offline, model)
	verifyModel(t, online, model)
	if err := offline.VerifyConsistency(); err != nil {
		t.Fatalf("offline fork: %v", err)
	}
	if err := online.VerifyConsistency(); err != nil {
		t.Fatalf("online fork: %v", err)
	}
}

// TestOnlineRestartRecrashMidRecovery crashes again while the drain and
// background undo are still running. The crash fence (no checkpoint while
// recovery is pending) must leave the log analyzable from the pre-crash
// checkpoint, so the rerun recovers everything the aborted run had not.
func TestOnlineRestartRecrashMidRecovery(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128, OnlineRestart: true, RedoWorkers: 4})
	model := buildOnlineBase(t, d, 300)
	for round := 0; round < 3; round++ {
		d.Crash()
		d.Disk().SetIODelay(500 * time.Microsecond)
		if _, err := d.Restart(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Re-crash with recovery (usually) still in flight.
	}
	d.Crash()
	d.Disk().SetIODelay(0)
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AwaitRecovered(); err != nil {
		t.Fatal(err)
	}
	verifyModel(t, d, model)
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitUpRapidCrashRestartCycles exercises AwaitUp/AwaitUpFor across
// repeated rapid crash/restart cycles: waiters must neither hang nor
// observe a half-open engine.
func TestAwaitUpRapidCrashRestartCycles(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 64})
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 8; cycle++ {
		d.Crash()
		if d.AwaitUpFor(time.Millisecond) {
			t.Fatalf("cycle %d: AwaitUpFor reported up while crashed", cycle)
		}
		released := make(chan struct{})
		go func() {
			d.AwaitUp()
			close(released)
		}()
		select {
		case <-released:
			t.Fatalf("cycle %d: AwaitUp returned before Restart", cycle)
		case <-time.After(2 * time.Millisecond):
		}
		if _, err := d.Restart(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		select {
		case <-released:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: AwaitUp hung across restart", cycle)
		}
		if !d.AwaitUpFor(time.Second) {
			t.Fatalf("cycle %d: AwaitUpFor timed out on an up engine", cycle)
		}
		// The engine is genuinely open, not just signaled: a write commits.
		tbl, _ := d.Table("t")
		err := d.RunTxn(func(tx *txn.Tx) error {
			return tbl.Insert(tx, []byte(fmt.Sprintf("cycle%02d", cycle)), []byte("ok"))
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRunTxnRetryDeadline bounds the otherwise-unbounded restart wait: a
// RunTxn against an engine nobody restarts must give up at the deadline
// with an error wrapping ErrCrashed.
func TestRunTxnRetryDeadline(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 64})
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	start := time.Now()
	err := d.RunTxnWith(RunTxnOpts{RetryDeadline: 50 * time.Millisecond}, func(tx *txn.Tx) error {
		return nil
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up after %v, deadline was 50ms", elapsed)
	}
}

// TestBoundariesEdgeCases pins recovery.Boundaries behavior on the empty
// log and across a torn tail: no phantom crash points, and the truncated
// suffix is not offered as a boundary.
func TestBoundariesEdgeCases(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 64})
	// Empty log: no records at all → no crash points.
	if b := recovery.Boundaries(d.Log(), 0); len(b) != 0 {
		t.Fatalf("boundaries of empty log = %v", b)
	}
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	if err := tbl.Insert(tx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	all := recovery.Boundaries(d.Log(), 0)
	if len(all) == 0 {
		t.Fatal("no boundaries after committed work")
	}
	// After the last LSN there is nothing left to truncate to.
	if b := recovery.Boundaries(d.Log(), all[len(all)-1]); len(b) != 0 {
		t.Fatalf("boundaries past the end = %v", b)
	}
	// Torn tail: the CRC sweep drops the tear and everything after it, so
	// the surviving boundary set must be a strict prefix of the original.
	loser := d.MustBegin()
	for i := 0; i < 3; i++ {
		if err := tbl.Insert(loser, []byte(fmt.Sprintf("l%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	d.Log().CrashWithTornTail(2)
	d.Crash()
	after := recovery.Boundaries(d.Log(), 0)
	if len(after) < len(all) {
		t.Fatalf("torn tail truncated committed records: %d < %d", len(after), len(all))
	}
	for i, lsn := range all {
		if after[i] != lsn {
			t.Fatalf("boundary %d changed across torn-tail crash: %v vs %v", i, after[i], lsn)
		}
	}
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

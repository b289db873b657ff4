package db

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/txn"
)

func TestClassifyErr(t *testing.T) {
	cases := []struct {
		err  error
		want RetryClass
	}{
		{lock.ErrDeadlock, ClassContention},
		{lock.ErrLockTimeout, ClassContention},
		{fmt.Errorf("insert: %w", lock.ErrDeadlock), ClassContention},
		{ErrCrashed, ClassCrash},
		{lock.ErrShutdown, ClassCrash},
		{fmt.Errorf("gave up after 16 attempts: %w", lock.ErrLockTimeout), ClassContention},
		{ErrNotFound, ClassFatal},
		{ErrDuplicate, ClassFatal},
		{ErrMediaFailure, ClassFatal},
		{errors.New("application bug"), ClassFatal},
		{nil, ClassFatal},
	}
	for _, c := range cases {
		if got := ClassifyErr(c.err); got != c.want {
			t.Errorf("ClassifyErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestRunTxnRetriesContention: a body that loses to contention on its first
// executions is re-executed until it wins; the caller sees only success.
// Each retry is counted by its cause, and a stale snapshot is neither a
// deadlock nor a lock-wait timeout.
func TestRunTxnRetriesContention(t *testing.T) {
	d := Open(Options{})
	var calls int
	err := d.RunTxn(func(tx *txn.Tx) error {
		calls++
		switch calls {
		case 1:
			return fmt.Errorf("insert: %w", lock.ErrDeadlock)
		case 2:
			return fmt.Errorf("get: %w", lock.ErrLockTimeout)
		case 3:
			return ErrSnapshotTooOld
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("body ran %d times, want 4", calls)
	}
	sn := d.Stats().Snap()
	if sn.TxnRetries != 3 || sn.TxnDeadlockRetries != 1 || sn.TxnTimeoutRetries != 1 {
		t.Errorf("retries = %d (deadlock %d, timeout %d), want 3/1/1",
			sn.TxnRetries, sn.TxnDeadlockRetries, sn.TxnTimeoutRetries)
	}
	if sn.TxnRetrySuccesses != 1 {
		t.Errorf("retry successes = %d, want 1", sn.TxnRetrySuccesses)
	}
}

// TestRunReadOnlyCountsDeadlockRetry: a read-only transaction is a locked
// one while online recovery is pending, so it can be a deadlock victim, and
// RunReadOnly counts that retry by its cause like RunTxn does.
func TestRunReadOnlyCountsDeadlockRetry(t *testing.T) {
	d := Open(Options{})
	calls := 0
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if calls++; calls == 1 {
			return lock.ErrDeadlock
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sn := d.Stats().Snap()
	if sn.TxnRetries != 1 || sn.TxnDeadlockRetries != 1 {
		t.Errorf("retries = %d (deadlock %d), want 1/1", sn.TxnRetries, sn.TxnDeadlockRetries)
	}
}

// TestRunTxnSurfacesFatal: logic errors are not retried; the transaction is
// rolled back (its locks released) and the error surfaces unchanged.
func TestRunTxnSurfacesFatal(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("application bug")
	calls := 0
	err = d.RunTxn(func(tx *txn.Tx) error {
		calls++
		if err := tbl.Insert(tx, []byte("k"), []byte("v")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the application error", err)
	}
	if calls != 1 {
		t.Fatalf("fatal error retried: %d calls", calls)
	}
	if got := d.Stats().TxnRetries.Load(); got != 0 {
		t.Errorf("TxnRetries = %d, want 0", got)
	}
	// The failed body's insert must have been rolled back and unlocked.
	if err := d.RunTxn(func(tx *txn.Tx) error {
		if _, err := tbl.Get(tx, []byte("k")); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("rolled-back row visible: %v", err)
		}
		return tbl.Insert(tx, []byte("k"), []byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTxnGivesUpAfterMaxAttempts: permanent contention is eventually
// surfaced, wrapped so the cause still classifies as contention.
func TestRunTxnGivesUpAfterMaxAttempts(t *testing.T) {
	d := Open(Options{})
	calls := 0
	err := d.RunTxnWith(RunTxnOpts{MaxAttempts: 4},
		func(tx *txn.Tx) error {
			calls++
			return lock.ErrLockTimeout
		})
	if err == nil || !errors.Is(err, lock.ErrLockTimeout) {
		t.Fatalf("got %v, want wrapped ErrLockTimeout", err)
	}
	if calls != 4 {
		t.Fatalf("body ran %d times, want 4", calls)
	}
	if ClassifyErr(err) != ClassContention {
		t.Error("give-up error lost its contention classification")
	}
}

// TestRunTxnWaitsOutCrash: a body interrupted by a crash is re-executed
// after the restart, on the new epoch, and commits durably.
func TestRunTxnWaitsOutCrash(t *testing.T) {
	d := Open(Options{})
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- d.RunTxn(func(tx *txn.Tx) error {
			if calls.Add(1) == 1 {
				close(started)
				<-release // crash lands while the body is mid-flight
			}
			tbl, err := d.TableFor(tx, "t")
			if err != nil {
				return err
			}
			return tbl.Insert(tx, []byte("k"), []byte("v"))
		})
	}()
	<-started
	d.Crash()
	close(release)
	// The retry must now be parked in AwaitUp, not completing and not
	// erroring, until the engine is restarted.
	select {
	case err := <-done:
		t.Fatalf("RunTxn returned %v while the engine was down", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTxn never completed after restart")
	}
	if got := d.Stats().TxnCrashWaits.Load(); got == 0 {
		t.Error("TxnCrashWaits = 0, want >= 1")
	}
	// The row written by the post-restart attempt must be durable.
	if err := d.RunTxn(func(tx *txn.Tx) error {
		tbl, err := d.TableFor(tx, "t")
		if err != nil {
			return err
		}
		_, err = tbl.Get(tx, []byte("k"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

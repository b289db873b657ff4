// RunTxn: the retry-safe transaction execution wrapper. Contention aborts
// (deadlock victim, lock-wait timeout) and engine crashes are repaired
// automatically — rollback, backoff, re-execute — so callers write the
// transaction body once and only see errors that genuinely need a human:
// logic errors and unrecoverable media failures. The approach follows the
// transaction-repair view of conflict aborts (Veldhuizen 2014): an abort
// chosen by the system is the system's to retry.
package db

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// RetryClass partitions the errors a transaction body can return by what
// RunTxn does about them.
type RetryClass int

const (
	// ClassFatal errors surface to the caller: logic errors (ErrNotFound,
	// ErrDuplicate reaching the top, application errors) and
	// ErrMediaFailure. Retrying cannot help.
	ClassFatal RetryClass = iota
	// ClassContention errors (deadlock victim, lock-wait timeout) are
	// repaired by rolling back and retrying after a randomized backoff.
	ClassContention
	// ClassCrash errors (engine crashed mid-body, or the lock manager was
	// shut down under the transaction) are repaired by waiting for the
	// restart and re-executing on the new epoch.
	ClassCrash
)

// ClassifyErr maps an error from a transaction body to its retry class.
func ClassifyErr(err error) RetryClass {
	switch {
	case errors.Is(err, lock.ErrDeadlock), errors.Is(err, lock.ErrLockTimeout):
		return ClassContention
	case errors.Is(err, ErrSnapshotTooOld):
		// A long reader's version was pruned out from under it: never
		// fatal — a fresh snapshot sees the surviving state.
		return ClassContention
	case errors.Is(err, ErrCrashed), errors.Is(err, lock.ErrShutdown),
		errors.Is(err, wal.ErrLogCrashed):
		// wal.ErrLogCrashed surfaces from Commit when the crash
		// landed during the commit record's flush: the record died with its
		// log epoch, so the transaction is repaired exactly like any other
		// crash casualty — await restart, re-execute.
		return ClassCrash
	default:
		return ClassFatal
	}
}

// RunTxnOpts tunes RunTxn's retry loop. The zero value is usable.
type RunTxnOpts struct {
	// MaxAttempts bounds full executions of the body (default 16).
	MaxAttempts int
	// Seed drives the backoff jitter deterministically. Concurrent callers
	// should use distinct seeds or their retries stampede in lockstep.
	Seed int64
	// RetryDeadline bounds the total time RunTxn spends retrying — in
	// particular the AwaitUp wait for a restart, which is otherwise
	// unbounded. When it expires at a wait point, RunTxn gives up with the
	// last error (wrapping ErrCrashed if no attempt ever ran). Zero keeps
	// the historical wait-forever behavior.
	RetryDeadline time.Duration
	// OnCommit, when set, runs atomically with the commit acknowledgement:
	// at the instant it runs the commit record is durable and no crash has
	// intervened. Harnesses use it to maintain an exact model of acked
	// state. It must not call back into the engine.
	OnCommit func()
	// OnCommitted, when set, runs the moment the commit record is durable
	// in the LOCAL log — before the replication commit gate (if any) has
	// confirmed it, so before the commit is acknowledged. Harnesses use it
	// to register a pending commit keyed by its commit-record LSN: if the
	// gate then fails (ErrCommitUnacked) the outcome is ambiguous, and the
	// pending entry is resolved by the commit record's presence in the
	// surviving log. It must not call back into the engine.
	OnCommitted func(wal.LSN)
}

// A contention retry first backs off baseBackoff, and each further one
// doubles it up to maxBackoff.
const baseBackoff, maxBackoff = 200 * time.Microsecond, 20 * time.Millisecond

func (o RunTxnOpts) withDefaults() RunTxnOpts {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// lazyRNG defers math/rand source construction until a retry actually
// draws jitter: seeding a source costs microseconds and ~5KB, which on
// the happy path (zero retries — the overwhelmingly common case) would
// tax every transaction for randomness nobody consumes. Laziness changes
// only when the source is built, not the sequence it produces, so seeded
// runs stay deterministic.
type lazyRNG struct {
	seed int64
	rng  *rand.Rand
}

func (l *lazyRNG) Int63n(n int64) int64 {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	return l.rng.Int63n(n)
}

// RunTxn executes fn inside a transaction and commits it, automatically
// repairing contention aborts (rollback + capped exponential backoff +
// retry) and engine crashes (wait for restart + retry on the new epoch).
// Fatal errors abort the transaction and surface unchanged. fn may run
// several times and must therefore be idempotent apart from its effects
// through the passed transaction.
func (d *DB) RunTxn(fn func(*txn.Tx) error) error {
	return d.RunTxnWith(RunTxnOpts{}, fn)
}

// RunTxnWith is RunTxn with explicit retry options.
func (d *DB) RunTxnWith(opts RunTxnOpts, fn func(*txn.Tx) error) error {
	return d.retry(opts, d.Begin, fn, func(tx *txn.Tx, err error) error {
		if err == nil {
			if err = d.commitAcked(tx, opts.OnCommitted, opts.OnCommit); err == nil {
				return nil
			}
		}
		// A crash casualty belongs to the crashed epoch: its rollback is
		// best-effort against the orphaned structures (equivalent to work
		// lost at the power cut), and it re-executes after the restart.
		if rbErr := tx.Rollback(); rbErr != nil && ClassifyErr(err) != ClassCrash &&
			!errors.Is(rbErr, txn.ErrTxDone) && ClassifyErr(rbErr) == ClassFatal {
			return fmt.Errorf("db: rollback after %v: %w", err, rbErr)
		}
		return err
	})
}

// retry is the one repair-and-retry loop behind RunTxnWith and
// RunReadOnlyWith. Each attempt waits until the engine is up, begins, runs
// fn and hands fn's error to end, which finishes the transaction and
// returns the attempt's error. Contention backs off with capped, jittered
// exponential delay and is counted by its cause; a crash waits for the
// restart; ErrRecovering retries at once; a fatal error surfaces. The retry
// deadline bounds every wait.
func (d *DB) retry(opts RunTxnOpts, begin func() (*txn.Tx, error), fn func(*txn.Tx) error, end func(*txn.Tx, error) error) error {
	opts = opts.withDefaults()
	rng := &lazyRNG{seed: opts.Seed}
	backoff := baseBackoff
	lastErr := ErrCrashed // until an attempt has run
	var deadline time.Time
	if opts.RetryDeadline > 0 {
		deadline = time.Now().Add(opts.RetryDeadline)
	}
	deadlineErr := func() error {
		return fmt.Errorf("db: retry deadline %v exceeded: %w", opts.RetryDeadline, lastErr)
	}
	awaitUp := func() bool {
		if deadline.IsZero() {
			d.AwaitUp()
			return true
		}
		return d.AwaitUpFor(time.Until(deadline))
	}
	for attempt := 0; attempt < opts.MaxAttempts; attempt++ {
		if !awaitUp() {
			return deadlineErr()
		}
		tx, err := begin()
		if err != nil {
			if errors.Is(err, ErrCrashed) {
				// Raced a fresh crash; wait out the restart and try again.
				continue
			}
			return err
		}
		if err = end(tx, fn(tx)); err == nil {
			if attempt > 0 {
				d.stats.TxnRetrySuccesses.Add(1)
			}
			return nil
		}
		lastErr = err
		switch ClassifyErr(err) {
		case ClassContention:
			d.stats.TxnRetries.Add(1)
			switch {
			case errors.Is(err, lock.ErrDeadlock):
				d.stats.TxnDeadlockRetries.Add(1)
			case errors.Is(err, lock.ErrLockTimeout):
				d.stats.TxnTimeoutRetries.Add(1)
			}
			time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff)+1)))
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		case ClassCrash:
			d.stats.TxnRetries.Add(1)
			if errors.Is(err, ErrRecovering) {
				// The engine is UP — only background recovery is pending,
				// and it finishes on its own. Retry immediately; parking on
				// a backoff here would just add latency.
				d.stats.TxnRecoveringRetries.Add(1)
				continue
			}
			d.stats.TxnCrashWaits.Add(1)
			if !awaitUp() {
				return deadlineErr()
			}
			// Jitter AFTER the restart releases the herd: every retrier
			// wakes on the same upCh close, so without this they re-enter
			// the fresh epoch in lockstep and collide all over again.
			time.Sleep(time.Duration(rng.Int63n(int64(baseBackoff) + 1)))
		default:
			return err
		}
	}
	return fmt.Errorf("db: transaction gave up after %d attempts: %w", opts.MaxAttempts, lastErr)
}

// commitAcked commits tx and acknowledges it atomically with respect to
// Crash: under the shared side of epochMu either the engine is up and tx
// belongs to the current epoch — then the commit record is forced and
// onCommit observes a durable commit — or the commit is refused with
// ErrCrashed. This closes the race where a crash lands between the commit
// force and the acknowledgement, which would make the caller's model of
// committed state diverge from the log's.
//
// Crash takes epochMu exclusively, so it cannot interleave with the
// check→force→ack window; but concurrent committers all hold the read
// side, so their log forces overlap and group commit batches them. d.mu is
// taken only for the epoch check (lock order: epochMu before mu).
// When a commit gate is installed (semi-sync replication, SetCommitGate),
// it runs between local durability and the acknowledgement: OnCommitted
// fires first (locally durable, outcome still ambiguous), then the gate
// must confirm the standby has the record, and only then does the commit
// ack and OnCommit fire. A failing gate surfaces ErrCommitUnacked without
// acking.
func (d *DB) commitAcked(tx *txn.Tx, onCommitted func(wal.LSN), onCommit func()) error {
	d.epochMu.RLock()
	defer d.epochMu.RUnlock()
	d.mu.Lock()
	crashed := d.downed || !d.tm.Owns(tx)
	gate := d.commitGate
	d.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	lsn := tx.CommitLSN()
	if onCommitted != nil {
		onCommitted(lsn)
	}
	if gate != nil {
		if err := gate(lsn); err != nil {
			return fmt.Errorf("%w: commit LSN %d: %v", ErrCommitUnacked, lsn, err)
		}
	}
	if onCommit != nil {
		onCommit()
	}
	return nil
}

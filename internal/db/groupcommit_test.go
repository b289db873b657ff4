package db

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/trace"
	"ariesim/internal/txn"
)

// Durability-of-acknowledgement property tests for the costed log device:
// with a nonzero force delay the window between "commit record appended"
// and "commit record stable" is wide open, and these tests prove no
// transaction is ever acknowledged inside it — an acked commit survives
// any crash, and the commit record's LSN is never above the stable LSN at
// ack time.

// TestCommitAckImpliesStableLSN: after every acked commit, the commit
// record (the end record's PrevLSN) is covered by the stable LSN.
func TestCommitAckImpliesStableLSN(t *testing.T) {
	d := Open(Options{})
	d.Log().SetForceDelay(200 * time.Microsecond)
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var committed *txn.Tx
		err := d.RunTxn(func(tx *txn.Tx) error {
			committed = tx
			tb, err := d.TableFor(tx, "t")
			if err != nil {
				return err
			}
			return tb.Insert(tx, []byte(fmt.Sprintf("k%04d", i)), []byte("v"))
		})
		if err != nil {
			t.Fatal(err)
		}
		log := d.Log()
		end, err := log.Read(committed.LastLSN()) // after Commit, LastLSN is the end record
		if err != nil {
			t.Fatal(err)
		}
		if commitLSN := end.PrevLSN; commitLSN > log.StableLSN() {
			t.Fatalf("txn %d acked with commit LSN %d > stable %d", i, commitLSN, log.StableLSN())
		}
	}
}

// TestConcurrentCommitsCoalesce: concurrent committers against a slow log
// device share flushes — the engine acks all of them with far fewer
// physical forces than commits, and the group-commit counters prove it.
func TestConcurrentCommitsCoalesce(t *testing.T) {
	d := Open(Options{})
	d.Log().SetForceDelay(500 * time.Microsecond)
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const workers, txns = 8, 25
	before := d.Stats().Snap()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				err := d.RunTxnWith(RunTxnOpts{Seed: int64(w + 1)}, func(tx *txn.Tx) error {
					tb, err := d.TableFor(tx, "t")
					if err != nil {
						return err
					}
					return tb.Insert(tx, key, []byte("v"))
				})
				if err != nil {
					t.Errorf("worker %d txn %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	diff := trace.Diff(before, d.Stats().Snap())
	commits := uint64(workers * txns)
	if diff.LogForces >= commits {
		t.Errorf("LogForces = %d for %d commits: no coalescing", diff.LogForces, commits)
	}
	if diff.GroupCommits == 0 {
		t.Error("GroupCommits = 0: concurrent committers never shared a flush")
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestAckedCommitsSurviveCrashes is the property test: concurrent workers
// commit through RunTxn while a crasher repeatedly yanks the power, all
// with a force delay widening the append→stable window. Every key whose
// OnCommit hook ran must be present after the final crash+restart — no
// transaction was acked while its commit record was still volatile.
func TestAckedCommitsSurviveCrashes(t *testing.T) {
	const (
		workers = 4
		crashes = 6
	)
	d := Open(Options{PoolSize: 64})
	d.Log().SetForceDelay(200 * time.Microsecond) // Crash's log clone keeps it
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	var ackedMu sync.Mutex
	acked := make(map[string]bool)
	var acks atomic.Int64

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%02d-%06d", w, i)
				err := d.RunTxnWith(RunTxnOpts{
					Seed:        int64(w+1) * 7919,
					MaxAttempts: 64,
					OnCommit: func() {
						// Runs atomically with the ack: the commit record is
						// durable and no crash has intervened.
						ackedMu.Lock()
						acked[key] = true
						ackedMu.Unlock()
						acks.Add(1)
					},
				}, func(tx *txn.Tx) error {
					tb, err := d.TableFor(tx, "t")
					if err != nil {
						return err
					}
					return tb.Insert(tx, []byte(key), []byte("v"))
				})
				if err != nil {
					// ErrDuplicate here would mean a commit became durable
					// without its ack — exactly the bug this test polices.
					t.Errorf("worker %d key %s: %v", w, key, err)
					return
				}
			}
		}(w)
	}

	// Crash after set counts of acknowledged commits, so every epoch acks
	// some transactions whatever the box's speed.
	for c := 0; c < crashes; c++ {
		for target := acks.Load() + int64(8+4*c); acks.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		d.Crash()
		if _, err := d.Restart(); err != nil {
			t.Fatalf("restart %d: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()

	// Final power cut: anything acked before this instant must survive it.
	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}

	ackedMu.Lock()
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	ackedMu.Unlock()
	if len(keys) == 0 {
		t.Fatal("no transaction was ever acked; test exercised nothing")
	}
	err := d.RunTxn(func(tx *txn.Tx) error {
		tb, err := d.TableFor(tx, "t")
		if err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := tb.Get(tx, []byte(k)); err != nil {
				if errors.Is(err, ErrNotFound) {
					t.Errorf("acked commit %s lost by crash: ack preceded durability", k)
					continue
				}
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	t.Logf("verified %d acked commits across %d crashes", len(keys), crashes+1)
}

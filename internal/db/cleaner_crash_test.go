package db

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCleanerCrashFence: a background page cleaner running at crash time
// must not leak a single write onto the post-crash disk. Crash() stops the
// cleaner synchronously before cloning the disk, so the successor starts
// with a zero write count and stays there until Restart.
func TestCleanerCrashFence(t *testing.T) {
	d := Open(Options{
		PageSize:        512,
		PoolSize:        16, // tight pool: constant dirty-frame churn
		CleanerInterval: 200 * time.Microsecond,
	})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := d.Begin()
				if err != nil {
					return // crashed; the fence check below takes over
				}
				key := []byte(fmt.Sprintf("w%d-%06d", w, i))
				// Any error here (deadlock, crash epoch) just ends the
				// attempt — correctness is checked after restart.
				if err := tbl.Insert(tx, key, v(i)); err != nil {
					_ = tx.Rollback()
					continue
				}
				_ = tx.Commit()
			}
		}(w)
	}

	// Let traffic run until the cleaner has demonstrably done work, so the
	// fence assertion is exercising a live cleaner, not an idle one.
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().CleanerWrites.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cleaner never wrote a page under insert traffic")
		}
		runtime.Gosched()
	}

	d.Crash()
	// Crash swapped in a cloned disk with fresh counters. Zombie foreground
	// I/O may still land on the orphaned predecessor, but nothing — cleaner
	// included — may touch the successor before Restart.
	if n := d.Disk().WriteCount(); n != 0 {
		t.Fatalf("post-crash disk already has %d writes", n)
	}
	// Crash stopped the cleaner with StopCleaner, which returns only after
	// the pass in flight has finished, and no pool starts one again before
	// Restart. So the pass count is final here, whatever the workers do
	// until they have all seen the crash.
	passes := d.Stats().CleanerPasses.Load()
	close(stop)
	wg.Wait()
	if n := d.Stats().CleanerPasses.Load() - passes; n != 0 {
		t.Fatalf("%d cleaner passes ran past the crash fence", n)
	}
	if n := d.Disk().WriteCount(); n != 0 {
		t.Fatalf("%d writes leaked onto the post-crash disk", n)
	}

	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// The cleaner restarts with the new pool and keeps working.
	tbl, err = d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Sampled before the inserts: a cleaner that has already written every
	// page they dirtied by the time they commit has resumed too.
	writes := d.Stats().CleanerWrites.Load()
	tx := d.MustBegin()
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(tx, []byte(fmt.Sprintf("post-%04d", i)), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for d.Stats().CleanerWrites.Load() == writes {
		if time.Now().After(deadline) {
			t.Fatal("cleaner did not resume after restart")
		}
		runtime.Gosched()
	}
}

// TestCleanerShrinksCheckpointRedo: cleaning before a fuzzy checkpoint
// empties the DPT the checkpoint records, which pushes the restart redo
// point forward. Two engines run identical committed traffic; the one
// whose pool was cleaned before its checkpoint restarts with strictly
// fewer redo applications.
func TestCleanerShrinksCheckpointRedo(t *testing.T) {
	run := func(clean bool) int {
		d := Open(Options{PageSize: 512, PoolSize: 64})
		tbl, err := d.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 10; b++ {
			tx := d.MustBegin()
			for i := 0; i < 20; i++ {
				if err := tbl.Insert(tx, k(b*20+i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if clean {
			// Drain the DPT the way the background cleaner would; explicit
			// passes keep the comparison deterministic.
			for d.Pool().CleanPass(0) > 0 {
			}
			if len(d.Pool().DPT()) != 0 {
				t.Fatal("DPT not empty after clean passes on quiesced engine")
			}
		}
		d.Checkpoint()
		d.Crash()
		rep, err := d.Restart()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.VerifyConsistency(); err != nil {
			t.Fatal(err)
		}
		rtx := d.MustBegin()
		tbl, err = d.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := tbl.Get(rtx, k(i)); err != nil {
				t.Fatalf("row %d lost (clean=%v): %v", i, clean, err)
			}
		}
		_ = rtx.Commit()
		return rep.RedosApplied
	}

	dirtyRedo := run(false)
	cleanRedo := run(true)
	if cleanRedo >= dirtyRedo {
		t.Fatalf("cleaning before checkpoint did not reduce redo: %d (cleaned) vs %d (dirty)", cleanRedo, dirtyRedo)
	}
}

// TestCleanerOptionsWiring: the engine starts a cleaner only when asked,
// and restarts preserve the setting across buildVolatile.
func TestCleanerOptionsWiring(t *testing.T) {
	plain := Open(Options{PageSize: 512, PoolSize: 32})
	tbl, _ := plain.CreateTable("t")
	tx := plain.MustBegin()
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// StopCleaner waits out a pass in flight, so a cleaner started by
	// mistake has either run during the load above or never will, and
	// neither the pass count nor the DPT can move under the checks below.
	plain.Pool().StopCleaner()
	if plain.Stats().CleanerPasses.Load() != 0 {
		t.Fatal("cleaner ran without CleanerInterval set")
	}
	if len(plain.Pool().DPT()) == 0 {
		t.Fatal("expected dirty pages on the no-cleaner engine")
	}
	if _, err := plain.Begin(); errors.Is(err, ErrCrashed) {
		t.Fatal("engine unexpectedly down")
	}
}

package db

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/recovery"
	"ariesim/internal/wal"
)

// valueHead is the secondary-index extractor of the catalog tests.
func valueHead(v []byte) []byte { return append([]byte(nil), v[:min(2, len(v))]...) }

// restartAndVerify restarts d, offline or online, waits out any background
// recovery, and runs the whole-engine consistency check.
func restartAndVerify(d *DB, online bool) error {
	d.SetOnlineRestart(online)
	if _, err := d.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if _, err := d.AwaitRecovered(); err != nil {
		return fmt.Errorf("await recovered: %w", err)
	}
	if err := d.VerifyConsistency(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	return nil
}

// TestCrashInsideCreateIndexBackfill crashes the engine from inside the
// extractor, on the 20th row of a 50-row backfill, with the index's first
// 19 entries on the stable log. Restart must undo the loser DDL — which
// needs the index it created registered before undo — and leave the table
// whole and the index absent, offline and online.
func TestCrashInsideCreateIndexBackfill(t *testing.T) {
	for _, online := range []bool{false, true} {
		t.Run(fmt.Sprintf("online=%v", online), func(t *testing.T) {
			d := Open(Options{PageSize: 512})
			tbl, err := d.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx := d.MustBegin()
			for i := 0; i < 50; i++ {
				if err := tbl.Insert(tx, k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rows := 0
			_ = tbl.CreateIndex("ix", func(value []byte) []byte {
				if rows++; rows == 20 {
					d.Log().ForceAll()
					d.Crash()
				}
				return valueHead(value)
			})
			if err := restartAndVerify(d, online); err != nil {
				t.Fatal(err)
			}
			rt, err := d.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.OpenSecondaryIndex("ix", valueHead); err == nil {
				t.Fatal("the index of a DDL that never committed survived restart")
			}
			check := d.MustBegin()
			n := 0
			if err := rt.Scan(check, nil, nil, func(Row) (bool, error) { n++; return true, nil }); err != nil {
				t.Fatal(err)
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if n != 50 {
				t.Fatalf("%d rows after restart, want 50", n)
			}
		})
	}
}

// TestForkAtEveryDDLBoundary forks a CreateTable + CreateIndex at every log
// boundary from LSN 0 on and restarts each fork offline and online: the
// table and the index each exist exactly when the fork's log holds their
// DDL's commit, and the engine is consistent at every point.
func TestForkAtEveryDDLBoundary(t *testing.T) {
	d := Open(Options{PageSize: 512})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tableLSN := d.Log().MaxLSN() // the commit: CreateTable's last record
	if err := tbl.CreateIndex("ix", valueHead); err != nil {
		t.Fatal(err)
	}
	indexLSN := d.Log().MaxLSN()
	d.Log().ForceAll()
	boundaries := append([]wal.LSN{wal.NilLSN}, recovery.Boundaries(d.Log(), wal.NilLSN)...)
	for _, L := range boundaries {
		for _, online := range []bool{false, true} {
			fork := d.Fork()
			fork.Log().TruncateTo(L)
			if err := restartAndVerify(fork, online); err != nil {
				t.Fatalf("LSN %d online=%v: %v", L, online, err)
			}
			ft, err := fork.Table("t")
			if (err == nil) != (L >= tableLSN) {
				t.Fatalf("LSN %d online=%v: table lookup = %v, CreateTable committed at %d", L, online, err, tableLSN)
			}
			if err != nil {
				continue
			}
			if err := ft.OpenSecondaryIndex("ix", valueHead); (err == nil) != (L >= indexLSN) {
				t.Fatalf("LSN %d online=%v: index open = %v, CreateIndex committed at %d", L, online, err, indexLSN)
			}
		}
	}
}

// TestDDLBesideBackfillUnderPageLocks: under page locking a CreateTable's
// catalog insert queues behind a CreateIndex's, whose backfill queues
// behind a writer. The writer must still get through d.mu to commit, so
// CreateTable may not hold d.mu while it waits.
func TestDDLBesideBackfillUnderPageLocks(t *testing.T) {
	d := Open(Options{Granularity: lock.GranPage})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	w := d.MustBegin()
	if err := tbl.Update(w, k(3), []byte("value-33")); err != nil { // X on the data page
		t.Fatal(err)
	}
	awaitWaits := func(n uint64, who string) {
		for deadline := time.Now().Add(10 * time.Second); d.stats.LockWaits.Load() < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued for a lock", who)
			}
		}
	}
	done := make(chan error, 2)
	go func() { done <- tbl.CreateIndex("ix", valueHead) }()
	awaitWaits(1, "the backfill") // behind w
	go func() { _, err := d.CreateTable("u"); done <- err }()
	awaitWaits(2, "CreateTable") // behind the index's catalog row
	committed := make(chan error, 1)
	go func() {
		if _, err := d.TableFor(w, "t"); err != nil {
			committed <- err
			return
		}
		committed <- w.Commit()
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the writer cannot reach d.mu: CreateTable holds it while it waits")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

package db

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// buildCrashWorkload populates an engine with an SMO-dense seeded workload
// (inserts, updates, deletes, a mid-run fuzzy checkpoint, a trailing
// in-flight loser) and forces the log so every record is a legal crash
// point, its CreateTable's among them.
func buildCrashWorkload(t *testing.T, seed int64, txns int) *DB {
	t.Helper()
	d := Open(Options{PageSize: 512, PoolSize: 256})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < txns; i++ {
		tx := d.MustBegin()
		for op := 0; op < 6; op++ {
			k := []byte(fmt.Sprintf("k%04d", rng.Intn(120)))
			v := []byte(fmt.Sprintf("v%0*d", 20+rng.Intn(50), rng.Intn(1_000_000)))
			var err error
			if _, gerr := tbl.Get(tx, k); gerr == nil {
				if rng.Intn(4) == 0 {
					err = tbl.Delete(tx, k)
				} else {
					err = tbl.Update(tx, k, v)
				}
			} else {
				err = tbl.Insert(tx, k, v)
			}
			if err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		if rng.Float64() < 0.2 {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if i == txns/2 {
			d.Checkpoint()
		}
	}
	loser := d.MustBegin()
	for i := 0; i < 4; i++ {
		if err := tbl.Insert(loser, []byte(fmt.Sprintf("zloser%02d", i)), []byte("never")); err != nil {
			t.Fatal(err)
		}
	}
	d.Log().ForceAll()
	return d
}

// recoveredDisk forks the engine, crashes it at boundary L, restarts with
// the given redo worker count, flushes every recovered page, and returns
// the resulting on-disk image.
func recoveredDisk(t *testing.T, d *DB, L wal.LSN, workers int) map[storage.PageID][]byte {
	t.Helper()
	fork := d.Fork()
	fork.SetRedoWorkers(workers)
	fork.Log().TruncateTo(L)
	if _, err := fork.Restart(); err != nil {
		t.Fatalf("restart at LSN %d with %d workers: %v", L, workers, err)
	}
	if err := fork.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	return fork.Disk().Snapshot()
}

// TestParallelRedoByteIdenticalAcrossCrashPoints is the parallel-redo
// stress test: at random crash points of an SMO-dense workload, restarting
// with 2 and 8 redo workers must leave a disk byte-for-byte identical to
// the serial baseline's. Page partitioning preserves per-page LSN order,
// so not one byte may differ — any divergence is a synchronization bug.
// Run under -race to also catch data races between redo workers and the
// prefetcher.
func TestParallelRedoByteIdenticalAcrossCrashPoints(t *testing.T) {
	txns := 30
	points := 12
	if testing.Short() {
		txns, points = 12, 4
	}
	d := buildCrashWorkload(t, 1337, txns)
	boundaries := recovery.Boundaries(d.Log(), wal.NilLSN)
	if len(boundaries) < points {
		t.Fatalf("workload produced only %d boundaries", len(boundaries))
	}
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < points; i++ {
		L := boundaries[rng.Intn(len(boundaries))]
		want := recoveredDisk(t, d, L, 1)
		for _, workers := range []int{2, 8} {
			got := recoveredDisk(t, d, L, workers)
			if len(got) != len(want) {
				t.Fatalf("LSN %d: %d workers recovered %d pages, serial %d",
					L, workers, len(got), len(want))
			}
			for pid, b := range want {
				if !bytes.Equal(got[pid], b) {
					t.Fatalf("LSN %d: page %d differs between serial and %d-worker redo",
						L, pid, workers)
				}
			}
		}
	}
}

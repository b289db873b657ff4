package db_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ariesim/internal/core"
	"ariesim/internal/db"
	"ariesim/internal/harness"
	"ariesim/internal/lock"
	"ariesim/internal/wal"
)

// TestSoakConcurrentWithCrashes is the long-haul exercise: several rounds
// of concurrent mixed workload (every op type, rollbacks, deadlock-victim
// retries, periodic fuzzy checkpoints), each round ended by a crash and a
// verified restart. Run with -short to skip.
func TestSoakConcurrentWithCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, cfg := range []struct {
		name string
		opts db.Options
	}{
		{"aries-im-record", db.Options{PageSize: 512, PoolSize: 96}},
		{"aries-im-pagegran", db.Options{PageSize: 512, PoolSize: 96, Granularity: lock.GranPage}},
		{"aries-kvl", db.Options{PageSize: 512, PoolSize: 96, Protocol: core.KVL}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			soak(t, cfg.opts, 3, 4, 150)
		})
	}
}

func soak(t *testing.T, opts db.Options, rounds, workers, opsPerWorker int) {
	t.Helper()
	d := db.Open(opts)
	tbl, err := d.CreateTable("soak")
	if err != nil {
		t.Fatal(err)
	}
	// Each commit's writes keyed by its commit LSN, folded in LSN order at
	// verification: goroutines get here in no particular order.
	commits := map[wal.LSN]map[string]*string{}
	var mu sync.Mutex

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				gen := harness.NewOps(harness.Mix{
					Keys: 400, ReadFrac: 0.3, InsertFrac: 0.4, DeleteFrac: 0.2,
					Seed: int64(round*100 + w),
				})
				rng := rand.New(rand.NewSource(int64(round*31 + w)))
				for i := 0; i < opsPerWorker; {
					tx := d.MustBegin()
					staged := map[string]*string{}
					aborted := false
					for j := 0; j < rng.Intn(5)+1 && !aborted; j++ {
						op := gen.Next()
						i++
						switch op.Kind {
						case harness.OpInsert:
							err := tbl.Insert(tx, op.Key, op.Value)
							switch {
							case err == nil:
								s := string(op.Value)
								staged[string(op.Key)] = &s
							case errors.Is(err, db.ErrDuplicate):
							case errors.Is(err, lock.ErrDeadlock):
								aborted = true
							default:
								t.Errorf("insert: %v", err)
								aborted = true
							}
						case harness.OpDelete:
							err := tbl.Delete(tx, op.Key)
							switch {
							case err == nil:
								staged[string(op.Key)] = nil
							case errors.Is(err, db.ErrNotFound):
							case errors.Is(err, lock.ErrDeadlock):
								aborted = true
							default:
								t.Errorf("delete: %v", err)
								aborted = true
							}
						case harness.OpScan:
							n := 0
							err := tbl.Scan(tx, op.Key, nil, func(db.Row) (bool, error) {
								n++
								return n < 16, nil
							})
							if err != nil && !errors.Is(err, lock.ErrDeadlock) {
								t.Errorf("scan: %v", err)
							}
							if err != nil {
								aborted = true
							}
						default:
							if _, err := tbl.Get(tx, op.Key); err != nil &&
								!errors.Is(err, db.ErrNotFound) && !errors.Is(err, lock.ErrDeadlock) {
								t.Errorf("get: %v", err)
							}
						}
					}
					if aborted || rng.Intn(6) == 0 {
						_ = tx.Rollback()
						continue
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
					mu.Lock()
					commits[tx.CommitLSN()] = staged
					mu.Unlock()
					if rng.Intn(40) == 0 {
						d.Checkpoint()
					}
				}
			}(w)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(120 * time.Second):
			t.Fatal("soak round hung")
		}
		if t.Failed() {
			return
		}
		d.Crash()
		if _, err := d.Restart(); err != nil {
			t.Fatalf("round %d restart: %v", round, err)
		}
		tbl, err = d.Table("soak")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.VerifyConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		lsns := make([]wal.LSN, 0, len(commits))
		for lsn := range commits {
			lsns = append(lsns, lsn)
		}
		slices.Sort(lsns)
		committed := map[string]string{}
		for _, lsn := range lsns {
			for key, val := range commits[lsn] {
				if val == nil {
					delete(committed, key)
				} else {
					committed[key] = *val
				}
			}
		}
		rows := map[string]string{}
		r := d.MustBegin()
		_ = tbl.Scan(r, []byte(""), nil, func(row db.Row) (bool, error) {
			rows[string(row.Key)] = string(row.Value)
			return true, nil
		})
		_ = r.Commit()
		if len(rows) != len(committed) {
			t.Fatalf("round %d: %d rows vs %d committed", round, len(rows), len(committed))
		}
		for key, val := range committed {
			if rows[key] != val {
				t.Fatalf("round %d: %q = %q want %q", round, key, rows[key], val)
			}
		}
	}
	if d.Stats().PageSplits.Load() == 0 {
		t.Error("soak caused no splits; workload too small")
	}
}

package harness

import (
	"fmt"
	"math/rand"
	"slices"

	"ariesim/internal/db"
	"ariesim/internal/recovery"
	"ariesim/internal/wal"
)

// SweepOpts configures a crash-point sweep. The zero value is a small but
// SMO-heavy configuration; every field has a default.
type SweepOpts struct {
	// Seed drives the workload and the per-point recovery perturbations;
	// the whole sweep is deterministic in it.
	Seed int64
	// Txns is the number of workload transactions (default 50).
	Txns int
	// RedoWorkers sets restart redo parallelism on every fork (0/1 =
	// serial). The sweep's verification is identical either way — that is
	// the point of running it with workers > 1.
	RedoWorkers int
	// SecondaryIndex additionally maintains a secondary index over the
	// swept table, so every crash boundary exercises paired base+index
	// redo/undo; at each point the recovered index is checked entry by
	// entry against the covered committed snapshot (both restart modes).
	SecondaryIndex bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// The swept engine's shape: small pages force page splits and deletes, so
// the log is dense with nested top actions, and the pool is large enough
// that no page is evicted, which keeps every log prefix a legal crash state.
// sweepOpsPerTxn is the number of row operations per sweep transaction.
const (
	sweepPageSize  = 512
	sweepPoolSize  = 256
	sweepOpsPerTxn = 4
)

func (o SweepOpts) withDefaults() SweepOpts {
	if o.Txns == 0 {
		o.Txns = 50
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// SweepResult summarizes a crash-point sweep.
type SweepResult struct {
	// Records is the number of log records the script wrote, its DDL
	// included: each boundary is a crash point recovered offline and online.
	Records int
	// Commits and Rollbacks count workload transactions by outcome.
	Commits   int
	Rollbacks int
	// InPlaceUpdates counts the workload's OpDataUpdate records. A sweep
	// that logged none is an error: it would say nothing about the op.
	InPlaceUpdates int
	// DoubleRecoveries counts the points whose first restart was genuinely
	// interrupted mid-undo (losers existed and the undo-step budget hit),
	// forcing the second restart to recover from a half-done recovery.
	// Every point runs two restarts regardless.
	DoubleRecoveries int
	// OnlineRecrashes counts the rotating subset of points whose online
	// recovery was itself crashed mid-flight and rerun.
	OnlineRecrashes int
}

// The swept table, and the table and index the script creates mid-way.
const (
	sweepTable = "sweep"
	midTable   = "sweep_mid"
	midIndex   = "by_val_tail_too"
)

// CrashSweep is the tentpole robustness harness: it runs a scripted
// multi-transaction workload dense with page splits/deletes (SMOs as
// nested top actions), commits, rollbacks, a CreateTable and a backfilling
// CreateIndex part-way through, a fuzzy checkpoint and a trailing in-flight
// loser — then, for EVERY log record boundary the script produced from its
// first CreateTable on, forks the stable state, truncates the log there
// (simulating a crash whose last force reached exactly that record),
// restarts, re-crashes the engine mid-restart (an undo-step budget kills
// recovery partway through loser rollback, alternating whether the
// interrupted restart's own CLRs survive), restarts again, and verifies
// that the recovered table equals, byte for byte, the latest committed
// snapshot covered by the truncation point, and that each table and index
// exists exactly when its DDL's commit is covered — under full structural
// and checksum consistency verification.
//
// This is the ARIES idempotence-of-restart guarantee (repeat history +
// CLRs bound undo work) checked exhaustively rather than at hand-picked
// crash points.
//
// Every boundary is then recovered a second way, with ONLINE restart (open
// after analysis, drain + loser undo in the background), a rotating subset
// re-crashing mid-online-recovery; the recovered state must be identical.
func CrashSweep(opts SweepOpts) (*SweepResult, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &SweepResult{}

	d := db.Open(db.Options{PageSize: sweepPageSize, PoolSize: sweepPoolSize})
	// Each DDL's last record is its commit: a log prefix holds the table or
	// index exactly when it reaches that LSN.
	var ddl struct{ table, index, midTable, midIndex wal.LSN }
	tbl, err := d.CreateTable(sweepTable)
	if err != nil {
		return nil, err
	}
	ddl.table = d.Log().MaxLSN()
	if opts.SecondaryIndex {
		if err := tbl.CreateIndex(indexName, indexKey); err != nil {
			return nil, err
		}
		ddl.index = d.Log().MaxLSN()
	}

	const keySpace = 200
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	val := func() string {
		return fmt.Sprintf("v%0*d", 20+rng.Intn(60), rng.Intn(1_000_000))
	}
	// newValue replaces old in one of three ways. Any length: a shorter value
	// moves the row (delete + insert), a longer one is updated in place where
	// its page has room. The same length: always in place, the secondary key
	// (the last four bytes) moving. The same length and the same last four
	// bytes: in place, and the secondary index must not be touched.
	newValue := func(old string, kind int) string {
		switch kind {
		case 0:
			return val()
		case 1:
			return fmt.Sprintf("v%0*d", len(old)-1, rng.Intn(1_000_000))
		default:
			return fmt.Sprintf("v%0*d", len(old)-5, rng.Intn(1_000_000)) + old[len(old)-4:]
		}
	}

	led := newLedger()
	for t := 0; t < opts.Txns; t++ {
		overlay := led.state()
		committed := make([]string, 0, len(overlay))
		for k := range overlay {
			committed = append(committed, k)
		}
		slices.Sort(committed)
		st := staged{}
		willRollback := rng.Float64() < 0.15
		tx, err := d.Begin()
		if err != nil {
			return nil, fmt.Errorf("txn %d begin: %w", t, err)
		}
		for op := 0; op < sweepOpsPerTxn; op++ {
			k := key(rng.Intn(keySpace))
			// Every transaction first updates a committed row, the three
			// kinds in turn, so that the smallest sweep has them all.
			revisit := op == 0 && len(committed) > 0
			if revisit {
				k = committed[rng.Intn(len(committed))]
			}
			if old, ok := overlay[k]; ok {
				if revisit || rng.Intn(2) == 0 {
					kind := rng.Intn(3)
					if revisit {
						kind = t % 3
					}
					v := newValue(old, kind)
					if err := tbl.Update(tx, []byte(k), []byte(v)); err != nil {
						return nil, fmt.Errorf("txn %d update %s: %w", t, k, err)
					}
					overlay[k], st[k] = v, &v
				} else {
					if err := tbl.Delete(tx, []byte(k)); err != nil {
						return nil, fmt.Errorf("txn %d delete %s: %w", t, k, err)
					}
					delete(overlay, k)
					st[k] = nil
				}
			} else {
				v := val()
				if err := tbl.Insert(tx, []byte(k), []byte(v)); err != nil {
					return nil, fmt.Errorf("txn %d insert %s: %w", t, k, err)
				}
				overlay[k], st[k] = v, &v
			}
		}
		if willRollback {
			if err := tx.Rollback(); err != nil {
				return nil, fmt.Errorf("txn %d rollback: %w", t, err)
			}
			res.Rollbacks++
		} else {
			if err := tx.Commit(); err != nil {
				return nil, fmt.Errorf("txn %d commit: %w", t, err)
			}
			commitLSN := tx.CommitLSN()
			if commitLSN == wal.NilLSN {
				return nil, fmt.Errorf("txn %d: commit record not found", t)
			}
			led.record(commitLSN, st)
			res.Commits++
		}
		if t == opts.Txns/3 {
			// Boundaries inside DDL, the index's backfill of the rows so
			// far among them; later transactions maintain the new index.
			if _, err := d.CreateTable(midTable); err != nil {
				return nil, err
			}
			ddl.midTable = d.Log().MaxLSN()
			if err := tbl.CreateIndex(midIndex, indexKey); err != nil {
				return nil, err
			}
			ddl.midIndex = d.Log().MaxLSN()
		}
		if t == opts.Txns/2 {
			d.Checkpoint() // boundaries inside the fuzzy checkpoint too
		}
	}

	// A trailing in-flight loser: boundaries in this tail force restart to
	// undo a transaction whose records are the newest thing on the log.
	loser, err := d.Begin()
	if err != nil {
		return nil, fmt.Errorf("loser begin: %w", err)
	}
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("zloser%02d", i)
		if err := tbl.Insert(loser, []byte(k), []byte("never-committed")); err != nil {
			return nil, fmt.Errorf("loser insert %s: %w", k, err)
		}
	}
	d.Log().ForceAll() // make every record a truncation candidate
	// The log's byte accounting (and so every boundary below) rests on
	// EncodedSize being what Encode produces, for each kind of record here.
	if err := d.Log().CodecRoundTrip(); err != nil {
		return nil, err
	}

	boundaries := recovery.Boundaries(d.Log(), wal.NilLSN)
	res.Records = len(boundaries)
	if res.InPlaceUpdates = inPlaceUpdates(d.Log()); res.InPlaceUpdates == 0 {
		return nil, errNoInPlaceUpdate
	}
	opts.Logf("sweep: %d txns (%d committed, %d rolled back), %d crash points",
		opts.Txns, res.Commits, res.Rollbacks, len(boundaries))

	// verify checks a fork recovered from the log prefix ending at L against
	// the DDL and the committed snapshot the prefix covers.
	verify := func(fork *db.DB, L wal.LSN, want map[string]string) error {
		if err := verifyTableAt(fork, sweepTable, L >= ddl.table, want); err != nil {
			return err
		}
		if opts.SecondaryIndex && L >= ddl.table {
			if err := verifyIndex(fork, sweepTable, indexName, L >= ddl.index, want); err != nil {
				return err
			}
		}
		if err := verifyTableAt(fork, midTable, L >= ddl.midTable, nil); err != nil {
			return err
		}
		if L >= ddl.table {
			if err := verifyIndex(fork, sweepTable, midIndex, L >= ddl.midIndex, want); err != nil {
				return err
			}
		}
		if err := fork.VerifyConsistency(); err != nil {
			return fmt.Errorf("consistency: %w", err)
		}
		return nil
	}

	for i, L := range boundaries {
		fork := d.Fork()
		fork.SetRedoWorkers(opts.RedoWorkers)
		fork.Log().TruncateTo(L)

		// First restart dies mid-undo after a seed-dependent number of undo
		// steps; on alternate points its CLRs are forced (survive) vs lost.
		interrupted, err := fork.RestartInterrupted(1+i%4, i%2 == 0)
		if err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): interrupted restart: %w", i, L, err)
		}
		if interrupted {
			res.DoubleRecoveries++
		} else {
			fork.Crash() // completed on the first try: crash it again anyway
		}
		if _, err := fork.Restart(); err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): final restart: %w", i, L, err)
		}

		want := led.through(L)
		if err := verify(fork, L, want); err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): %w", i, L, err)
		}

		// The same boundary again, recovered ONLINE: the engine opens after
		// analysis and the drain/undo finish in the background. A rotating
		// subset re-crashes mid-online-recovery — while the drain and the
		// background loser undo are (possibly) still running — and recovers
		// once more, exercising the no-checkpoint-while-pending crash fence.
		ofork := d.Fork()
		ofork.SetRedoWorkers(opts.RedoWorkers)
		ofork.SetOnlineRestart(true)
		ofork.Log().TruncateTo(L)
		if _, err := ofork.Restart(); err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): online restart: %w", i, L, err)
		}
		if i%3 == 0 {
			ofork.Crash()
			res.OnlineRecrashes++
			if _, err := ofork.Restart(); err != nil {
				return nil, fmt.Errorf("point %d (LSN %d): online re-restart: %w", i, L, err)
			}
		}
		if _, err := ofork.AwaitRecovered(); err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): await recovered: %w", i, L, err)
		}
		if err := verify(ofork, L, want); err != nil {
			return nil, fmt.Errorf("point %d (LSN %d): online: %w", i, L, err)
		}
		if (i+1)%100 == 0 {
			opts.Logf("sweep: %d/%d points verified (%d double recoveries)",
				i+1, len(boundaries), res.DoubleRecoveries)
		}
	}
	return res, nil
}

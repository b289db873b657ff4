package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/recovery"
	"ariesim/internal/repl"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// The standby sweep: live traffic against a primary that ships to a
// standby over a seeded lossy channel, a primary crash mid-traffic, a
// promotion, continued traffic on the promoted node — and exact
// verification at three levels:
//
//  1. Zero acked loss: commits ack through the semi-sync gate, so every
//     commit acknowledged to a client is present on the promoted node.
//     (The whole point.)
//  2. Exact state: the promoted node's rows equal the ledger model —
//     acked commits plus exactly those ambiguous (gate-failed) commits
//     whose commit records made it into the promoted log, nothing else —
//     and so does its secondary index, which the promoted node maintains
//     from the key in the index's catalog row.
//  3. Every-boundary forks: for EVERY record boundary L of the log the
//     standby had received at promotion, from the first record of the
//     table's CreateTable on, a standby promoted from the prefix ≤ L
//     recovers to exactly the commits whose records fit in that prefix —
//     the table and its index each only once its DDL's commit does — so
//     the standby is a correct crash point everywhere, not just where we
//     happened to promote.

// StandbySweepOpts configures RunStandbySweep. The zero value is usable.
type StandbySweepOpts struct {
	Seed    int64
	Workers int // concurrent client goroutines (default 3)
	// PreCrashCommits is how many acked commits to accumulate before the
	// primary is crashed under live traffic (default 120).
	PreCrashCommits int
	// PostPromoteCommits is how many commits the promoted node must serve
	// before the sweep concludes (default 20).
	PostPromoteCommits int
	Keys               int // hot-key space (default 40)
	// Faults is the channel fault profile (zero = perfect channel).
	Faults repl.ChannelFaults
	// OnlineRestart promotes with the online-restart coordinator (open
	// after analysis).
	OnlineRestart bool
	// RedoWorkers drives both the standby's per-batch apply parallelism
	// and the forks' restart redo (default 2).
	RedoWorkers int
	// BoundaryStride verifies every Nth boundary fork (default 1 = all).
	BoundaryStride int
	Logf           func(string, ...any)
}

// standbyGateTimeout bounds how long the semi-sync commit gate waits for
// the standby's acknowledgement.
const standbyGateTimeout = 2 * time.Second

func (o StandbySweepOpts) withDefaults() StandbySweepOpts {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = 3
	}
	if o.PreCrashCommits == 0 {
		o.PreCrashCommits = 120
	}
	if o.PostPromoteCommits == 0 {
		o.PostPromoteCommits = 20
	}
	if o.Keys == 0 {
		o.Keys = 40
	}
	if o.RedoWorkers == 0 {
		o.RedoWorkers = 2
	}
	if o.BoundaryStride == 0 {
		o.BoundaryStride = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// StandbySweepResult summarizes one standby sweep.
type StandbySweepResult struct {
	CommitsAcked   int // commits acknowledged to clients (both nodes)
	CommitsUnacked int // ambiguous gate failures (ErrCommitUnacked)
	ResolvedIn     int // ambiguous commits whose records reached the standby
	ResolvedOut    int // ambiguous commits lost with the primary
	Boundaries     int // boundary forks verified
	InPlaceUpdates int // OpDataUpdate records the standby replayed (0 is an error)
	FailoverTTFC   time.Duration
	ZombieRejected uint64 // dead-primary segments rejected after promotion
	Channel        repl.ChannelCounts
	// Primary and Promoted are the two nodes' engine counters at the end:
	// segments shipped and resent on the primary, segments applied and
	// rejected on the standby that was promoted.
	Primary, Promoted trace.Snapshot
}

// sweepOp is one client transaction: a single-key upsert or delete.
type sweepOp struct {
	key, val string
	del      bool
}

// staged is op's write as the ledger records it.
func (op sweepOp) staged() staged {
	if op.del {
		return staged{op.key: nil}
	}
	return staged{op.key: &op.val}
}

// apply performs op: an upsert, or a delete that treats an absent key as a
// no-op mutation.
func (op sweepOp) apply(tbl *db.Table, tx *txn.Tx) error {
	if !op.del {
		return upsert(tbl, tx, []byte(op.key), []byte(op.val))
	}
	if err := tbl.Delete(tx, []byte(op.key)); !errors.Is(err, db.ErrNotFound) {
		return err
	}
	return nil
}

const standbyTable = "repl_kv"

// RunStandbySweep drives the whole scenario. See the comment at the top of
// this file for the verification contract.
func RunStandbySweep(o StandbySweepOpts) (*StandbySweepResult, error) {
	o = o.withDefaults()
	res := &StandbySweepResult{}

	// ---- Build the primary, the channel, the standby, the shipper.
	pOpts := db.Options{PoolSize: 96, RedoWorkers: o.RedoWorkers, Stats: &trace.Stats{}}
	primary := db.Open(pOpts)
	tbl, err := primary.CreateTable(standbyTable)
	if err != nil {
		return nil, err
	}
	// The table (the index) exists in a log prefix exactly when the prefix
	// holds the CreateTable's (CreateIndex's) commit, the last record it
	// wrote.
	ddlLSN := primary.Log().MaxLSN()
	if err := tbl.CreateIndex(indexName, indexKey); err != nil {
		return nil, err
	}
	indexLSN := primary.Log().MaxLSN()

	ch := repl.NewChannel(o.Faults)
	sOpts := db.Options{PoolSize: 96, RedoWorkers: o.RedoWorkers,
		OnlineRestart: o.OnlineRestart, Stats: &trace.Stats{}}
	standby := repl.NewStandby(ch, sOpts)
	standby.Start()

	shipper := repl.NewShipper(primary.Log(), ch, primary.Stats())
	shipper.Start()
	primary.SetCommitGate(shipper.Gate(standbyGateTimeout))

	// ---- Live traffic. Each generation (1 = old primary, 2 = promoted
	// node) keeps its own ledger: the two logs share an address space.
	leds := [3]*ledger{nil, newLedger(), newLedger()}
	var curDB atomic.Pointer[db.DB]
	var curGen atomic.Int64
	curDB.Store(primary)
	curGen.Store(1)
	promoteCh := make(chan struct{}) // closed once the promoted node serves
	stopCh := make(chan struct{})
	var unacked atomic.Int64
	var postCommits atomic.Int64
	var crashedAt time.Time
	var ttfcOnce sync.Once
	var ttfc time.Duration
	var fatal firstErr

	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed*1000 + int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				d := curDB.Load()
				gen := int(curGen.Load())
				op := sweepOp{key: fmt.Sprintf("k%03d", rng.Intn(o.Keys))}
				if rng.Float64() < 0.15 {
					op.del = true
				} else {
					op.val = fmt.Sprintf("w%d-%d", w, i)
				}
				var lsn wal.LSN
				err := d.RunTxnWith(db.RunTxnOpts{
					Seed:          o.Seed*10000 + int64(w)*100 + int64(i) + 1,
					RetryDeadline: 150 * time.Millisecond,
					OnCommitted:   func(l wal.LSN) { lsn = l; leds[gen].record(l, op.staged()) },
					OnCommit: func() {
						leds[gen].ack(lsn)
						if gen == 2 {
							postCommits.Add(1)
							ttfcOnce.Do(func() { ttfc = time.Since(crashedAt) })
						}
					},
				}, func(tx *txn.Tx) error {
					tbl, err := d.TableFor(tx, standbyTable)
					if err != nil {
						return err
					}
					return op.apply(tbl, tx)
				})
				switch {
				case err == nil:
				case errors.Is(err, db.ErrCommitUnacked):
					// Ambiguous: locally durable, standby unconfirmed. The
					// ledger's pending entry resolves it after failover;
					// retrying would risk double-apply, so don't.
					unacked.Add(1)
				case db.ClassifyErr(err) == db.ClassCrash:
					// The primary died under us. Park until the promoted
					// node serves, then continue — fresh mutations, same
					// ledger discipline.
					select {
					case <-promoteCh:
					case <-stopCh:
						return
					}
				default:
					fatal.set(fmt.Errorf("repl sweep: worker %d: %w", w, err))
					return
				}
			}
		}(w)
	}

	waitFor := func(cond func() bool, what string) error {
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			if err := fatal.get(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("repl sweep: timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// ---- Phase 1: accumulate acked commits, then crash mid-traffic.
	if err := waitFor(func() bool { return leds[1].ackedCount() >= o.PreCrashCommits }, "pre-crash commits"); err != nil {
		close(stopCh)
		wg.Wait()
		return nil, err
	}
	crashedAt = time.Now()
	primary.Crash() // workers are live; the shipper keeps running as a zombie
	o.Logf("repl: primary crashed after %d acked commits (lag %d bytes)",
		leds[1].ackedCount(), shipper.Lag())

	// ---- Phase 2: fence, capture the promoted base, promote.
	standby.Fence()
	preLog := standby.DB().Log().Clone(&trace.Stats{})
	promoted, _, err := standby.Promote()
	if err != nil {
		close(stopCh)
		wg.Wait()
		return nil, fmt.Errorf("repl sweep: promote: %w", err)
	}
	curDB.Store(promoted)
	curGen.Store(2)
	close(promoteCh)

	// ---- Phase 3: the promoted node serves traffic.
	if err := waitFor(func() bool { return postCommits.Load() >= int64(o.PostPromoteCommits) }, "post-promote commits"); err != nil {
		close(stopCh)
		wg.Wait()
		return nil, err
	}
	close(stopCh)
	wg.Wait()
	if err := fatal.get(); err != nil {
		return nil, err
	}
	res.FailoverTTFC = ttfc

	// ---- Phase 4: the zombie primary's dying gasp must bounce off the
	// promotion fence.
	rejBefore := promoted.Stats().SegmentsRejected.Load()
	if err := waitFor(func() bool {
		shipper.ShipNow() // keep gasping: the lossy channel may drop any one frame
		return promoted.Stats().SegmentsRejected.Load() > rejBefore
	}, "zombie segment rejection"); err != nil {
		return nil, err
	}
	res.ZombieRejected = promoted.Stats().SegmentsRejected.Load() - rejBefore
	shipper.Stop()
	ch.Close()
	standby.Wait()

	// ---- Phase 5: verification.
	if _, err := promoted.AwaitRecovered(); err != nil {
		return nil, fmt.Errorf("repl sweep: promoted recovery: %w", err)
	}

	// (a) Zero acked loss, and resolution accounting. Post-promote commits
	// landed on the serving node itself.
	var lost wal.LSN
	res.ResolvedIn, res.ResolvedOut, lost = leds[1].resolve(preLog)
	if lost != wal.NilLSN {
		return nil, fmt.Errorf("repl sweep: ACKED commit LSN %d lost in failover", lost)
	}
	if _, _, lost := leds[2].resolve(promoted.Log()); lost != wal.NilLSN {
		return nil, fmt.Errorf("repl sweep: post-promote commit LSN %d missing from promoted log", lost)
	}

	// (b) Exact state: promoted rows = gen-1 entries resolved by the
	// promoted base, then gen-2 entries by the promoted log.
	want := leds[2].heldBy(leds[1].heldBy(nil, preLog), promoted.Log())
	if err := verifyRows(promoted, standbyTable, want); err != nil {
		return nil, fmt.Errorf("repl sweep: promoted state: %v", err)
	}
	if err := verifyIndex(promoted, standbyTable, indexName, true, want); err != nil {
		return nil, fmt.Errorf("repl sweep: promoted state: %v", err)
	}
	if err := promoted.VerifyConsistency(); err != nil {
		return nil, fmt.Errorf("repl sweep: promoted consistency: %v", err)
	}
	// The standby's log is the primary's bytes over the range it received,
	// and every record of it (and of the promoted log) decodes and indexes.
	got, sent := preLog.ShipFrom(wal.NilLSN+1).Body, primary.Log().ShipFrom(wal.NilLSN+1).Body
	if len(got) > len(sent) || !bytes.Equal(got, sent[:len(got)]) {
		return nil, fmt.Errorf("repl sweep: the standby's %d log bytes are not the primary's (%d stable)", len(got), len(sent))
	}
	for _, l := range []*wal.Log{preLog, promoted.Log()} {
		if err := l.CodecRoundTrip(); err != nil {
			return nil, fmt.Errorf("repl sweep: standby log codec: %v", err)
		}
	}

	// (c) Every-boundary forks over the received window: each prefix of
	// the standby's log is a correct promotion point.
	if res.InPlaceUpdates = inPlaceUpdates(preLog); res.InPlaceUpdates == 0 {
		return nil, errNoInPlaceUpdate
	}
	boundaries := recovery.Boundaries(preLog, wal.NilLSN)
	for i := 0; i < len(boundaries); i += o.BoundaryStride {
		L := boundaries[i]
		truncLog := preLog.Clone(&trace.Stats{})
		truncLog.TruncateTo(L)
		fOpts := db.Options{PoolSize: 96, RedoWorkers: o.RedoWorkers, Stats: &trace.Stats{}}
		fork, _, err := db.OpenStandby(fOpts, truncLog)
		if err != nil {
			return nil, fmt.Errorf("repl sweep: boundary %d (LSN %d): open: %v", i, L, err)
		}
		want := leds[1].heldBy(nil, fork.Log())
		if err := verifyTableAt(fork, standbyTable, L >= ddlLSN, want); err != nil {
			return nil, fmt.Errorf("repl sweep: boundary %d (LSN %d): %v", i, L, err)
		}
		if L >= ddlLSN {
			if err := verifyIndex(fork, standbyTable, indexName, L >= indexLSN, want); err != nil {
				return nil, fmt.Errorf("repl sweep: boundary %d (LSN %d): %v", i, L, err)
			}
		}
		res.Boundaries++
	}

	// ---- Bookkeeping.
	res.Primary = primary.Stats().Snap()
	res.Promoted = promoted.Stats().Snap()
	res.CommitsAcked = leds[1].ackedCount() + leds[2].ackedCount()
	res.CommitsUnacked = int(unacked.Load())
	res.Channel = ch.Counts()
	o.Logf("repl: %d acked (%d ambiguous: %d resolved in, %d out), TTFC %v, %d boundaries, "+
		"%d shipped/%d resent/%d applied/%d rejected, zombie %d, channel %+v",
		res.CommitsAcked, res.CommitsUnacked, res.ResolvedIn, res.ResolvedOut, res.FailoverTTFC,
		res.Boundaries, res.Primary.SegmentsShipped, res.Primary.SegmentsResent, res.Promoted.SegmentsApplied,
		res.Promoted.SegmentsRejected, res.ZombieRejected, res.Channel)
	return res, nil
}

package repl

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

func testDBOpts() db.Options {
	return db.Options{PoolSize: 64, RedoWorkers: 2, Stats: &trace.Stats{}}
}

// pair wires a primary, a channel with the given faults, a standby, and a
// started shipper.
func pair(t *testing.T, faults ChannelFaults) (*db.DB, *Channel, *Standby, *Shipper) {
	t.Helper()
	primary := db.Open(testDBOpts())
	if _, err := primary.CreateTable(testTable); err != nil {
		t.Fatalf("create table: %v", err)
	}
	ch := NewChannel(faults)
	standby := NewStandby(ch, testDBOpts())
	standby.Start()
	shipper := NewShipper(primary.Log(), ch, primary.Stats())
	shipper.Start()
	return primary, ch, standby, shipper
}

const testTable = "repl_kv"

func put(t *testing.T, d *db.DB, k, v string) {
	t.Helper()
	if err := d.RunTxn(func(tx *txn.Tx) error {
		tbl, err := d.TableFor(tx, testTable)
		if err != nil {
			return err
		}
		err = tbl.Insert(tx, []byte(k), []byte(v))
		if errors.Is(err, db.ErrDuplicate) {
			err = tbl.Update(tx, []byte(k), []byte(v))
		}
		return err
	}); err != nil {
		t.Fatalf("put %s=%s: %v", k, v, err)
	}
}

// verifyRows checks that the engine's test table is exactly want.
func verifyRows(d *db.DB, want map[string]string) error {
	tbl, err := d.Table(testTable)
	if err != nil {
		return err
	}
	tx, err := d.Begin() // not RunTxn: a check must not count as an acked commit
	if err != nil {
		return err
	}
	defer tx.Rollback()
	got := map[string]string{}
	if err := tbl.Scan(tx, nil, nil, func(r db.Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	}); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("rows = %v, want %v", got, want)
	}
	return nil
}

// sameBytes fails unless the standby's log is byte for byte the primary's
// stable log over the range the standby holds.
func sameBytes(standby, primary *wal.Log) error {
	got, sent := standby.ShipFrom(wal.NilLSN+1).Body, primary.ShipFrom(wal.NilLSN+1).Body
	if len(got) > len(sent) || !bytes.Equal(got, sent[:len(got)]) {
		return fmt.Errorf("the standby's %d log bytes are not the primary's (%d stable)", len(got), len(sent))
	}
	return nil
}

// commitSet collects the LSN of every commit record in the log.
func commitSet(log *wal.Log) map[wal.LSN]bool {
	set := map[wal.LSN]bool{}
	log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecCommit {
			set[r.LSN] = true
		}
		return true
	})
	return set
}

// TestShipApplyPromote covers the clean-channel round trip: commits
// stream to the standby as they harden, an in-flight transaction's
// records ship too, and promotion undoes the in-flight work — its row
// must not appear on the promoted node.
func TestShipApplyPromote(t *testing.T) {
	primary, ch, standby, shipper := pair(t, ChannelFaults{})
	defer ch.Close()

	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k := "k" + strconv.Itoa(i%7)
		v := "v" + strconv.Itoa(i)
		put(t, primary, k, v)
		want[k] = v
	}

	// An in-flight transaction: its update record ships (a later commit
	// forces the log past it) but it never commits — ARIES/IM's headline
	// assertion is that promotion's undo erases it.
	tx := primary.MustBegin()
	tbl, err := primary.TableFor(tx, testTable)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	if err := tbl.Insert(tx, []byte("zz-uncommitted"), []byte("ghost")); err != nil {
		t.Fatalf("in-flight insert: %v", err)
	}
	put(t, primary, "k-final", "done") // forces the log past the ghost record
	want["k-final"] = "done"

	if err := shipper.WaitAcked(primary.Log().StableLSN(), 5*time.Second); err != nil {
		t.Fatalf("standby never caught up: %v", err)
	}
	if got, stable := standby.AppliedLSN(), primary.Log().StableLSN(); got != stable {
		t.Fatalf("applied %d, primary stable %d", got, stable)
	}
	if err := sameBytes(standby.DB().Log(), primary.Log()); err != nil {
		t.Fatal(err)
	}

	promoted, rep, err := standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if rep == nil {
		t.Fatalf("promote returned no recovery report")
	}
	shipper.Stop()
	if err := verifyRows(promoted, want); err != nil {
		t.Fatalf("promoted state: %v", err)
	}
	if err := promoted.VerifyConsistency(); err != nil {
		t.Fatalf("promoted consistency: %v", err)
	}
}

// TestLossyChannelCatchUp runs every fault class at once under the
// semi-sync gate: each commit must still ack (the retransmit ticker repairs
// the stream), and the standby must converge to the primary's exact state —
// a table created mid-stream included, whose schema reaches the standby
// only as catalog records in the log the faults mangle.
func TestLossyChannelCatchUp(t *testing.T) {
	faults := ChannelFaults{
		Seed:        42,
		DropProb:    0.20,
		DupProb:     0.10,
		ReorderProb: 0.10,
		CorruptProb: 0.08,
		StallProb:   0.05,
	}
	primary, ch, standby, shipper := pair(t, faults)
	defer ch.Close()
	primary.SetCommitGate(shipper.Gate(5 * time.Second))

	want := map[string]string{}
	n := 60
	if testing.Short() {
		n = 25
	}
	const second = "repl_kv2"
	for i := 0; i < n; i++ {
		k := "k" + strconv.Itoa(i%9)
		v := "v" + strconv.Itoa(i)
		put(t, primary, k, v) // gated: returns only once standby-durable
		want[k] = v
		if i == n/2 {
			if _, err := primary.CreateTable(second); err != nil {
				t.Fatalf("create %s: %v", second, err)
			}
			if err := primary.RunTxn(func(tx *txn.Tx) error {
				tbl, err := primary.TableFor(tx, second)
				if err != nil {
					return err
				}
				return tbl.Insert(tx, []byte("b"), []byte("2"))
			}); err != nil {
				t.Fatalf("insert into %s: %v", second, err)
			}
		}
	}
	counts := ch.Counts()
	if counts.Dropped+counts.Duplicated+counts.Reordered+counts.Corrupted == 0 {
		t.Fatalf("fault injector never fired: %+v", counts)
	}
	if got := standby.AppliedLSN(); got < primary.Log().StableLSN() {
		t.Fatalf("gated commits acked but applied %d < stable %d", got, primary.Log().StableLSN())
	}

	promoted, _, err := standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	shipper.Stop()
	if err := verifyRows(promoted, want); err != nil {
		t.Fatalf("promoted state after lossy stream: %v", err)
	}
	tbl, err := promoted.Table(second)
	if err != nil {
		t.Fatalf("promoted node lacks %s: %v", second, err)
	}
	tx := promoted.MustBegin()
	defer tx.Rollback()
	if v, err := tbl.Get(tx, []byte("b")); err != nil || string(v) != "2" {
		t.Fatalf("%s[b] = %q, %v; want 2", second, v, err)
	}
	t.Logf("channel: %+v; resent=%d applied=%d rejected=%d",
		counts, primary.Stats().SegmentsResent.Load(),
		promoted.Stats().SegmentsApplied.Load(), promoted.Stats().SegmentsRejected.Load())
}

// TestGapIsDroppedUntilReshipped drives the standby's gap handling by hand:
// a segment starting beyond its tail, sent several times, is rejected every
// time, nothing is applied across the gap, the acked watermark does not move
// and its doorbell never rings. A re-ship from the acked watermark — what the
// shipper's retransmit ticker sends — then heals the standby exactly.
func TestGapIsDroppedUntilReshipped(t *testing.T) {
	primary := db.Open(testDBOpts())
	if _, err := primary.CreateTable(testTable); err != nil {
		t.Fatalf("create table: %v", err)
	}
	want := map[string]string{}
	for i := 0; i < 12; i++ {
		k := "k" + strconv.Itoa(i%5)
		v := "v" + strconv.Itoa(i)
		put(t, primary, k, v)
		want[k] = v
	}

	ch := NewChannel(ChannelFaults{})
	defer ch.Close()
	standby := NewStandby(ch, testDBOpts())
	standby.Start()
	sstats := standby.DB().Stats()

	// Ship only a mid-log suffix, several times: the standby sees a gap.
	recs := primary.Log().SnapshotFrom(1)
	if len(recs) < 4 {
		t.Fatalf("need a few records, have %d", len(recs))
	}
	from := recs[len(recs)/2].LSN
	const repeats = 5
	for i := 0; i < repeats; i++ {
		ch.Send(primary.Log().ShipFrom(from).Encode())
	}
	for wait := time.Now().Add(10 * time.Second); sstats.SegmentsRejected.Load() < repeats; {
		if time.Now().After(wait) {
			t.Fatalf("%d of %d gapped segments rejected", sstats.SegmentsRejected.Load(), repeats)
		}
		runtime.Gosched()
	}
	if got := standby.AppliedLSN(); got != wal.NilLSN || sstats.SegmentsApplied.Load() != 0 || standby.DB().Log().NumRecords() != 0 {
		t.Fatalf("applied across the gap: at %d after %d segments, %d records logged",
			got, sstats.SegmentsApplied.Load(), standby.DB().Log().NumRecords())
	}
	select {
	case <-ch.AckCh():
		t.Fatalf("the ack doorbell rang for gapped segments (acked %d)", ch.Acked())
	default:
	}
	if got := ch.Acked(); got != wal.NilLSN {
		t.Fatalf("acked %d across the gap", got)
	}

	// The ticker's re-ship from the acked watermark heals the gap.
	ch.Send(primary.Log().ShipFrom(ch.Acked() + 1).Encode())
	stable := primary.Log().StableLSN()
	select {
	case <-ch.AckCh():
	case <-time.After(10 * time.Second):
		t.Fatalf("gap never healed: at %d, want %d", standby.AppliedLSN(), stable)
	}
	if got := ch.Acked(); got != stable || standby.AppliedLSN() != stable {
		t.Fatalf("acked %d, applied %d; want %d", got, standby.AppliedLSN(), stable)
	}
	if err := sameBytes(standby.DB().Log(), primary.Log()); err != nil {
		t.Fatal(err)
	}
	if got := standby.DB().Log().Bytes(); got != uint64(primary.Log().NextLSN()-1) {
		t.Fatalf("the standby holds %d log bytes, the primary %d", got, primary.Log().NextLSN()-1)
	}
	promoted, _, err := standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := verifyRows(promoted, want); err != nil {
		t.Fatalf("healed state: %v", err)
	}
}

// TestRedoFailureStopsStandby: a shipped record the standby cannot redo
// stops it. It applies and acknowledges nothing more, and Promote returns
// the failure instead of opening a replica that lacks the record.
func TestRedoFailureStopsStandby(t *testing.T) {
	ch := NewChannel(ChannelFaults{})
	defer ch.Close()
	standby := NewStandby(ch, testDBOpts())
	standby.Start()
	sstats := standby.DB().Stats()

	// A record no resource manager owns: appended and forced like any
	// other, then refused by redo.
	bad := wal.NewLog(nil)
	bad.Force(bad.Append(&wal.Record{Type: wal.RecUpdate, TxID: 1, Op: wal.OpCode(250), Page: 1}))
	ch.Send(bad.ShipFrom(wal.NilLSN + 1).Encode())
	// A heartbeat a running standby would acknowledge; a stopped one
	// rejects it.
	ch.Send(bad.ShipFrom(bad.StableLSN() + 1).Encode())
	for wait := time.Now().Add(10 * time.Second); sstats.SegmentsRejected.Load() == 0; {
		if time.Now().After(wait) {
			t.Fatalf("heartbeat after the failed segment never rejected")
		}
		runtime.Gosched()
	}
	if got := standby.AppliedLSN(); got != wal.NilLSN || sstats.SegmentsApplied.Load() != 0 {
		t.Fatalf("failed segment counted as applied: at %d", got)
	}
	if got := ch.Acked(); got != wal.NilLSN {
		t.Fatalf("stopped standby acked %d", got)
	}
	promoted, _, err := standby.Promote()
	if err == nil || promoted != nil {
		t.Fatalf("promote = %v, %v; want the redo failure", promoted, err)
	}
	if !strings.Contains(err.Error(), "redo") {
		t.Fatalf("promote error %q does not name the redo failure", err)
	}
}

// TestZombieFencing: once the standby is promoted, every segment the dead
// primary still ships bounces off it, and the zombie's later writes never
// reach the new primary.
func TestZombieFencing(t *testing.T) {
	primary, ch, standby, shipper := pair(t, ChannelFaults{})
	defer ch.Close()
	put(t, primary, "a", "1")
	if err := shipper.WaitAcked(primary.Log().StableLSN(), 5*time.Second); err != nil {
		t.Fatalf("catch up: %v", err)
	}
	promoted, _, err := standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	rejBefore := promoted.Stats().SegmentsRejected.Load()
	put(t, primary, "b", "2") // zombie keeps writing and shipping
	shipper.ShipNow()
	for wait := time.Now().Add(5 * time.Second); promoted.Stats().SegmentsRejected.Load() == rejBefore; {
		if time.Now().After(wait) {
			t.Fatalf("zombie segment never rejected")
		}
		runtime.Gosched()
	}
	shipper.Stop()
	// The zombie's post-promotion write must not exist on the new primary.
	if err := verifyRows(promoted, map[string]string{"a": "1"}); err != nil {
		t.Fatalf("promoted state: %v", err)
	}
}

// TestPromotionRacesRetryLoop is the exactly-once test: clients hammer a
// single counter through the crash and the promotion, retrying
// crash-class errors against whichever node currently serves. Every
// increment acknowledged to a client must appear on the promoted node
// exactly once — the final counter value equals the number of commit
// records that survived, and every ACKED gen-1 commit is among them.
func TestPromotionRacesRetryLoop(t *testing.T) {
	primary, ch, standby, shipper := pair(t, ChannelFaults{
		Seed: 9, DropProb: 0.10, DupProb: 0.05, ReorderProb: 0.05,
	})
	defer ch.Close()
	primary.SetCommitGate(shipper.Gate(2 * time.Second))

	const key = "ctr"
	preTarget, postTarget := 25, 10
	if testing.Short() {
		preTarget, postTarget = 12, 5
	}

	var curDB atomic.Pointer[db.DB]
	var curGen atomic.Int64
	curDB.Store(primary)
	curGen.Store(1)
	promoteCh := make(chan struct{})
	stopCh := make(chan struct{})

	// pend[gen] maps commit LSN → acked?, exactly the sweep's ledger but
	// for a single counter: the op is always "+1".
	var ledMu sync.Mutex
	pend := map[int]map[wal.LSN]bool{1: {}, 2: {}}
	var ackedGen1, ackedGen2 atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				d := curDB.Load()
				gen := int(curGen.Load())
				var lsn wal.LSN
				err := d.RunTxnWith(db.RunTxnOpts{
					Seed:          int64(w*1000+i) + 1,
					RetryDeadline: 200 * time.Millisecond,
					OnCommitted: func(l wal.LSN) {
						lsn = l
						ledMu.Lock()
						pend[gen][l] = false
						ledMu.Unlock()
					},
					OnCommit: func() {
						ledMu.Lock()
						pend[gen][lsn] = true
						ledMu.Unlock()
						if gen == 1 {
							ackedGen1.Add(1)
						} else {
							ackedGen2.Add(1)
						}
					},
				}, func(tx *txn.Tx) error {
					tbl, err := d.TableFor(tx, testTable)
					if err != nil {
						return err
					}
					// An upsert loop: both workers can find no row, and the one
					// whose Insert loses that race reads the winner's row and
					// increments it instead of failing the transaction.
					for {
						cur, err := tbl.Get(tx, []byte(key))
						if err == nil {
							n, _ := strconv.Atoi(string(cur))
							return tbl.Update(tx, []byte(key), []byte(strconv.Itoa(n+1)))
						}
						if !errors.Is(err, db.ErrNotFound) {
							return err
						}
						if err := tbl.Insert(tx, []byte(key), []byte("1")); !errors.Is(err, db.ErrDuplicate) {
							return err
						}
					}
				})
				switch {
				case err == nil:
				case errors.Is(err, db.ErrCommitUnacked):
					// Ambiguous — the pend entry resolves it; do NOT retry,
					// a blind retry is exactly the double-apply this test
					// exists to catch.
				case db.ClassifyErr(err) == db.ClassContention:
					// RunTxn gave up on a run of deadlocks (both workers read
					// the counter under S, then upgrade): its last attempt
					// rolled back, so it committed nothing and left no pend
					// entry.
				case db.ClassifyErr(err) == db.ClassCrash:
					// The retry loop under test: crash-class errors park the
					// client until failover completes, then it retries
					// against the promoted node.
					select {
					case <-promoteCh:
					case <-stopCh:
						return
					}
				default:
					t.Errorf("worker %d: unexpected error: %v", w, err)
					return
				}
			}
		}(w)
	}

	waitCount := func(c *atomic.Int64, n int, what string) {
		t.Helper()
		for wait := time.Now().Add(60 * time.Second); c.Load() < int64(n); {
			if t.Failed() || time.Now().After(wait) {
				close(stopCh)
				wg.Wait()
				t.Fatalf("stalled waiting for %s (%d/%d)", what, c.Load(), n)
			}
			runtime.Gosched()
		}
	}
	waitCount(&ackedGen1, preTarget, "pre-crash increments")
	primary.Crash()
	standby.Fence()
	preLog := standby.DB().Log().Clone(&trace.Stats{})
	promoted, _, err := standby.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	curDB.Store(promoted)
	curGen.Store(2)
	close(promoteCh)
	waitCount(&ackedGen2, postTarget, "post-promote increments")
	close(stopCh)
	wg.Wait()
	shipper.Stop()

	// Resolve the ledger: a gen-1 increment took effect iff its commit
	// record is in the promoted base; gen-2 iff in the promoted log.
	preCommits := commitSet(preLog)
	postCommits := commitSet(promoted.Log())
	ledMu.Lock()
	expect := 0
	for l, acked := range pend[1] {
		if preCommits[l] {
			expect++
		} else if acked {
			t.Errorf("ACKED gen-1 increment LSN %d lost in failover", l)
		}
	}
	for l := range pend[2] {
		if !postCommits[l] {
			t.Errorf("gen-2 increment LSN %d missing from promoted log", l)
		}
		expect++
	}
	ledMu.Unlock()

	got := -1
	if err := promoted.RunTxn(func(tx *txn.Tx) error {
		tbl, err := promoted.TableFor(tx, testTable)
		if err != nil {
			return err
		}
		v, err := tbl.Get(tx, []byte(key))
		if err != nil {
			return err
		}
		got, err = strconv.Atoi(string(v))
		return err
	}); err != nil {
		t.Fatalf("read counter: %v", err)
	}
	if got != expect {
		t.Fatalf("counter = %d, want %d (double- or under-applied retries)", got, expect)
	}
	t.Logf("counter %d: gen1 acked %d, gen2 acked %d, pend1 %d, pend2 %d",
		got, ackedGen1.Load(), ackedGen2.Load(), len(pend[1]), len(pend[2]))
}

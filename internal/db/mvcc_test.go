package db

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

func key8(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// TestSnapshotReadBasic: a read-only transaction sees committed rows via
// Get/Scan/ScanPrefix/GetCS and secondary-index scans, refuses writes,
// and makes zero lock-manager requests.
func TestSnapshotReadBasic(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("s", KeySpec{Prefix: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < 20; i++ {
			if err := tbl.Insert(tx, key8(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Snap()
	err = d.RunReadOnly(func(tx *txn.Tx) error {
		if tx.Snapshot() == nil {
			return fmt.Errorf("expected a snapshot transaction")
		}
		v, err := tbl.Get(tx, key8(7))
		if err != nil {
			return err
		}
		if string(v) != "v7" {
			return fmt.Errorf("get = %q, want v7", v)
		}
		if v, err = tbl.GetCS(tx, key8(3)); err != nil || string(v) != "v3" {
			return fmt.Errorf("getcs = %q, %v", v, err)
		}
		if _, err := tbl.Get(tx, []byte("nope")); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing key: %v", err)
		}
		var n int
		if err := tbl.Scan(tx, nil, nil, func(r Row) (bool, error) { n++; return true, nil }); err != nil {
			return err
		}
		if n != 20 {
			return fmt.Errorf("scan saw %d rows, want 20", n)
		}
		n = 0
		if err := tbl.ScanPrefix(tx, []byte("k0000001"), func(r Row) (bool, error) { n++; return true, nil }); err != nil {
			return err
		}
		if n != 10 {
			return fmt.Errorf("prefix scan saw %d rows, want 10", n)
		}
		if err := tbl.Insert(tx, []byte("x"), []byte("y")); !errors.Is(err, ErrReadOnlyTxn) {
			return fmt.Errorf("insert on snapshot tx: %v", err)
		}
		if err := tbl.Delete(tx, key8(0)); !errors.Is(err, ErrReadOnlyTxn) {
			return fmt.Errorf("delete on snapshot tx: %v", err)
		}
		n = 0
		if err := tbl.ScanIndex(tx, "s", func(sk []byte, r Row) (bool, error) {
			if len(r.Value) < 2 || string(sk) != string(r.Value[:2]) {
				return false, fmt.Errorf("index scan pair %q / %q disagrees with extractor", sk, r.Value)
			}
			n++
			return true, nil
		}); err != nil {
			return err
		}
		if n != 20 {
			return fmt.Errorf("index scan saw %d rows, want 20", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := trace.Diff(before, d.Stats().Snap())
	if diff.ReadOnlyLockCalls != 0 {
		t.Errorf("snapshot reader made %d lock-manager calls, want 0", diff.ReadOnlyLockCalls)
	}
	if diff.SnapshotBegins == 0 || diff.SnapshotReads == 0 {
		t.Errorf("snapshot counters not advancing: %+v", diff)
	}
}

// TestSnapshotIsolation: a reader holding a snapshot keeps seeing the
// old world while writers commit updates, deletes, and inserts past it;
// a fresh snapshot sees the new world.
func TestSnapshotIsolation(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	put := func(k, v string) {
		t.Helper()
		if err := d.RunTxn(func(tx *txn.Tx) error {
			if err := tbl.Insert(tx, []byte(k), []byte(v)); errors.Is(err, ErrDuplicate) {
				return tbl.Update(tx, []byte(k), []byte(v))
			} else {
				return err
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Delete(tx, []byte(k)) }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "1")
	put("b", "2")
	put("c", "3")

	rtx, err := d.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer d.EndReadOnly(rtx)

	put("a", "1'") // update past the snapshot
	del("b")       // delete past the snapshot
	put("d", "4")  // insert past the snapshot

	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	got := map[string]string{}
	if err := tbl.Scan(rtx, nil, nil, func(r Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot scan = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("snapshot scan[%q] = %q, want %q", k, got[k], v)
		}
		gv, err := tbl.Get(rtx, []byte(k))
		if err != nil || string(gv) != v {
			t.Errorf("snapshot get %q = %q, %v; want %q", k, gv, err, v)
		}
	}
	if _, err := tbl.Get(rtx, []byte("d")); !errors.Is(err, ErrNotFound) {
		t.Errorf("post-snapshot insert visible: %v", err)
	}

	// A fresh snapshot sees the new world.
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if v, err := tbl.Get(tx, []byte("a")); err != nil || string(v) != "1'" {
			return fmt.Errorf("fresh get a = %q, %v", v, err)
		}
		if _, err := tbl.Get(tx, []byte("b")); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("deleted b still visible: %v", err)
		}
		if v, err := tbl.Get(tx, []byte("d")); err != nil || string(v) != "4" {
			return fmt.Errorf("fresh get d = %q, %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotTooOldRetryable: churning a key past the chain cap while an
// old snapshot is live forces ErrSnapshotTooOld, which classifies as
// contention (never fatal) and repairs under RunReadOnly's retry loop.
func TestSnapshotTooOldRetryable(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Insert(tx, []byte("hot"), []byte("v0")) }); err != nil {
		t.Fatal(err)
	}
	rtx, err := d.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer d.EndReadOnly(rtx)
	// Each update pushes two versions (tombstone + insert); 40 commits
	// blow far past the 32-version chain cap, forcing folds beyond the
	// registered snapshot.
	for i := 1; i <= 40; i++ {
		v := []byte(fmt.Sprintf("v%d", i))
		if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Update(tx, []byte("hot"), v) }); err != nil {
			t.Fatal(err)
		}
	}
	_, err = tbl.Get(rtx, []byte("hot"))
	if !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("stale snapshot read: %v, want ErrSnapshotTooOld", err)
	}
	if ClassifyErr(err) != ClassContention {
		t.Errorf("ErrSnapshotTooOld classified %v, want ClassContention", ClassifyErr(err))
	}
	if d.Stats().SnapshotTooOld.Load() == 0 {
		t.Error("SnapshotTooOld counter did not advance")
	}
	// RunReadOnly repairs it: the first attempt's injected staleness is
	// retried on a fresh snapshot.
	attempt := 0
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if attempt++; attempt == 1 {
			return ErrSnapshotTooOld
		}
		v, err := tbl.Get(tx, []byte("hot"))
		if err != nil {
			return err
		}
		if string(v) != "v40" {
			return fmt.Errorf("retried read = %q, want v40", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempt != 2 {
		t.Errorf("RunReadOnly ran %d attempts, want 2", attempt)
	}
}

// TestReadOnlyFallbackDuringRecovery: while online restart recovery is
// pending, BeginReadOnly degrades to an ordinary locked transaction (nil
// snapshot) that still reads correctly; after recovery, snapshots resume.
func TestReadOnlyFallbackDuringRecovery(t *testing.T) {
	d := Open(Options{OnlineRestart: true})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.RunTxn(func(tx *txn.Tx) error {
			return tbl.Insert(tx, key8(i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	sawFallback := false
	for i := 0; i < 10 && d.Recovering(); i++ {
		err := d.RunReadOnly(func(tx *txn.Tx) error {
			if tx.Snapshot() == nil {
				sawFallback = true
			}
			tbl2, err := d.TableFor(tx, "t")
			if err != nil {
				return err
			}
			v, err := tbl2.Get(tx, key8(3))
			if err != nil {
				return err
			}
			if string(v) != "v" {
				return fmt.Errorf("fallback get = %q", v)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = sawFallback // timing-dependent; correctness is what matters
	if _, err := d.AwaitRecovered(); err != nil {
		t.Fatal(err)
	}
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if tx.Snapshot() == nil {
			return fmt.Errorf("expected snapshot mode after recovery")
		}
		tbl2, err := d.TableFor(tx, "t")
		if err != nil {
			return err
		}
		_, err = tbl2.Get(tx, key8(3))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// oracleLedger records every acknowledged commit's row effects keyed by
// its commit LSN. OnCommitted runs under the commit's epoch lock, so a
// recorded entry is durable and an unrecorded one never acked.
type oracleLedger struct {
	mu      sync.Mutex
	entries map[wal.LSN][]oracleOp
}

type oracleOp struct {
	key     string
	present bool
	value   string
}

func (l *oracleLedger) record(lsn wal.LSN, ops []oracleOp) {
	l.mu.Lock()
	l.entries[lsn] = append([]oracleOp(nil), ops...)
	l.mu.Unlock()
}

// applyThrough replays all entries with LSN <= s in LSN order.
func (l *oracleLedger) applyThrough(s wal.LSN) map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := make([]wal.LSN, 0, len(l.entries))
	for lsn := range l.entries {
		if lsn <= s {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	model := map[string]string{}
	for _, lsn := range lsns {
		for _, op := range l.entries[lsn] {
			if op.present {
				model[op.key] = op.value
			} else {
				delete(model, op.key)
			}
		}
	}
	return model
}

type snapObservation struct {
	s    wal.LSN
	rows map[string]string
}

// TestMVCCSnapshotOracle is the race-mode property test: interleaved
// writers, lock-free snapshot readers, and crashes; every snapshot a
// reader observed must be byte-identical to the serial oracle — the
// acked-commit ledger replayed through the snapshot's LSN. Verification
// is deferred to the quiesced end so the ledger is complete.
func TestMVCCSnapshotOracle(t *testing.T) {
	const keySpace = 48
	writers, readers, crashes, iters := 4, 4, 3, 60
	if testing.Short() {
		writers, readers, crashes, iters = 3, 3, 2, 25
	}
	d := Open(Options{OnlineRestart: true})
	if _, err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ledger := &oracleLedger{entries: map[wal.LSN][]oracleOp{}}
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	var acked atomic.Int64 // writer commits acknowledged so far

	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(seed int64) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				var ops []oracleOp
				err := d.RunTxnWith(RunTxnOpts{
					Seed:          seed*1000 + int64(i) + 1,
					RetryDeadline: 20 * time.Second,
					OnCommitted: func(lsn wal.LSN) {
						ledger.record(lsn, ops)
						acked.Add(1)
					},
				}, func(tx *txn.Tx) error {
					ops = ops[:0]
					tbl, err := d.TableFor(tx, "t")
					if err != nil {
						return err
					}
					for j := 0; j < 2; j++ {
						k := fmt.Sprintf("k%03d", rng.Intn(keySpace))
						v := fmt.Sprintf("w%d.%d.%d", seed, i, j)
						if rng.Intn(3) == 0 {
							err := tbl.Delete(tx, []byte(k))
							if errors.Is(err, ErrNotFound) {
								continue
							}
							if err != nil {
								return err
							}
							ops = append(ops, oracleOp{key: k, present: false})
							continue
						}
						// Upsert. Right after an online restart an insert can
						// find the key (ErrDuplicate) and the update then miss
						// it (ErrNotFound): the other side of a race with a
						// loser's undo, retried in place like the chaos
						// harness's upsert does.
						var err error
						for round := 0; round < 4; round++ {
							if err = tbl.Insert(tx, []byte(k), []byte(v)); !errors.Is(err, ErrDuplicate) {
								break
							}
							if err = tbl.Update(tx, []byte(k), []byte(v)); !errors.Is(err, ErrNotFound) {
								break
							}
						}
						if err != nil {
							return err
						}
						ops = append(ops, oracleOp{key: k, present: true, value: v})
					}
					return nil
				})
				if err != nil {
					t.Errorf("writer %d: %v", seed, err)
					return
				}
			}
		}(int64(w))
	}

	obsCh := make(chan snapObservation, 1024)
	// firstObs counts down once per reader, at its first queued observation
	// (or a full channel, which already holds plenty), so stop waits for
	// every reader to have contributed; a scan made after the writers finish
	// is checked against the complete ledger like any other.
	var firstObs sync.WaitGroup
	firstObs.Add(readers)
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(seed int64) {
			defer readerWg.Done()
			queued := false
			defer func() {
				if !queued {
					firstObs.Done()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var obs *snapObservation
				err := d.RunReadOnlyWith(RunTxnOpts{Seed: seed + 100, RetryDeadline: 20 * time.Second}, func(tx *txn.Tx) error {
					obs = nil
					snap := tx.Snapshot()
					tbl, err := d.TableFor(tx, "t")
					if err != nil {
						return err
					}
					rows := map[string]string{}
					if err := tbl.Scan(tx, nil, nil, func(r Row) (bool, error) {
						rows[string(r.Key)] = string(r.Value)
						return true, nil
					}); err != nil {
						return err
					}
					if snap != nil { // locked fallback snapshots are not point-in-time
						obs = &snapObservation{s: snap.LSN, rows: rows}
					}
					return nil
				})
				if err != nil {
					t.Errorf("reader %d: %v", seed, err)
					return
				}
				if obs != nil {
					select {
					case obsCh <- *obs:
					default: // keep the channel bounded; later observations replace nothing
					}
					if !queued {
						queued = true
						firstObs.Done()
					}
				}
			}
		}(int64(r))
	}

	// Crash after each further share of the writers' commits is acknowledged,
	// so every epoch carries traffic whatever the box's speed; writers that
	// all stopped early (their errors are reported) end the wait.
	writersDone := make(chan struct{})
	go func() {
		writerWg.Wait()
		close(writersDone)
	}()
	awaitAcked := func(n int64) {
		for acked.Load() < n {
			select {
			case <-writersDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}
	for c := 0; c < crashes; c++ {
		awaitAcked(int64((c + 1) * writers * iters / (crashes + 1)))
		d.Crash()
		if _, err := d.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the writers drain and every reader queue an observation, then
	// stop the readers: readers only exit on stop, so waiting for them
	// before closing it would deadlock.
	writerWg.Wait()
	firstObs.Wait()
	close(stop)
	readerWg.Wait()
	close(obsCh)

	verified := 0
	for obs := range obsCh {
		model := ledger.applyThrough(obs.s)
		if len(model) != len(obs.rows) {
			t.Fatalf("snapshot %d: observed %d rows, oracle has %d\nobserved=%v\noracle=%v",
				obs.s, len(obs.rows), len(model), obs.rows, model)
		}
		for k, v := range model {
			if obs.rows[k] != v {
				t.Fatalf("snapshot %d: key %q = %q, oracle says %q", obs.s, k, obs.rows[k], v)
			}
		}
		verified++
	}
	if verified == 0 {
		t.Error("no snapshot observations verified")
	}
	t.Logf("mvcc oracle: %d snapshots verified byte-identical", verified)
}

// TestSnapshotBackupUnderLoad: the whole-table consistent read stays
// consistent (every row from one snapshot) while writers churn.
func TestSnapshotBackupUnderLoad(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: writers keep key i and its shadow i+100 equal; a
	// consistent snapshot must never see them differ.
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < 16; i++ {
			if err := tbl.Insert(tx, key8(i), []byte("0")); err != nil {
				return err
			}
			if err := tbl.Insert(tx, key8(i+100), []byte("0")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(16)
			v := []byte(fmt.Sprintf("%d", gen))
			if err := d.RunTxn(func(tx *txn.Tx) error {
				if err := tbl.Update(tx, key8(i), v); err != nil {
					return err
				}
				return tbl.Update(tx, key8(i+100), v)
			}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for n := 0; n < 20; n++ {
		rows, err := d.SnapshotBackup("t")
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, r := range rows {
			m[string(r.Key)] = string(r.Value)
		}
		for i := 0; i < 16; i++ {
			a, b := m[string(key8(i))], m[string(key8(i+100))]
			if a != b {
				t.Fatalf("backup %d inconsistent: %s=%q %s=%q", n, key8(i), a, key8(i+100), b)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotScanNoDuplicateUnderReinsert: tree keys are (value, RID)
// pairs and the latch-only scan cursor advances by probeAfter, which only
// bumps the RID past the entry it just returned. If a concurrent
// transaction deletes and reinserts the same primary key, the new entry
// lands at a higher RID, so the cursor visits both entries — and because
// the version chain still says the key is visible at the snapshot, the
// scan emitted the row twice (and out of order). The scan callback runs
// with no latches held, so the delete+reinsert can be staged from inside
// it, deterministically between the first visit and the cursor advance.
func TestSnapshotScanNoDuplicateUnderReinsert(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < keys; i++ {
			if err := tbl.Insert(tx, key8(i), []byte("seed")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mutated := false
	var emitted []string
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if tx.Snapshot() == nil {
			return fmt.Errorf("expected a snapshot transaction")
		}
		mutated = false
		emitted = emitted[:0]
		return tbl.Scan(tx, nil, nil, func(r Row) (bool, error) {
			emitted = append(emitted, string(r.Key))
			if !mutated && string(r.Key) == string(key8(3)) {
				mutated = true
				if err := d.RunTxn(func(wtx *txn.Tx) error {
					if err := tbl.Delete(wtx, key8(3)); err != nil {
						return err
					}
					return tbl.Insert(wtx, key8(3), []byte("reborn"))
				}); err != nil {
					return false, err
				}
			}
			return true, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	last := ""
	for _, k := range emitted {
		if seen[k] {
			t.Fatalf("snapshot scan emitted %q twice: %q", k, emitted)
		}
		seen[k] = true
		if k <= last {
			t.Fatalf("snapshot scan out of order (%q after %q): %q", k, last, emitted)
		}
		last = k
	}
	if len(emitted) != keys {
		t.Fatalf("scan emitted %d rows, want %d: %q", len(emitted), keys, emitted)
	}
}

// TestSnapshotScanKeepsRowOfRolledBackDelete: a scan pairs each cursor step
// with the chains of the gap it jumped. A deleter in flight when the cursor
// steps has taken its row's entry out of the tree, and its chain answers for
// the row; if it rolls back before the gap's chains are read, the entry is
// back — behind the cursor — and the chain is gone, and the committed row was
// in neither. The delete is staged from the callback of the row before (no
// latches held), the rollback from the hook between the step and the read of
// the gap's chains; both ends of the range are tried, the last key's gap being the
// one that closes the scan.
func TestSnapshotScanKeepsRowOfRolledBackDelete(t *testing.T) {
	const keys = 8
	for _, victim := range []int{4, keys - 1} {
		d := Open(Options{})
		tbl, err := d.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunTxn(func(tx *txn.Tx) error {
			for i := 0; i < keys; i++ {
				if err := tbl.Insert(tx, key8(i), []byte("seed")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var deleter *txn.Tx
		tbl.scanHook = func() {
			if deleter != nil {
				if err := deleter.Rollback(); err != nil {
					t.Error(err)
				}
				deleter = nil
			}
		}
		var emitted []string
		rtx, err := d.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Scan(rtx, nil, nil, func(r Row) (bool, error) {
			emitted = append(emitted, string(r.Key))
			if string(r.Key) == string(key8(victim-1)) {
				deleter = d.MustBegin()
				if err := tbl.Delete(deleter, key8(victim)); err != nil {
					return false, err
				}
			}
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.EndReadOnly(rtx); err != nil {
			t.Fatal(err)
		}
		want := make([]string, keys)
		for i := range want {
			want[i] = string(key8(i))
		}
		if fmt.Sprint(emitted) != fmt.Sprint(want) {
			t.Fatalf("deleter of key %d rolled back mid-step: scan emitted %q", victim, emitted)
		}
	}
}

// TestInsertSeedWaitsOutChainlessHolder: an inserter seeds its key's chain
// from the page, trusting that whoever has uncommitted work there has a chain
// already. A restart loser undone in the background after an online restart
// has not — its rows are in the pages under reinstated X locks and the
// version store was born empty — so a base seeded from its row would show
// every later snapshot a row that never committed. The loser is played by a
// transaction that puts a row and its index entry in place without pushing a
// version; the inserter must not create the chain until it is gone.
func TestInsertSeedWaitsOutChainlessHolder(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("contested")
	loser := d.MustBegin()
	rid, err := tbl.data.Insert(loser, encodeRow(key, []byte("never committed")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.primary.Insert(loser, storage.Key{Val: key, RID: rid}); err != nil {
		t.Fatal(err)
	}
	waits := d.Stats().LockWaits.Load()
	w := d.MustBegin()
	inserted := make(chan error, 1)
	go func() { inserted <- tbl.Insert(w, key, []byte("mine")) }()
	for deadline := time.Now().Add(5 * time.Second); d.Stats().LockWaits.Load() == waits; {
		if time.Now().After(deadline) {
			t.Fatal("the inserter never waited for the holder of its key's row")
		}
		runtime.Gosched()
	}
	if err := loser.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	// The inserter is still in flight: to a snapshot the key does not exist.
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if v, err := tbl.Get(tx, key); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("snapshot beside the uncommitted insert reads %q, %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if v, err := tbl.Get(tx, key); err != nil || string(v) != "mine" {
			return fmt.Errorf("snapshot after the commit reads %q, %v", v, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// loadRows inserts keys key8(0..n-1) in transactions of 500 rows.
func loadRows(t testing.TB, d *DB, tbl *Table, n int) {
	t.Helper()
	for lo := 0; lo < n; lo += 500 {
		if err := d.RunTxn(func(tx *txn.Tx) error {
			for i := lo; i < lo+500 && i < n; i++ {
				if err := tbl.Insert(tx, key8(i), []byte("v0")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func liveChains(d *DB) int {
	return int(d.Stats().ChainsCreated.Load()) - int(d.Stats().ChainsRemoved.Load())
}

// TestVersionStoreFootprintBounded: a chain pinned by a reader at the
// moment its writer commits is retired when that reader ends, not when
// (if ever) the key is next written. One goroutine, so no commit is in
// flight at the end and the store must be empty; uniform updates over
// 10,000 keys almost never revisit one.
func TestVersionStoreFootprintBounded(t *testing.T) {
	const rows, rounds, perRound = 10000, 300, 4
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, tbl, rows)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		rtx, err := d.BeginReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRound; i++ {
			k, v := key8(rng.Intn(rows)), []byte(fmt.Sprintf("r%d", round))
			if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Update(tx, k, v) }); err != nil {
				t.Fatal(err)
			}
		}
		if got := liveChains(d); got == 0 {
			t.Fatalf("round %d: a registered snapshot pinned no chain", round)
		}
		if err := d.EndReadOnly(rtx); err != nil {
			t.Fatal(err)
		}
	}
	if got := liveChains(d); got != 0 {
		t.Fatalf("%d chains live with no reader and no commit in flight (%d created)", got, d.Stats().ChainsCreated.Load())
	}
}

// TestChainListSurvivesSavepointRollback: a writer's chain list loses the
// chain a savepoint rollback empties of its versions and takes the same
// chain back when the writer writes its key again. A reader pins b's chain
// through the rollback with another writer's commit, so the chain that
// leaves the list is the one that rejoins it; each chain is on the list
// once at commit, so each is stamped once.
func TestChainListSurvivesSavepointRollback(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, tbl, 2)
	a, b := key8(0), key8(1)
	pin, err := d.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Update(tx, b, []byte("t0")) }); err != nil {
		t.Fatal(err)
	}
	w, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	listed := func(step string, want int) {
		t.Helper()
		if got := len(*w.Versions()); got != want {
			t.Fatalf("%s: %d chains on the writer's list, want %d", step, got, want)
		}
	}
	if err := tbl.Update(w, a, []byte("a1")); err != nil {
		t.Fatal(err)
	}
	save := w.Savepoint()
	if err := tbl.Update(w, b, []byte("b1")); err != nil {
		t.Fatal(err)
	}
	listed("after a and b", 2)
	if err := w.RollbackTo(save); err != nil {
		t.Fatal(err)
	}
	listed("after the rollback", 1)
	if got := liveChains(d); got != 2 {
		t.Fatalf("%d chains live after the rollback, want a's and the pinned b's", got)
	}
	for _, u := range []struct{ k, v []byte }{{b, []byte("b2")}, {a, []byte("a2")}} {
		if err := tbl.Update(w, u.k, u.v); err != nil {
			t.Fatal(err)
		}
	}
	listed("after b and a again", 2)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	listed("after the commit", 0)
	for _, want := range []struct{ k, v string }{{string(a), "v0"}, {string(b), "v0"}} {
		if v, err := tbl.Get(pin, []byte(want.k)); err != nil || string(v) != want.v {
			t.Fatalf("pinned snapshot: Get(%s) = %q, %v, want %q", want.k, v, err, want.v)
		}
	}
	if err := d.EndReadOnly(pin); err != nil {
		t.Fatal(err)
	}
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		for _, want := range []struct{ k, v string }{{string(a), "a2"}, {string(b), "b2"}} {
			if v, err := tbl.Get(tx, []byte(want.k)); err != nil || string(v) != want.v {
				return fmt.Errorf("later snapshot: Get(%s) = %q, %v, want %q", want.k, v, err, want.v)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := liveChains(d); got != 0 {
		t.Fatalf("%d chains live with no reader and no commit in flight", got)
	}
}

// TestSnapshotScanCostTracksWindow: with one snapshot pinning a chain on
// every one of N rows, a 16-row snapshot scan looks at the chains in its
// 17 windows plus a seek per window, not at all N per window.
func TestSnapshotScanCostTracksWindow(t *testing.T) {
	const rows = 20000
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, tbl, rows)
	pin, err := d.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer d.EndReadOnly(pin)
	for lo := 0; lo < rows; lo += 500 {
		if err := d.RunTxn(func(tx *txn.Tx) error {
			for i := lo; i < lo+500; i++ {
				if err := tbl.Update(tx, key8(i), []byte("v1")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := liveChains(d); got != rows {
		t.Fatalf("%d chains live under the pinned snapshot, want %d", got, rows)
	}
	for _, c := range []struct {
		name string
		tx   *txn.Tx // nil: a fresh snapshot
		want string
	}{{"pinned", pin, "v0"}, {"fresh", nil, "v1"}} {
		tx := c.tx
		if tx == nil {
			if tx, err = d.BeginReadOnly(); err != nil {
				t.Fatal(err)
			}
			defer d.EndReadOnly(tx)
		}
		before := d.Stats().Snap()
		n := 0
		if err := tbl.Scan(tx, key8(rows/2), key8(rows/2+15), func(r Row) (bool, error) {
			if string(r.Value) != c.want {
				return false, fmt.Errorf("%s = %q, want %q", r.Key, r.Value, c.want)
			}
			n++
			return true, nil
		}); err != nil || n != 16 {
			t.Fatalf("%s snapshot: scan of 16 saw %d rows: %v", c.name, n, err)
		}
		// c·(16 + log2 N) with c = 32: each of the 17 windows seeks on its
		// own, an expected 2·log2 N chains of a one-in-four skip list.
		limit := uint64(32 * (16 + math.Log2(rows)))
		if got := trace.Diff(before, d.Stats().Snap()).ChainsScanned; got == 0 || got > limit {
			t.Fatalf("%s snapshot: a 16-row scan examined %d chains among %d, limit %d", c.name, got, rows, limit)
		}
	}
}

// TestSnapshotReadPastStaleSMBit: a stale SM_Bit on the primary's root (a
// crash leftover; no SMO holds the tree latch) sits on the way to every key
// past the root's last high key. A snapshot Get and Scan there step over it
// like any traverser: they return the right rows with no ambiguity restart,
// no lock call and no log record, since a reader has nothing to log.
func TestSnapshotReadPastStaleSMBit(t *testing.T) {
	const rows = 400
	d := Open(Options{PageSize: 512, PoolSize: 1024})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	loadRows(t, d, tbl, rows)
	if h, _ := tbl.primary.Height(); h < 2 {
		t.Fatal("tree too short for the scenario")
	}
	f, err := d.pool.Fix(tbl.primary.Root())
	if err != nil {
		t.Fatal(err)
	}
	f.Latch.Acquire(latch.X)
	f.Page.SetSMBit(true)
	f.Latch.Release(latch.X)
	d.pool.Unfix(f)

	before := d.Stats().Snap()
	var got []string
	if err := d.RunReadOnly(func(tx *txn.Tx) error {
		if tx.Snapshot() == nil {
			return fmt.Errorf("expected a snapshot transaction")
		}
		got = got[:0]
		v, err := tbl.Get(tx, key8(rows-1))
		if err != nil || string(v) != "v0" {
			return fmt.Errorf("get of the last row = %q, %v", v, err)
		}
		return tbl.Scan(tx, key8(rows-10), nil, func(r Row) (bool, error) {
			got = append(got, string(r.Key))
			return true, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	diff := trace.Diff(before, d.Stats().Snap())
	if len(got) != 10 || got[0] != string(key8(rows-10)) || got[9] != string(key8(rows-1)) {
		t.Fatalf("scan from row %d returned %q", rows-10, got)
	}
	if diff.LogRecords != 0 || diff.AmbiguityRestarts != 0 || diff.ReadOnlyLockCalls != 0 {
		t.Fatalf("snapshot reads past a stale SM_Bit cost %d log records, %d ambiguity restarts, %d lock calls; want 0",
			diff.LogRecords, diff.AmbiguityRestarts, diff.ReadOnlyLockCalls)
	}
}

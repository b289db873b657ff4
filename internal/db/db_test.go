package db

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ariesim/internal/core"
	"ariesim/internal/lock"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
)

func openSmall(t *testing.T) *DB {
	t.Helper()
	return Open(Options{PageSize: 512, PoolSize: 128})
}

func k(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestInsertGetRoundTrip(t *testing.T) {
	d := openSmall(t)
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	if err := tbl.Insert(tx, k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Get(tx, k(1))
	if err != nil || string(got) != string(v(1)) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(d.MustBegin(), k(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	if err := tbl.Insert(tx, k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	err := tbl.Insert(tx, k(1), v(2))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	// The failed insert's partial work (data record) was rolled back.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	rtx := d.MustBegin()
	got, err := tbl.Get(rtx, k(1))
	if err != nil || string(got) != string(v(1)) {
		t.Fatalf("row after duplicate attempt: %q, %v", got, err)
	}
	_ = rtx.Commit()
}

func TestDeleteAndUpdate(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(tx, k(5)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(tx, k(6), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	rtx := d.MustBegin()
	if _, err := tbl.Get(rtx, k(5)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted row: %v", err)
	}
	if got, _ := tbl.Get(rtx, k(6)); string(got) != "updated" {
		t.Fatalf("updated row = %q", got)
	}
	_ = rtx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	rtx := d.MustBegin()
	var got []string
	err := tbl.Scan(rtx, k(10), k(19), func(r Row) (bool, error) {
		got = append(got, string(r.Key))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != string(k(10)) || got[9] != string(k(19)) {
		t.Fatalf("scan = %v", got)
	}
	// Early termination.
	n := 0
	_ = tbl.Scan(rtx, k(0), nil, func(r Row) (bool, error) { n++; return n < 3, nil })
	if n != 3 {
		t.Fatalf("early stop at %d", n)
	}
	_ = rtx.Commit()
}

func TestSecondaryIndex(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("orders")
	// Secondary on the first 4 bytes of the value ("customer id").
	if err := tbl.CreateIndex("by_customer", KeySpec{Prefix: 4}); err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 30; i++ {
		val := []byte(fmt.Sprintf("c%03d|order-%d", i%3, i))
		if err := tbl.Insert(tx, k(i), val); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	rtx := d.MustBegin()
	n := 0
	err := tbl.ScanIndexRange(rtx, "by_customer", []byte("c001"), []byte("c001"), func(sk []byte, r Row) (bool, error) {
		if string(sk) != "c001" {
			t.Fatalf("wrong secondary key %q", sk)
		}
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("secondary scan found %d rows, want 10", n)
	}
	_ = rtx.Commit()
	// Delete maintains the secondary.
	dtx := d.MustBegin()
	if err := tbl.Delete(dtx, k(1)); err != nil {
		t.Fatal(err)
	}
	_ = dtx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	setup := d.MustBegin()
	for i := 0; i < 30; i++ {
		_ = tbl.Insert(setup, k(i), v(i))
	}
	_ = setup.Commit()

	tx := d.MustBegin()
	for i := 30; i < 50; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Delete(tx, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	rtx := d.MustBegin()
	for i := 0; i < 30; i++ {
		if _, err := tbl.Get(rtx, k(i)); err != nil {
			t.Fatalf("row %d lost by rollback: %v", i, err)
		}
	}
	for i := 30; i < 50; i++ {
		if _, err := tbl.Get(rtx, k(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("row %d survived rollback", i)
		}
	}
	_ = rtx.Commit()
}

func TestCrashRestartCycle(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	committed := d.MustBegin()
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(committed, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := committed.Commit(); err != nil {
		t.Fatal(err)
	}
	inflight := d.MustBegin()
	for i := 100; i < 130; i++ {
		if err := tbl.Insert(inflight, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := tbl.Delete(inflight, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Log().ForceAll() // stable but uncommitted

	d.Crash()
	rep, err := d.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LosersUndone != 1 {
		t.Fatalf("losers = %d", rep.LosersUndone)
	}
	tbl, err = d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	rtx := d.MustBegin()
	for i := 0; i < 100; i++ {
		if _, err := tbl.Get(rtx, k(i)); err != nil {
			t.Fatalf("committed row %d lost: %v", i, err)
		}
	}
	for i := 100; i < 130; i++ {
		if _, err := tbl.Get(rtx, k(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("in-flight row %d survived crash", i)
		}
	}
	_ = rtx.Commit()
}

func TestRestartReopensSecondary(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	_ = tbl.CreateIndex("s", KeySpec{Prefix: 2})
	tx := d.MustBegin()
	for i := 0; i < 20; i++ {
		_ = tbl.Insert(tx, k(i), []byte(fmt.Sprintf("%02d-rest", i%4)))
	}
	_ = tx.Commit()
	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	tbl, _ = d.Table("t")
	rtx := d.MustBegin()
	n := 0
	if err := tbl.ScanIndexRange(rtx, "s", []byte("01"), []byte("01"), func([]byte, Row) (bool, error) {
		n++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("secondary after restart: %d rows, want 5", n)
	}
	_ = rtx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPhantomProtectionAcrossTables(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	setup := d.MustBegin()
	_ = tbl.Insert(setup, k(10), v(10))
	_ = tbl.Insert(setup, k(20), v(20))
	_ = setup.Commit()

	// T1 scans [10,20]; T2 inserting 15 must block until T1 ends.
	t1 := d.MustBegin()
	count := 0
	_ = tbl.Scan(t1, k(10), k(20), func(Row) (bool, error) { count++; return true, nil })
	if count != 2 {
		t.Fatalf("scan saw %d", count)
	}
	t2 := d.MustBegin()
	done := make(chan error, 1)
	go func() { done <- tbl.Insert(t2, k(15), v(15)) }()
	select {
	case err := <-done:
		t.Fatalf("phantom slipped into scanned range: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// T1 re-scans: repeatable read.
	count2 := 0
	_ = tbl.Scan(t1, k(10), k(20), func(Row) (bool, error) { count2++; return true, nil })
	if count2 != count {
		t.Fatalf("second scan saw %d, first saw %d", count2, count)
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
}

func TestConcurrentBankTransfers(t *testing.T) {
	// The classic invariant workload: total balance conserved under
	// concurrent transfers with deadlock-victim retries.
	d := Open(Options{PageSize: 1024, PoolSize: 256})
	tbl, _ := d.CreateTable("accounts")
	const accounts = 20
	const initial = 1000
	setup := d.MustBegin()
	for i := 0; i < accounts; i++ {
		if err := tbl.Insert(setup, k(i), []byte(fmt.Sprintf("%06d", initial))); err != nil {
			t.Fatal(err)
		}
	}
	_ = setup.Commit()

	parse := func(b []byte) int {
		n := 0
		for _, c := range b {
			n = n*10 + int(c-'0')
		}
		return n
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 40; round++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amt := rng.Intn(50)
				tx := d.MustBegin()
				ok := func() bool {
					fb, err := tbl.Get(tx, k(from))
					if err != nil {
						return false
					}
					tb, err := tbl.Get(tx, k(to))
					if err != nil {
						return false
					}
					if parse(fb) < amt {
						return false
					}
					if err := tbl.Update(tx, k(from), []byte(fmt.Sprintf("%06d", parse(fb)-amt))); err != nil {
						return false
					}
					if err := tbl.Update(tx, k(to), []byte(fmt.Sprintf("%06d", parse(tb)+amt))); err != nil {
						return false
					}
					return true
				}()
				if ok {
					if err := tx.Commit(); err != nil {
						t.Errorf("commit: %v", err)
						return
					}
				} else {
					_ = tx.Rollback()
				}
			}
		}(w)
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(120 * time.Second):
		t.Fatal("transfers hung")
	}
	if t.Failed() {
		return
	}
	// Invariant: total conserved.
	total := 0
	rtx := d.MustBegin()
	_ = tbl.Scan(rtx, k(0), nil, func(r Row) (bool, error) {
		total += parse(r.Value)
		return true, nil
	})
	_ = rtx.Commit()
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d", total, accounts*initial)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineWithBaselineProtocols(t *testing.T) {
	for _, proto := range []core.Protocol{core.IndexSpecific, core.KVL, core.SystemR} {
		t.Run(proto.String(), func(t *testing.T) {
			d := Open(Options{PageSize: 512, PoolSize: 128, Protocol: proto})
			tbl, err := d.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx := d.MustBegin()
			for i := 0; i < 60; i++ {
				if err := tbl.Insert(tx, k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				if err := tbl.Delete(tx, k(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := d.VerifyConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPageGranularityEngine(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128, Granularity: lock.GranPage})
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	// Page locks recorded in the page space.
	if d.Stats().Snap().LockCalls[lock.SpacePage][lock.X][lock.Commit] == 0 {
		t.Fatal("no page-granularity locks recorded")
	}
}

// TestLockTotalsPerProtocol pins the engine-level lock calls — the record
// manager's and the index manager's together, Begin to Commit — of one Get,
// one Insert that splits nothing and one Delete, on a table of 5,000 rows,
// under ARIES/IM and both baselines. Under data-only locking the index
// fetch's key lock is the record lock, so the record manager takes none of
// its own (§2.1); KVL adds value locks and System R page locks on top.
func TestLockTotalsPerProtocol(t *testing.T) {
	want := []struct {
		proto            core.Protocol
		get, ins, delete uint64
	}{
		{core.DataOnly, 1, 2, 2},
		{core.KVL, 2, 3, 5},
		{core.SystemR, 3, 4, 7},
	}
	for _, w := range want {
		d := Open(Options{Protocol: w.proto})
		tbl, err := d.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		setup := d.MustBegin()
		for i := 0; i < 5000; i++ {
			if err := tbl.Insert(setup, k(i*2), v(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		count := func(op func(tx *txn.Tx) error) uint64 {
			t.Helper()
			before := d.Stats().Snap()
			tx := d.MustBegin()
			if err := op(tx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			diff := trace.Diff(before, d.Stats().Snap())
			if diff.PageSplits != 0 {
				t.Fatalf("%s: the measured operation split a page", w.proto)
			}
			return diff.TotalLocks()
		}
		get := count(func(tx *txn.Tx) error { _, err := tbl.Get(tx, k(5000)); return err })
		ins := count(func(tx *txn.Tx) error { return tbl.Insert(tx, k(5001), v(0)) })
		del := count(func(tx *txn.Tx) error { return tbl.Delete(tx, k(3000)) })
		if get != w.get || ins != w.ins || del != w.delete {
			t.Errorf("%s: lock calls per get / insert / delete = %d / %d / %d, want %d / %d / %d",
				w.proto, get, ins, del, w.get, w.ins, w.delete)
		}
	}
}

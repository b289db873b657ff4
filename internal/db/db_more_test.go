package db

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ariesim/internal/core"
	"ariesim/internal/lock"
	"ariesim/internal/trace"
)

// TestScanPrefix pins ScanPrefix's rows and its lock calls under every
// protocol and both granularities: a prefix holding rows locks each of them
// and the first key past it (§1.1's partial-key starting condition, §2.3's
// stopping condition), and an empty prefix locks only the key that proves
// the absence. The stopping key's record is never read: it costs a key lock
// and no record lock.
func TestScanPrefix(t *testing.T) {
	scans := []struct {
		prefix string
		rows   []string
	}{
		{"b/", []string{"b/1", "b/2", "b/3"}},
		{"a/", []string{"a/1", "a/2"}},
		{"c/", []string{"c/1"}},
		{"bb", nil},
		{"zz", nil},
	}
	for _, p := range []struct {
		proto core.Protocol
		locks [5]uint64 // per scan above
	}{
		{core.DataOnly, [5]uint64{4, 3, 2, 1, 1}},
		{core.IndexSpecific, [5]uint64{7, 5, 3, 1, 1}},
		{core.KVL, [5]uint64{7, 5, 3, 1, 1}},
		{core.SystemR, [5]uint64{11, 8, 4, 2, 1}},
	} {
		for _, gran := range []lock.Granularity{lock.GranRecord, lock.GranPage} {
			t.Run(fmt.Sprintf("%s/%s", p.proto, gran), func(t *testing.T) {
				d := Open(Options{Protocol: p.proto, Granularity: gran})
				tbl, err := d.CreateTable("t")
				if err != nil {
					t.Fatal(err)
				}
				tx := d.MustBegin()
				for _, key := range []string{"a/1", "a/2", "b/1", "b/2", "b/3", "c/1"} {
					if err := tbl.Insert(tx, []byte(key), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for i, sc := range scans {
					r := d.MustBegin()
					before := d.Stats().Snap()
					var got []string
					if err := tbl.ScanPrefix(r, []byte(sc.prefix), func(row Row) (bool, error) {
						got = append(got, string(row.Key))
						return true, nil
					}); err != nil {
						t.Fatal(err)
					}
					locks := trace.Diff(before, d.Stats().Snap()).TotalLocks()
					if fmt.Sprint(got) != fmt.Sprint(sc.rows) {
						t.Errorf("ScanPrefix(%q) = %v, want %v", sc.prefix, got, sc.rows)
					}
					if locks != p.locks[i] {
						t.Errorf("ScanPrefix(%q) made %d lock calls, want %d", sc.prefix, locks, p.locks[i])
					}
					if err := r.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGetCSDoesNotBlockWriters: a cursor-stability read leaves no lock
// behind under any protocol, the key lock or, where it is a separate lock,
// the record lock.
func TestGetCSDoesNotBlockWriters(t *testing.T) {
	for _, proto := range []core.Protocol{core.DataOnly, core.IndexSpecific, core.KVL, core.SystemR} {
		t.Run(proto.String(), func(t *testing.T) {
			d := Open(Options{PageSize: 512, PoolSize: 128, Protocol: proto})
			tbl, _ := d.CreateTable("t")
			tx := d.MustBegin()
			_ = tbl.Insert(tx, k(1), v(1))
			_ = tx.Commit()

			reader := d.MustBegin()
			if got, err := tbl.GetCS(reader, k(1)); err != nil || string(got) != string(v(1)) {
				t.Fatalf("GetCS = %q, %v", got, err)
			}
			// Reader still open, but a writer can delete the row immediately.
			writer := d.MustBegin()
			done := make(chan error, 1)
			go func() { done <- tbl.Delete(writer, k(1)) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("writer blocked by a cursor-stability reader")
			}
			_ = writer.Commit()
			_ = reader.Commit()
		})
	}
}

func TestGetCSStillSeesOnlyCommitted(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	w := d.MustBegin()
	_ = tbl.Insert(w, k(9), v(9))
	// w uncommitted: a CS reader must wait, then see it after commit.
	r := d.MustBegin()
	done := make(chan error, 1)
	go func() {
		_, err := tbl.GetCS(r, k(9))
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("CS read returned before the writer committed")
	case <-time.After(50 * time.Millisecond):
	}
	_ = w.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = r.Commit()
}

func TestMultiTableCrashRestart(t *testing.T) {
	d := openSmall(t)
	a, _ := d.CreateTable("alpha")
	bt, _ := d.CreateTable("beta")
	_ = bt
	tx := d.MustBegin()
	for i := 0; i < 30; i++ {
		if err := a.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	b2, _ := d.Table("beta")
	for i := 0; i < 30; i++ {
		if err := b2.Insert(tx, k(i+100), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit()
	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		tbl, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		r := d.MustBegin()
		_ = tbl.Scan(r, []byte(""), nil, func(Row) (bool, error) { rows++; return true, nil })
		_ = r.Commit()
		if rows != 30 {
			t.Fatalf("table %s holds %d rows after restart", name, rows)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestScanUnderConcurrentSplits(t *testing.T) {
	// A long-running scan stays correct (sees every committed pre-scan row
	// exactly once, in order) while writers split the scanned leaves.
	d := Open(Options{PageSize: 512, PoolSize: 1024})
	tbl, _ := d.CreateTable("t")
	setup := d.MustBegin()
	const rows = 400
	for i := 0; i < rows; i++ {
		if err := tbl.Insert(setup, k(i*10), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = setup.Commit()

	// Each scan step waits for one more writer commit, so splits land
	// between the scan's steps on every schedule.
	stop, committed := make(chan struct{}), make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(4))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Writers insert between scanned keys, far enough ahead of the
			// scan front that next-key locks rarely collide; collisions
			// just block briefly and retry on deadlock.
			tx := d.MustBegin()
			n := rng.Intn(rows*10) + 5_000_000
			if err := tbl.Insert(tx, k(n), []byte("concurrent")); err != nil {
				_ = tx.Rollback()
				continue
			}
			if tx.Commit() != nil {
				continue
			}
			select {
			case committed <- struct{}{}:
			case <-stop:
				return
			}
		}
	}()

	scan := d.MustBegin()
	var seen []string
	err := tbl.Scan(scan, k(0), k(rows*10-1), func(r Row) (bool, error) {
		seen = append(seen, string(r.Key))
		<-committed
		return true, nil
	})
	close(stop)
	<-writerDone
	if err != nil {
		t.Fatal(err)
	}
	_ = scan.Commit()
	if len(seen) != rows {
		t.Fatalf("scan saw %d pre-existing rows, want %d", len(seen), rows)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("scan out of order at %d: %s >= %s", i, seen[i-1], seen[i])
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCrashTortureSmallPool(t *testing.T) {
	// A tiny buffer pool forces steals (WAL-protected dirty-page writes),
	// exercising the redo-skip path at every restart.
	d := Open(Options{PageSize: 512, PoolSize: 8})
	tbl, _ := d.CreateTable("t")
	live := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		for batch := 0; batch < 10; batch++ {
			tx := d.MustBegin()
			staged := map[string]*string{}
			for op := 0; op < 5; op++ {
				n := rng.Intn(150)
				if _, ok := live[string(k(n))]; ok && rng.Intn(2) == 0 {
					if err := tbl.Delete(tx, k(n)); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatal(err)
					}
					staged[string(k(n))] = nil
				} else {
					val := fmt.Sprintf("r%d-%d", round, op)
					err := tbl.Insert(tx, k(n), []byte(val))
					if err == nil {
						vv := val
						staged[string(k(n))] = &vv
					} else if !errors.Is(err, ErrDuplicate) {
						t.Fatal(err)
					}
				}
			}
			if rng.Intn(4) == 0 {
				_ = tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for key, val := range staged {
				if val == nil {
					delete(live, key)
				} else {
					live[key] = *val
				}
			}
		}
		d.Crash()
		if _, err := d.Restart(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		tbl, _ = d.Table("t")
		if err := d.VerifyConsistency(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := map[string]string{}
		r := d.MustBegin()
		_ = tbl.Scan(r, []byte(""), nil, func(row Row) (bool, error) {
			got[string(row.Key)] = string(row.Value)
			return true, nil
		})
		_ = r.Commit()
		if len(got) != len(live) {
			t.Fatalf("round %d: %d rows vs %d expected", round, len(got), len(live))
		}
		for key, val := range live {
			if got[key] != val {
				t.Fatalf("round %d: %q = %q, want %q", round, key, got[key], val)
			}
		}
	}
	// Steals must actually have happened for this test to mean anything.
	if d.Stats().PageWrites.Load() == 0 {
		t.Fatal("no page steals with an 8-frame pool")
	}
}

func TestDeadlockSurfacesToCaller(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	_ = tbl.Insert(tx, k(1), v(1))
	_ = tbl.Insert(tx, k(2), v(2))
	_ = tx.Commit()

	t1 := d.MustBegin()
	t2 := d.MustBegin()
	if _, err := tbl.Get(t1, k(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(t2, k(2)); err != nil {
		t.Fatal(err)
	}
	// t1 wants k2 X (delete), t2 wants k1 X. t1 queues first, so the
	// detector makes t2 — the requester that closes the cycle — the
	// victim; its rollback releases the S lock t1's upgrade waits on.
	// LockWaits moves only once t1's request is queued.
	waits := d.Stats().LockWaits.Load()
	errCh := make(chan error, 1)
	go func() { errCh <- tbl.Delete(t1, k(2)) }()
	for deadline := time.Now().Add(5 * time.Second); d.Stats().LockWaits.Load() == waits; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("t1 never queued for k2")
		}
	}
	err2 := tbl.Delete(t2, k(1))
	if !errors.Is(err2, lock.ErrDeadlock) {
		t.Fatalf("victim did not get ErrDeadlock: %v", err2)
	}
	_ = t2.Rollback()
	select {
	case err1 := <-errCh:
		if err1 != nil {
			t.Fatalf("survivor's delete failed: %v", err1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never unblocked after victim rollback")
	}
	_ = t1.Rollback()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

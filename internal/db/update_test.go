package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ariesim/internal/core"
	"ariesim/internal/latch"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// tailVal is a value of size bytes that says which row it belongs to and ends
// in a four-digit tag, the bytes tailKey keys a secondary index on.
func tailVal(key []byte, gen, size, tag int) []byte {
	b := bytes.Repeat([]byte{'.'}, size)
	copy(b, fmt.Sprintf("%s#%d", key, gen))
	copy(b[size-4:], fmt.Sprintf("%04d", tag))
	return b
}

var tailKey = KeySpec{Suffix: 4}

func ridOf(t *testing.T, d *DB, tbl *Table, key []byte) storage.RID {
	t.Helper()
	tx := d.MustBegin()
	defer tx.Rollback()
	res, _, err := tbl.primary.Fetch(tx, key, core.EQ)
	if err != nil || !res.Found {
		t.Fatalf("rid of %q: found %v, %v", key, res.Found, err)
	}
	return res.Key.RID
}

// opsSince lists what was logged after LSN from: the op's name for an update
// or a CLR, the record type's for the rest.
func opsSince(d *DB, from wal.LSN) (ops []string, recs []*wal.Record) {
	for _, r := range d.Log().SnapshotFrom(from + 1) {
		if r.Type == wal.RecUpdate || r.Type == wal.RecCLR {
			ops = append(ops, r.Op.String())
		} else {
			ops = append(ops, r.Type.String())
		}
		recs = append(recs, r)
	}
	return ops, recs
}

// The count gate of the update path: one client, exact counts from
// trace.Stats deltas and the log, no timing. A same-length update that leaves
// the key alone is three log records — the data page's, commit, end — one
// traversal, no tree latch, no SM_Bit wait, one version, the RID it had; a
// secondary index whose extracted key is unchanged is not touched, and one
// whose key moves gets one delete and one insert at that same RID.
func TestUpdateInPlaceCounts(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_tail", tailKey); err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < 50; i++ {
			if err := tbl.Insert(tx, k(i), tailVal(k(i), 0, 100, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	key := k(17)
	rid := ridOf(t, d, tbl, key)

	update := func(value []byte) (trace.Snapshot, []string, []*wal.Record) {
		t.Helper()
		before, from := d.Stats().Snap(), d.Log().MaxLSN()
		tx := d.MustBegin()
		if err := tbl.Update(tx, key, value); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ops, recs := opsSince(d, from)
		return trace.Diff(before, d.Stats().Snap()), ops, recs
	}

	// The secondary key (tag 17) stays.
	diff, ops, recs := update(tailVal(key, 1, 100, 17))
	if got := fmt.Sprint(ops); got != "[data-update commit]" {
		t.Fatalf("a non-key update logged %s", got)
	}
	if recs[0].Page != rid.Page || len(recs[0].Payload) > 8+2*4 {
		t.Fatalf("update record on page %d with a %d-byte payload; the row is on page %d and one digit changed",
			recs[0].Page, len(recs[0].Payload), rid.Page)
	}
	if diff.LogRecords != 2 || diff.Traversals != 1 || diff.TreeLatchAcquires != 0 || diff.SMBitWaits != 0 ||
		diff.VersionsPushed != 1 || diff.DeleteBitPOSCs != 0 {
		t.Fatalf("a non-key update cost %d log records, %d traversals, %d tree-latch acquisitions, %d SM_Bit waits, %d POSCs, %d versions",
			diff.LogRecords, diff.Traversals, diff.TreeLatchAcquires, diff.SMBitWaits, diff.DeleteBitPOSCs, diff.VersionsPushed)
	}
	if n := diff.TotalLocks(); n != 1 {
		t.Fatalf("a non-key update made %d lock calls, want 1 (FetchForUpdate's key X)", n)
	}
	if got := ridOf(t, d, tbl, key); got != rid {
		t.Fatalf("row moved from %s to %s", rid, got)
	}

	// The secondary key moves, 17 -> 9017; the primary still is not touched.
	diff, ops, recs = update(tailVal(key, 2, 100, 9017))
	// (The secondary leaf's Delete_Bit reset may ride along, redo-only.)
	var keyOps []*wal.Record
	for i, r := range recs {
		switch r.Op {
		case wal.OpIdxDeleteKey, wal.OpIdxInsertKey:
			keyOps = append(keyOps, r)
		case wal.OpDataUpdate, wal.OpIdxSetBits, wal.OpNone:
		default:
			t.Fatalf("an update moving one secondary key logged %v (record %d)", ops, i)
		}
	}
	if ops[0] != "data-update" || len(keyOps) != 2 || keyOps[0].Op != wal.OpIdxDeleteKey || keyOps[1].Op != wal.OpIdxInsertKey {
		t.Fatalf("an update moving one secondary key logged %v", ops)
	}
	for i, want := range []string{"0017", "9017"} {
		info, err := core.DecodeKeyOpPayload(keyOps[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if string(info.Key.Val) != want || info.Key.RID != rid {
			t.Fatalf("secondary %s of %q at %s, want %q at %s", keyOps[i].Op, info.Key.Val, info.Key.RID, want, rid)
		}
	}
	if diff.VersionsPushed != 1 {
		t.Fatalf("%d versions pushed", diff.VersionsPushed)
	}
	if got := ridOf(t, d, tbl, key); got != rid {
		t.Fatalf("row moved from %s to %s", rid, got)
	}

	tx := d.MustBegin()
	if got, err := tbl.Get(tx, key); err != nil || !bytes.Equal(got, tailVal(key, 2, 100, 9017)) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	n := 0
	if err := tbl.ScanIndexRange(tx, "by_tail", []byte("9017"), []byte("9017"), func(sk []byte, r Row) (bool, error) {
		if n++; !bytes.Equal(r.Key, key) {
			return false, fmt.Errorf("row %q under the moved key", r.Key)
		}
		return true, nil
	}); err != nil || n != 1 {
		t.Fatalf("index scan of the new secondary key found %d rows, %v", n, err)
	}
	_ = tx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// freeOn reports the free bytes of a data page.
func freeOn(t *testing.T, d *DB, pid storage.PageID) int {
	t.Helper()
	f, err := d.Pool().Fix(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Pool().Unfix(f)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	if err := f.Page.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f.Page.FreeSpace()
}

// The fallback: a shrinking update, and a grow on a page with no room for it,
// still succeed — as the delete + insert every update used to be.
func TestUpdateFallbackMovesTheRow(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	if err := tbl.CreateIndex("by_tail", tailKey); err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < 40; i++ { // three 100-byte rows fill a 512-byte page
			if err := tbl.Insert(tx, k(i), tailVal(k(i), 0, 100, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		key  []byte
		size int
	}{{"shrink", k(4), 60}, {"grow on a full page", k(8), 180}} {
		rid := ridOf(t, d, tbl, c.key)
		if c.size > 100 && freeOn(t, d, rid.Page) >= c.size-100 {
			t.Fatalf("setup: page %d has room for the grow", rid.Page)
		}
		from := d.Log().MaxLSN()
		want := tailVal(c.key, 1, c.size, 7000)
		if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Update(tx, c.key, want) }); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ops, _ := opsSince(d, from)
		var del, ins, upd int
		for _, op := range ops {
			switch op {
			case "data-delete":
				del++
			case "data-insert":
				ins++
			case "data-update":
				upd++
			}
		}
		if del != 1 || ins != 1 || upd != 0 {
			t.Fatalf("%s logged %v", c.name, ops)
		}
		tx := d.MustBegin()
		if got, err := tbl.Get(tx, c.key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: Get = %q, %v", c.name, got, err)
		}
		_ = tx.Commit()
		if err := d.VerifyConsistency(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// The two rollbacks behind the grow-only rule. T1 changes a row's length, T2
// then takes every byte its page has left and commits, T1 rolls back. A grow
// was done in place and its undo is a shrink, which needs no room. A shrink
// in place would need the bytes T2 now owns to grow back, which is why it is
// a delete + insert instead: the ghost keeps the row's bytes until T1 ends.
func TestUpdateRollbackAfterPageFilled(t *testing.T) {
	for _, c := range []struct {
		name    string
		size    int
		inPlace bool
	}{{"grow", 90, true}, {"shrink", 30, false}} {
		t.Run(c.name, func(t *testing.T) {
			d := openSmall(t)
			tbl, _ := d.CreateTable("t")
			if err := tbl.CreateIndex("by_tail", tailKey); err != nil {
				t.Fatal(err)
			}
			if err := d.RunTxn(func(tx *txn.Tx) error {
				for i := 0; i < 4; i++ { // one page, well under full
					if err := tbl.Insert(tx, k(i), tailVal(k(i), 0, 60, i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			key, before := k(1), tailVal(k(1), 0, 60, 1)
			rid := ridOf(t, d, tbl, key)

			t1 := d.MustBegin()
			if err := tbl.Update(t1, key, tailVal(key, 1, c.size, 1)); err != nil {
				t.Fatal(err)
			}
			ops, _ := opsSince(d, 0)
			if last := ops[len(ops)-1]; (last == "data-update") != c.inPlace {
				t.Fatalf("the %s ended in %s", c.name, last)
			}
			// T2's keys sort after every key T1 locked, next keys included.
			t2 := d.MustBegin()
			for i := 0; freeOn(t, d, rid.Page) > 0 && i < 64; i++ {
				fk := k(1000 + i)
				room := freeOn(t, d, rid.Page) - 2 - 1 - 2 - len(fk) - 2 // slot, flags, row header, key, cell length
				if room < 4 {
					break
				}
				if err := tbl.Insert(t2, fk, tailVal(fk, 0, room, 5000+i)); err != nil {
					t.Fatal(err)
				}
			}
			if left := freeOn(t, d, rid.Page); left >= 4+2+1+2+len(key)+2 {
				t.Fatalf("setup: page %d still has %d free bytes", rid.Page, left)
			}
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := t1.Rollback(); err != nil {
				t.Fatalf("rollback on the page T2 filled: %v", err)
			}
			tx := d.MustBegin()
			if got, err := tbl.Get(tx, key); err != nil || !bytes.Equal(got, before) {
				t.Fatalf("after the rollback %q = %q, %v", key, got, err)
			}
			_ = tx.Commit()
			if got := ridOf(t, d, tbl, key); got != rid {
				t.Fatalf("row at %s after the rollback, was at %s", got, rid)
			}
			freeOn(t, d, rid.Page) // page invariants
			if err := d.VerifyConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An online restart opens with a loser whose whole chain is updates in place
// still to undo: its lock set is the updated records' X locks, all derivable
// from the log, and readers of its rows get their before-images — after
// waiting on a reinstated lock or because the undo has landed — never what
// the loser wrote.
func TestOnlineRestartUpdateOnlyLoserOpensInBackground(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128, OnlineRestart: true})
	tbl, _ := d.CreateTable("t")
	model := map[string]string{}
	for i := 0; i < 100; i++ {
		if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Insert(tx, k(i), v(i)) }); err != nil {
			t.Fatal(err)
		}
		model[string(k(i))] = string(v(i))
	}
	d.Checkpoint()
	hit := []int{3, 40, 77}
	from := d.Log().MaxLSN()
	loser := d.MustBegin()
	for _, i := range hit {
		if err := tbl.Update(loser, k(i), bytes.ToUpper(v(i))); err != nil {
			t.Fatal(err)
		}
	}
	if ops, _ := opsSince(d, from); fmt.Sprint(ops) != "[data-update data-update data-update]" {
		t.Fatalf("setup: the loser logged %v", ops)
	}
	d.Log().ForceAll()
	d.Crash()
	d.Disk().SetIODelay(time.Millisecond) // the background undo has pages to read
	rep, err := d.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocksRestored != len(hit) || rep.LosersStabilized != 0 {
		t.Fatalf("opened with %d locks reinstated and %d losers undone before open; want %d and 0",
			rep.LocksRestored, rep.LosersStabilized, len(hit))
	}
	tbl, _ = d.Table("t")
	check := d.MustBegin()
	for _, i := range hit {
		if got, err := tbl.Get(check, k(i)); err != nil || string(got) != string(v(i)) {
			t.Fatalf("row %d after the online restart = %q, %v; want its before-image %q", i, got, err, v(i))
		}
	}
	_ = check.Commit()
	full, err := d.AwaitRecovered()
	if err != nil {
		t.Fatal(err)
	}
	if full.LosersBackground != 1 || full.LosersStabilized != 0 {
		t.Fatalf("%d losers undone in the background, %d before open; want 1 and 0", full.LosersBackground, full.LosersStabilized)
	}
	d.Disk().SetIODelay(0)
	verifyModel(t, d, model)
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

var errUpdateAbort = errors.New("updater changed its mind")

// Updaters, snapshot readers and rollbacks on one page's worth of hot rows.
// Every value is one byte repeated, and a transaction writes the same byte to
// a row and its partner, so a reader that sees a cell half-rewritten, or one
// row of a pair without the other, says so. Lengths vary: same-length and
// growing updates rewrite the cell under the page X latch while FetchNoLock
// readers hold it S; shrinking ones move the row. Run under -race (make race
// repeats it) this is the data-race oracle for the in-place path.
func TestUpdateInPlaceUnderSnapshotReaders(t *testing.T) {
	const rows, writers, readers = 16, 3, 3
	d := Open(Options{})
	tbl, _ := d.CreateTable("t")
	val := func(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(tx, key8(i), val('a', 64)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(100 * time.Millisecond)
	}
	var wg sync.WaitGroup
	var commits, aborts, reads [writers + readers]int
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for n := 0; time.Now().Before(deadline); n++ {
				i := rng.Intn(rows / 2)
				b := byte('b' + (w*7+n)%20)
				size := 48 + 8*rng.Intn(5)
				abort := rng.Intn(4) == 0
				err := d.RunTxn(func(tx *txn.Tx) error {
					// The pair in index order, so that writers queue and do
					// not deadlock.
					if err := tbl.Update(tx, key8(i), val(b, size)); err != nil {
						return err
					}
					if err := tbl.Update(tx, key8(i+rows/2), val(b, size)); err != nil {
						return err
					}
					if abort {
						return errUpdateAbort
					}
					return nil
				})
				switch {
				case err == nil:
					commits[w]++
				case errors.Is(err, errUpdateAbort):
					aborts[w]++
				default:
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				seen := map[string][]byte{}
				err := d.RunReadOnly(func(tx *txn.Tx) error {
					clear(seen)
					return tbl.Scan(tx, nil, nil, func(row Row) (bool, error) {
						seen[string(row.Key)] = row.Value
						return true, nil
					})
				})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(seen) != rows {
					t.Errorf("reader %d: a snapshot of %d rows, want %d", r, len(seen), rows)
					return
				}
				for i := 0; i < rows/2; i++ {
					a, b := seen[string(key8(i))], seen[string(key8(i+rows/2))]
					if len(a) == 0 || !bytes.Equal(a, bytes.Repeat(a[:1], len(a))) || !bytes.Equal(a, b) {
						t.Errorf("reader %d: torn pair %d: %q / %q", r, i, a, b)
						return
					}
				}
				reads[writers+r]++
			}
		}(r)
	}
	wg.Wait()
	var c, a, rd int
	for i := range commits {
		c, a, rd = c+commits[i], a+aborts[i], rd+reads[i]
	}
	t.Logf("%d commits, %d rollbacks, %d snapshots", c, a, rd)
	if c == 0 || a == 0 || rd == 0 {
		t.Fatalf("under-exercised: %d commits, %d rollbacks, %d snapshots", c, a, rd)
	}
	if ops, _ := opsSince(d, 0); !slices.Contains(ops, "data-update") {
		t.Fatal("no update was done in place")
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

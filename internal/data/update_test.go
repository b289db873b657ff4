package data

import (
	"bytes"
	"fmt"
	"testing"

	"ariesim/internal/latch"
	"ariesim/internal/lock"
	"ariesim/internal/storage"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

func TestUpdatePayloadTrimsAndRoundTrips(t *testing.T) {
	for _, c := range []struct {
		old, new      string
		before, after string
		prefix        uint16
	}{
		{"k1|stamp-0001|fill", "k1|stamp-0002|fill", "1", "2", 12},
		{"abc", "abc", "", "", 3},             // nothing differs
		{"abc", "abcdef", "", "def", 3},       // pure append
		{"aaaa", "aaaaaa", "", "aa", 4},       // suffix may not overlap the prefix
		{"xyz", "123456", "xyz", "123456", 0}, // whole value rewritten
		{"", "new", "", "new", 0},
	} {
		pl := diffUpdate(9, []byte(c.old), []byte(c.new))
		if string(pl.Before) != c.before || string(pl.After) != c.after || pl.Prefix != c.prefix {
			t.Fatalf("diff(%q, %q) = prefix %d before %q after %q", c.old, c.new, pl.Prefix, pl.Before, pl.After)
		}
		got, err := decodeUpdatePayload(pl.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Slot != 9 || got.Prefix != pl.Prefix || got.Suffix != pl.Suffix ||
			!bytes.Equal(got.Before, pl.Before) || !bytes.Equal(got.After, pl.After) {
			t.Fatalf("round trip of %+v: %+v", pl, got)
		}
		if slot, err := SlotOfPayload(pl.encode()); err != nil || slot != 9 {
			t.Fatalf("SlotOfPayload = %d, %v", slot, err)
		}
		// Forward and inverse both rebuild the other image from the one on
		// the page.
		fwd, err := got.apply(wrapRecord([]byte(c.old)))
		if err != nil || string(fwd[1:]) != c.new {
			t.Fatalf("apply(%q) = %q, %v; want %q", c.old, fwd[1:], err, c.new)
		}
		inv := updatePayload{Slot: 9, Prefix: got.Prefix, Suffix: got.Suffix, After: got.Before}
		back, err := inv.apply(fwd)
		if err != nil || string(back[1:]) != c.old {
			t.Fatalf("inverse(%q) = %q, %v; want %q", c.new, back[1:], err, c.old)
		}
	}
	for _, bad := range [][]byte{nil, make([]byte, 7), {0, 0, 0, 0, 0, 0, 9, 0}} {
		if _, err := decodeUpdatePayload(bad); err == nil {
			t.Fatalf("bad update payload %v decoded", bad)
		}
	}
	if _, err := (updatePayload{Prefix: 3, Suffix: 3}).apply(wrapRecord([]byte("short"))); err == nil {
		t.Fatal("update keeping more bytes than the record has was applied")
	}
}

// seedRows commits n rows of size bytes ("r<i>" padded with '.') and returns
// their RIDs.
func (e *env) seedRows(t *testing.T, tbl *Table, n, size int) []storage.RID {
	t.Helper()
	tx := e.mgr.Begin()
	rids := make([]storage.RID, n)
	for i := range rids {
		rid, err := tbl.Insert(tx, row(i, size))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return rids
}

func row(i, size int) []byte {
	b := bytes.Repeat([]byte{'.'}, size)
	copy(b, fmt.Sprintf("r%d", i))
	return b
}

func (e *env) mustFetch(t *testing.T, tbl *Table, rid storage.RID, want []byte) {
	t.Helper()
	tx := e.mgr.Begin()
	got, err := tbl.Fetch(tx, rid, false)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("row %s = %q, %v; want %q", rid, got, err, want)
	}
	_ = tx.Rollback()
}

func (e *env) update(t *testing.T, tbl *Table, tx *txn.Tx, rid storage.RID, rec []byte) bool {
	t.Helper()
	ok, err := tbl.Update(tx, rid, rec, false)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// pageOf returns a copy of the page rid is on.
func (e *env) pageOf(t *testing.T, rid storage.RID) *storage.Page {
	t.Helper()
	f, err := e.pool.Fix(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	defer e.pool.Unfix(f)
	f.Latch.Acquire(latch.S)
	defer f.Latch.Release(latch.S)
	if err := f.Page.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return f.Page.Clone()
}

// Same length, a grow the page has room for, a grow it has not, and a shrink:
// the first two are one log record on the row's page with the RID kept and
// the X lock taken; the last two change and log nothing.
func TestUpdateInPlaceOrRefused(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	rids := e.seedRows(t, tbl, 4, 100) // 4 x 100 of a 512-byte page: ~50 bytes left
	rid := rids[1]

	tx := e.mgr.Begin()
	logged := func() int { return len(e.log.SnapshotFrom(1)) }
	n := logged()
	same := row(1, 100)
	copy(same[40:], "CHANGED!")
	if !e.update(t, tbl, tx, rid, same) {
		t.Fatal("same-length update refused")
	}
	if !e.locks.HoldsAtLeast(lock.Owner(tx.ID), e.dm.LockName(rid), lock.X) {
		t.Fatal("updated record not X-locked")
	}
	recs := e.log.SnapshotFrom(1)
	if len(recs) != n+1 {
		t.Fatalf("same-length update logged %d records, want 1", len(recs)-n)
	}
	if r := recs[n]; r.Op != wal.OpDataUpdate || r.Page != rid.Page || r.RedoOnly || len(r.Payload) != updateHeader+2*8 {
		t.Fatalf("update record %s, payload %d bytes; want an 8-byte change trimmed to %d", r, len(r.Payload), updateHeader+16)
	}
	free := e.pageOf(t, rid).FreeSpace()

	grown := append(append([]byte(nil), same...), "+twenty more bytes!!"...)
	if n = logged(); !e.update(t, tbl, tx, rid, grown) || logged() != n+1 {
		t.Fatalf("grow with room: refused or logged %d records", logged()-n)
	}
	if got := e.pageOf(t, rid).FreeSpace(); got != free-20 {
		t.Fatalf("free space %d after a 20-byte grow from %d", got, free)
	}
	if n := tbl.inv.pages[rid.Page]; n == nil || n.free != free-20 {
		t.Fatalf("inventory lists the grown page with %+v, page has %d", n, free-20)
	}

	before := e.pageOf(t, rid)
	n = logged()
	if e.update(t, tbl, tx, rid, append(append([]byte(nil), grown...), make([]byte, 60)...)) {
		t.Fatal("grow beyond the page's room done in place")
	}
	if e.update(t, tbl, tx, rid, grown[:50]) {
		t.Fatal("shrink done in place")
	}
	if logged() != n || !bytes.Equal(e.pageOf(t, rid).Bytes(), before.Bytes()) {
		t.Fatal("a refused update logged or changed something")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.mustFetch(t, tbl, rid, grown)
	for _, other := range []int{0, 2, 3} {
		e.mustFetch(t, tbl, rids[other], row(other, 100))
	}
	sameAsLive(t, e, replayTwice(t, e, 512))
}

// A grow that only fits once the page is compacted keeps its slot, and the
// slices other cells were read through before it do not matter to it.
func TestUpdateGrowCompactsThePage(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	rids := e.seedRows(t, tbl, 4, 100)
	// Free the middle of the page: the room is garbage, not contiguous.
	tx := e.mgr.Begin()
	if err := tbl.Delete(tx, rids[1], false); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = e.mgr.Begin()
	// One byte too long for the ~50 contiguous bytes the load left, short of
	// a purge: the ghost goes, the row lands in the contiguous bytes, and
	// what the page has left is the ghost's 100-odd bytes in mid-page.
	if rid, err := tbl.Insert(tx, row(9, 48)); err != nil || rid != rids[1] {
		t.Fatalf("insert into the purged ghost's slot: %s, %v", rid, err)
	}
	big := row(2, 170)
	if !e.update(t, tbl, tx, rids[2], big) {
		t.Fatal("grow into reclaimable garbage refused")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e.mustFetch(t, tbl, rids[2], big)
	e.mustFetch(t, tbl, rids[0], row(0, 100))
	e.mustFetch(t, tbl, rids[3], row(3, 100))
	sameAsLive(t, e, replayTwice(t, e, 512))
}

// Undo writes a redo-only CLR of the same op carrying the before-image only;
// replaying forward record and CLR rebuilds the page the rollback left.
func TestUpdateUndoWritesCLRAndRedoOfCLR(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	rids := e.seedRows(t, tbl, 3, 60)
	free := e.pageOf(t, rids[0]).FreeSpace()

	tx := e.mgr.Begin()
	grown := append(row(0, 60), "-and-a-tail"...)
	e.update(t, tbl, tx, rids[0], grown)
	n := len(e.log.SnapshotFrom(1))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var clr *wal.Record
	for _, r := range e.log.SnapshotFrom(1)[n:] {
		if r.Type == wal.RecCLR {
			clr = r
		}
	}
	if clr == nil || clr.Op != wal.OpDataUpdate || clr.Page != rids[0].Page {
		t.Fatalf("rollback of an update wrote CLR %v", clr)
	}
	pl, err := decodeUpdatePayload(clr.Payload)
	if err != nil || len(pl.Before) != 0 || len(pl.After) != 0 || pl.Prefix != 60 {
		t.Fatalf("CLR payload %+v, %v: want the 60-byte prefix kept and the tail cut, no before-image", pl, err)
	}
	e.mustFetch(t, tbl, rids[0], row(0, 60))
	if got := e.pageOf(t, rids[0]).FreeSpace(); got != free {
		t.Fatalf("free space %d after the rollback of a grow, %d before it", got, free)
	}
	if n := tbl.inv.pages[rids[0].Page]; n == nil || n.free != free {
		t.Fatalf("inventory lists the page with %+v after the rollback, page has %d", n, free)
	}
	sameAsLive(t, e, replayTwice(t, e, 512))
}

// Several operations on one row in one transaction, committed and rolled
// back, and a partial rollback between two updates.
func TestUpdateChainsInOneTransaction(t *testing.T) {
	v := func(s string) []byte { return []byte("row-" + s) }
	for _, c := range []struct {
		name string
		ops  func(t *testing.T, e *env, tbl *Table, tx *txn.Tx, rid storage.RID) (storage.RID, []byte)
	}{
		{"update-update", func(t *testing.T, e *env, tbl *Table, tx *txn.Tx, rid storage.RID) (storage.RID, []byte) {
			e.update(t, tbl, tx, rid, v("first--"))
			e.update(t, tbl, tx, rid, v("second-and-longer"))
			return rid, v("second-and-longer")
		}},
		{"insert-update", func(t *testing.T, e *env, tbl *Table, tx *txn.Tx, _ storage.RID) (storage.RID, []byte) {
			rid, err := tbl.Insert(tx, v("fresh"))
			if err != nil {
				t.Fatal(err)
			}
			e.update(t, tbl, tx, rid, v("fresh, then grown"))
			return rid, v("fresh, then grown")
		}},
		{"update-delete", func(t *testing.T, e *env, tbl *Table, tx *txn.Tx, rid storage.RID) (storage.RID, []byte) {
			e.update(t, tbl, tx, rid, v("doomed all the same"))
			if err := tbl.Delete(tx, rid, true); err != nil {
				t.Fatal(err)
			}
			if ok, err := tbl.Update(tx, rid, v("doomed all the same!"), true); ok || err == nil {
				t.Fatalf("update of a deleted row: %v, %v", ok, err)
			}
			return rid, nil
		}},
	} {
		for _, commit := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/commit=%v", c.name, commit), func(t *testing.T) {
				e := newEnv(t, 512, lock.GranRecord)
				tbl := e.createTable(t)
				setup := e.mgr.Begin()
				rid, err := tbl.Insert(setup, v("initial"))
				if err != nil {
					t.Fatal(err)
				}
				_ = setup.Commit()
				tx := e.mgr.Begin()
				target, want := c.ops(t, e, tbl, tx, rid)
				if commit {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := tx.Rollback(); err != nil {
						t.Fatal(err)
					}
					target, want = rid, v("initial")
				}
				if want != nil {
					e.mustFetch(t, tbl, target, want)
				} else {
					check := e.mgr.Begin()
					if _, err := tbl.Fetch(check, target, false); err == nil {
						t.Fatal("deleted row still fetched")
					}
					_ = check.Rollback()
				}
				e.pageOf(t, rid)
				sameAsLive(t, e, replayTwice(t, e, 512))
			})
		}
	}

	t.Run("rollback-to-savepoint", func(t *testing.T) {
		e := newEnv(t, 512, lock.GranRecord)
		tbl := e.createTable(t)
		rid := e.seedRows(t, tbl, 1, 20)[0]
		tx := e.mgr.Begin()
		e.update(t, tbl, tx, rid, v("kept by the savepoint"))
		save := tx.Savepoint()
		e.update(t, tbl, tx, rid, v("kept by the savepoint? no, undone"))
		if err := tx.RollbackTo(save); err != nil {
			t.Fatal(err)
		}
		if got, err := tbl.Fetch(tx, rid, false); err != nil || !bytes.Equal(got, v("kept by the savepoint")) {
			t.Fatalf("after the partial rollback: %q, %v", got, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e.mustFetch(t, tbl, rid, v("kept by the savepoint"))
		sameAsLive(t, e, replayTwice(t, e, 512))
	})
}

// The case the grow-only rule exists for, from the side that is allowed: T1
// grows a row in place, T2 takes every byte the page has left and commits,
// T1 rolls back. The undo is a shrink, so it needs no room.
func TestUpdateGrowUndoneOnAFullPage(t *testing.T) {
	e := newEnv(t, 512, lock.GranRecord)
	tbl := e.createTable(t)
	rids := e.seedRows(t, tbl, 4, 100)
	t1 := e.mgr.Begin()
	grown := append(row(0, 100), "++++++++++++++++"...)
	if !e.update(t, tbl, t1, rids[0], grown) {
		t.Fatal("grow refused")
	}
	t2 := e.mgr.Begin()
	fill := e.pageOf(t, rids[0]).FreeSpace() - 1 - 2 // flags byte, cell length prefix
	filler, err := tbl.Insert(t2, bytes.Repeat([]byte{'f'}, fill))
	if err != nil {
		t.Fatal(err)
	}
	if filler.Page != rids[0].Page || e.pageOf(t, rids[0]).FreeSpace() != 0 {
		t.Fatalf("filler went to %s leaving %d bytes; the test needs page %d full", filler, e.pageOf(t, rids[0]).FreeSpace(), rids[0].Page)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Rollback(); err != nil {
		t.Fatalf("rollback of a grow on a page filled since: %v", err)
	}
	e.mustFetch(t, tbl, rids[0], row(0, 100))
	e.mustFetch(t, tbl, filler, bytes.Repeat([]byte{'f'}, fill))
	for i := 1; i < 4; i++ {
		e.mustFetch(t, tbl, rids[i], row(i, 100))
	}
	sameAsLive(t, e, replayTwice(t, e, 512))
}

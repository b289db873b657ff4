package core

import (
	"fmt"
	"testing"

	"ariesim/internal/storage"
)

// TestFetchNextSurvivesPageDelete: a cursor whose leaf is deleted out from
// under it (all its keys removed, page-deletion SMO) repositions through
// the root and continues the scan correctly.
func TestFetchNextSurvivesPageDelete(t *testing.T) {
	e := newEnv(t, 512, 128)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	const n = 120
	for i := 0; i < n; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)
	if h, _ := ix.Height(); h < 2 {
		t.Fatal("tree too small for a deletable leaf")
	}

	// Open a scan positioned at key(0).
	scan := e.tm.Begin()
	res, cur, err := ix.Fetch(scan, key(0).Val, GE)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	// Identify the cursor leaf's key range and delete every key on it
	// EXCEPT those at or before the cursor... simpler: delete a dense
	// range ahead of the cursor that spans at least one whole leaf.
	del := e.tm.Begin()
	for i := 20; i < 80; i++ {
		e.mustDelete(del, ix, key(i))
	}
	e.commit(del)
	if e.stats.PageDeletes.Load() == 0 {
		t.Skip("range did not empty a leaf on this geometry")
	}

	// The scan continues: it must see exactly keys 1..19 and 80..119.
	var got []string
	for {
		res, err := ix.FetchNext(scan, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.EOF {
			break
		}
		got = append(got, string(res.Key.Val))
	}
	want := 19 + 40
	if len(got) != want {
		t.Fatalf("scan saw %d keys, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("scan out of order after page deletes")
		}
	}
	e.commit(scan)
}

// TestCursorOnDeletedCurrentKey: §2.3's remark — the current key may have
// been deleted by the SAME transaction; FetchNext must reposition and
// return the true next key, not fail.
func TestCursorOnDeletedCurrentKey(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 10; i++ {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)

	tx := e.tm.Begin()
	res, cur, err := ix.Fetch(tx, key(3).Val, EQ)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	// The same transaction deletes the current key (its own S lock
	// upgrades to X).
	e.lockRecord(tx, ix, key(3))
	e.mustDelete(tx, ix, key(3))
	next, err := ix.FetchNext(tx, cur)
	if err != nil {
		t.Fatal(err)
	}
	if next.EOF || string(next.Key.Val) != string(key(4).Val) {
		t.Fatalf("FetchNext after own delete = %+v", next)
	}
	e.commit(tx)
}

// TestCursorAcrossWholeTreeChurn scans while the same transaction inserts
// behind and ahead of the cursor: RR semantics allow the transaction to
// see its own inserts ahead of the cursor.
func TestCursorAcrossWholeTreeChurn(t *testing.T) {
	e := newEnv(t, 512, 128)
	ix := e.createIndex(Config{ID: 1})
	setup := e.tm.Begin()
	for i := 0; i < 40; i += 2 {
		e.mustInsert(setup, ix, key(i))
	}
	e.commit(setup)

	tx := e.tm.Begin()
	res, cur, err := ix.Fetch(tx, key(0).Val, GE)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	seen := 1
	for {
		// Insert an odd key ahead of the cursor every few steps.
		if seen%5 == 0 {
			oddAhead := seen*2 + 21
			if oddAhead < 40 {
				e.lockRecord(tx, ix, key(oddAhead))
				e.mustInsert(tx, ix, key(oddAhead))
			}
		}
		res, err := ix.FetchNext(tx, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.EOF {
			break
		}
		seen++
		if seen > 100 {
			t.Fatal("scan runaway")
		}
	}
	// 20 original + the odd keys inserted ahead of the cursor position.
	if seen < 20 {
		t.Fatalf("scan saw %d keys, want >= 20", seen)
	}
	e.commit(tx)
	e.checkTree(ix)
}

// TestScanBackwardCompatibilityOfCursorStruct pins cursor accessors.
func TestCursorAccessors(t *testing.T) {
	e := newEnv(t, 512, 64)
	ix := e.createIndex(Config{ID: 1})
	tx := e.tm.Begin()
	e.mustInsert(tx, ix, key(1))
	e.commit(tx)
	r := e.tm.Begin()
	res, cur, err := ix.Fetch(r, key(1).Val, EQ)
	if err != nil || !res.Found {
		t.Fatal(err)
	}
	if cur.EOF() {
		t.Fatal("cursor EOF on found key")
	}
	if cur.Key().Compare(res.Key) != 0 {
		t.Fatal("cursor key mismatch")
	}
	// Cross-index cursors rejected.
	other := e.createIndex(Config{ID: 2})
	if _, err := other.FetchNext(r, cur); err == nil {
		t.Fatal("foreign cursor accepted")
	}
	e.commit(r)
	_ = storage.Key{}
}

// TestFetchNextAcrossSplitOfCursorLeaf: a cursor steps by slot only while its
// leaf's LSN is the one it remembered. Splitting that leaf between two steps
// moves keys to another page and renumbers slots (the leaf is not the root,
// so it stays a leaf under the same page ID), so the next step must
// reposition through the root — once — and go on with the key after the
// cursor's, skipping and repeating nothing: keys inserted behind the cursor
// stay behind it, keys inserted ahead of it are returned in order. Locked,
// the scanning transaction makes the inserts itself (its S locks would hold
// another inserter off); latch-only, another transaction does.
func TestFetchNextAcrossSplitOfCursorLeaf(t *testing.T) {
	for _, latchOnly := range []bool{false, true} {
		name := "locked"
		if latchOnly {
			name = "latch-only"
		}
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 512, 64)
			ix := e.createIndex(Config{ID: 1})
			setup := e.tm.Begin()
			for i := 0; i < 400; i += 2 {
				e.mustInsert(setup, ix, key(i))
			}
			e.commit(setup)
			if h, _ := ix.Height(); h < 2 {
				t.Fatalf("setup tree has height %d, want the leaves below a root", h)
			}

			scan := e.tm.Begin()
			next := func(cur *Cursor) FetchResult {
				t.Helper()
				var res FetchResult
				var err error
				if latchOnly {
					res, err = ix.FetchNextNoLock(cur)
				} else {
					res, err = ix.FetchNext(scan, cur)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			var res FetchResult
			var cur *Cursor
			var err error
			if latchOnly {
				res, cur, err = ix.FetchNoLock(key(0).Val, GE)
			} else {
				res, cur, err = ix.Fetch(scan, key(0).Val, GE)
			}
			if err != nil || !res.Found {
				t.Fatal(res, err)
			}
			got := []string{string(res.Key.Val)}
			for len(got) < 3 {
				got = append(got, string(next(cur).Key.Val))
			}

			// The cursor is on key 4. Insert 1 and 3 behind it and the odd
			// keys from 5 to 59 ahead of it.
			writer := scan
			if latchOnly {
				writer = e.tm.Begin()
			}
			splits, repositions := e.stats.PageSplits.Load(), e.stats.LeafReposition.Load()
			for i := 1; i < 60; i += 2 {
				e.lockRecord(writer, ix, key(i))
				e.mustInsert(writer, ix, key(i))
			}
			if e.stats.PageSplits.Load() == splits {
				t.Fatal("the inserts did not split the cursor's leaf")
			}

			for {
				res := next(cur)
				if res.EOF {
					break
				}
				got = append(got, string(res.Key.Val))
			}
			if n := e.stats.LeafReposition.Load() - repositions; n != 1 {
				t.Fatalf("the scan repositioned %d times across one batch of splits, want 1", n)
			}
			want := []string{string(key(0).Val), string(key(2).Val), string(key(4).Val)}
			for i := 5; i < 400; i++ {
				if i%2 == 0 || i < 60 {
					want = append(want, string(key(i).Val))
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("scan across the split returned\n%q\nwant\n%q", got, want)
			}
			if writer != scan {
				e.commit(writer)
			}
			e.commit(scan)
			e.checkTree(ix)
		})
	}
}

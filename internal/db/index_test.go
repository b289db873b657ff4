package db

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// idxVal builds a row value that embeds its own primary key and a payload
// whose first 4 bytes are the secondary key, so any scan can verify both
// the row's integrity and its index placement from the value alone.
func idxVal(pk []byte, group, n int) []byte {
	return []byte(fmt.Sprintf("g%03d|%s|%d", group, pk, n))
}

// idxKey keys the index on the group tag, idxVal's first four bytes.
var idxKey = KeySpec{Prefix: 4}

// TestCreateIndexBackfill builds an index on a table that already has rows:
// the backfill must cover every existing row, range bounds must hold, and
// rows inserted after the build must be maintained by their own writers.
func TestCreateIndexBackfill(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	for i := 0; i < 60; i++ {
		if err := tbl.Insert(tx, k(i), idxVal(k(i), i%5, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_group", idxKey); err != nil {
		t.Fatal(err)
	}
	// Post-build writers maintain the index without touching CreateIndex.
	tx2 := d.MustBegin()
	for i := 60; i < 80; i++ {
		if err := tbl.Insert(tx2, k(i), idxVal(k(i), i%5, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(tx2, k(3)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	rtx := d.MustBegin()
	got := map[string]string{}
	var lastSK, lastPK string
	err := tbl.ScanIndex(rtx, "by_group", func(sk []byte, r Row) (bool, error) {
		if string(sk) != string(idxKey.Key(r.Value)) {
			t.Fatalf("row %q under key %q, want %q", r.Key, sk, idxKey.Key(r.Value))
		}
		if s, p := string(sk), string(r.Key); s < lastSK || (s == lastSK && p <= lastPK) {
			t.Fatalf("scan order violated at (%q, %q) after (%q, %q)", s, p, lastSK, lastPK)
		} else {
			lastSK, lastPK = s, p
		}
		got[string(r.Key)] = string(r.Value)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 79 {
		t.Fatalf("index scan found %d rows, want 79", len(got))
	}
	if _, ok := got[string(k(3))]; ok {
		t.Fatal("deleted row still reachable through the index")
	}
	n := 0
	err = tbl.ScanIndexRange(rtx, "by_group", []byte("g002"), []byte("g002"), func(sk []byte, r Row) (bool, error) {
		if string(sk) != "g002" {
			t.Fatalf("range scan leaked key %q", sk)
		}
		n++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("range scan found %d rows, want 16", n)
	}
	_ = rtx.Commit()
	if err := tbl.CreateIndex("by_group", idxKey); err == nil {
		t.Fatal("duplicate CreateIndex succeeded")
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateIndexDuringWrites races the backfill's locked scan against
// live writers: whichever rows the scan could not see must be indexed by
// their own (blocked, then resumed) writers.
func TestCreateIndexDuringWrites(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	tx := d.MustBegin()
	for i := 0; i < 40; i++ {
		_ = tbl.Insert(tx, k(i), idxVal(k(i), i%5, i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// committed maps every committed key to its commit LSN, for the
	// diagnosis of a count mismatch.
	var mu sync.Mutex
	committed := map[string]wal.LSN{}
	for i := 0; i < 40; i++ {
		committed[string(k(i))] = tx.CommitLSN()
	}
	var wg sync.WaitGroup
	var inserted atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// At most 1,000 rows per writer: a build slowed by a loaded box
			// could otherwise outlast enough inserts to fill the 512-byte-page
			// disk. Each writer's keys are its own range.
			for i := 0; i < 1000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := k(1000 + w*100000 + i)
				onCommitted := func(lsn wal.LSN) {
					mu.Lock()
					committed[string(key)] = lsn
					mu.Unlock()
				}
				err := d.RunTxnWith(RunTxnOpts{OnCommitted: onCommitted}, func(tx *txn.Tx) error {
					return tbl.Insert(tx, key, idxVal(key, i%5, i))
				})
				if err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}
	before := d.Log().MaxLSN()
	if err := tbl.CreateIndex("by_group", idxKey); err != nil {
		t.Fatal(err)
	}
	after := d.Log().MaxLSN()
	close(stop)
	wg.Wait()
	rtx := d.MustBegin()
	n := 0
	seen := map[string]int{}
	err := tbl.ScanIndex(rtx, "by_group", func(sk []byte, r Row) (bool, error) {
		if string(sk) != string(idxKey.Key(r.Value)) {
			t.Fatalf("row %q under key %q, want %q", r.Key, sk, idxKey.Key(r.Value))
		}
		n++
		seen[string(r.Key)]++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 40 + int(inserted.Load()); n != want {
		diagnoseIndexCount(t, tbl, seen, committed, before, after)
		t.Fatalf("index scan found %d rows, want %d", n, want)
	}
	_ = rtx.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// diagnoseIndexCount logs why TestCreateIndexDuringWrites's index scan
// returned the wrong number of rows. For every committed key the scan did not
// return exactly once it logs where the key lives (Table.Locate: heap,
// primary and secondary, and at what RID), which tells a build that lost the
// entry from a scan that skipped one the tree has; its commit LSN against
// the log's end just before and just after CreateIndex; and the secondary
// leaves holding the entries beside its place.
func diagnoseIndexCount(t *testing.T, tbl *Table, seen map[string]int, committed map[string]wal.LSN, before, after wal.LSN) {
	t.Helper()
	sec := tbl.lookupSecondary("by_group").ix
	secKeys, err := sec.Dump()
	if err != nil {
		t.Fatal(err)
	}
	leafOf := func(at storage.Key) string {
		leaf, _, err := sec.LeafOf(at)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(leaf)
	}
	t.Logf("log end: %d before CreateIndex, %d after", before, after)
	var keys [][]byte
	for key := range committed {
		if seen[key] != 1 {
			keys = append(keys, []byte(key))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	locs, err := tbl.Locate(keys...)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		loc := locs[string(key)]
		msg := fmt.Sprintf("key %q committed at LSN %d, scanned %d times: %s", key, committed[string(key)], seen[string(key)], loc)
		if loc.Heap != (storage.RID{}) {
			at := storage.Key{Val: idxKey.Key(loc.Value), RID: loc.Heap}
			pos := sort.Search(len(secKeys), func(i int) bool { return secKeys[i].Compare(at) >= 0 })
			next := pos
			if pos < len(secKeys) && secKeys[pos].Compare(at) == 0 {
				next++
			}
			if pos > 0 {
				msg += fmt.Sprintf(", previous entry %s on leaf %s", secKeys[pos-1], leafOf(secKeys[pos-1]))
			}
			if next < len(secKeys) {
				msg += fmt.Sprintf(", next entry %s on leaf %s", secKeys[next], leafOf(secKeys[next]))
			}
		}
		t.Log(msg)
	}
}

// TestLocateTakesLatchesOnly: Locate finds a row in the heap, the primary
// and the secondary under one RID, reports a key no row has as held
// nowhere, and makes no lock-manager call.
func TestLocateTakesLatchesOnly(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	if err := tbl.CreateIndex("by_group", idxKey); err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(tx, k(i), idxVal(k(i), i%3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	calls := d.Stats().Snap().TotalLocks()
	locs, err := tbl.Locate(k(4), k(99))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Snap().TotalLocks(); got != calls {
		t.Fatalf("Locate made %d lock calls", got-calls)
	}
	in := locs[string(k(4))]
	if in.Heap == (storage.RID{}) || in.Primary != in.Heap || in.Secondary["by_group"] != in.Heap ||
		!bytes.Equal(in.Value, idxVal(k(4), 1, 4)) {
		t.Fatalf("k(4): %s, value %q", in, in.Value)
	}
	if out := locs[string(k(99))].String(); out != "heap=(0.0) primary=(0.0) secondary=map[by_group:(0.0)]" {
		t.Fatalf("k(99): %s", out)
	}
}

// TestIndexRollbackRestoresBothTrees rolls back a transaction that
// touched base rows and index entries (including key moves) and checks
// both trees return to the pre-transaction state.
func TestIndexRollbackRestoresBothTrees(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	if err := tbl.CreateIndex("by_group", idxKey); err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 30; i++ {
		_ = tbl.Insert(tx, k(i), idxVal(k(i), i%3, i))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	before := map[string]string{}
	rtx := d.MustBegin()
	_ = tbl.ScanIndex(rtx, "by_group", func(sk []byte, r Row) (bool, error) {
		before[string(sk)+"|"+string(r.Key)] = string(r.Value)
		return true, nil
	})
	_ = rtx.Commit()

	vic := d.MustBegin()
	_ = tbl.Insert(vic, k(100), idxVal(k(100), 7, 100))
	_ = tbl.Delete(vic, k(5))
	// Update that MOVES the secondary key: group 1 -> group 9.
	_ = tbl.Update(vic, k(1), idxVal(k(1), 9, 1))
	if err := vic.Rollback(); err != nil {
		t.Fatal(err)
	}

	after := map[string]string{}
	rtx2 := d.MustBegin()
	_ = tbl.ScanIndex(rtx2, "by_group", func(sk []byte, r Row) (bool, error) {
		after[string(sk)+"|"+string(r.Key)] = string(r.Value)
		return true, nil
	})
	_ = rtx2.Commit()
	if len(after) != len(before) {
		t.Fatalf("rollback left %d index rows, want %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("index row %q: %q after rollback, want %q", k, after[k], v)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexScanWriterOracle interleaves committing/aborting writers with
// locked and snapshot index scanners and checks every scan against the
// per-row oracle baked into the values: the value names its own primary
// key and secondary key, so a torn read, a mis-placed entry, or a
// double-emitted row is caught no matter how the schedule interleaves.
// Run under -race this is also the data-race oracle for the index path.
func TestIndexScanWriterOracle(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	if err := tbl.CreateIndex("by_group", idxKey); err != nil {
		t.Fatal(err)
	}
	seed := d.MustBegin()
	for i := 0; i < 50; i++ {
		_ = tbl.Insert(seed, k(i), idxVal(k(i), i%5, i))
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const writers, scanners, rounds = 4, 3, 40
	var wgWrite, wgScan sync.WaitGroup
	stop := make(chan struct{})
	upsert := func(tx *txn.Tx, key, value []byte) error {
		err := tbl.Update(tx, key, value)
		if errors.Is(err, ErrNotFound) {
			err = tbl.Insert(tx, key, value)
		}
		return err
	}
	for w := 0; w < writers; w++ {
		wgWrite.Add(1)
		go func(w int) {
			defer wgWrite.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := k((w*13 + i) % 50)
				err := d.RunTxn(func(tx *txn.Tx) error {
					switch i % 4 {
					case 0, 3:
						return upsert(tx, key, idxVal(key, (w+i)%5, i))
					case 1:
						if err := tbl.Delete(tx, key); err != nil && !errors.Is(err, ErrNotFound) {
							return err
						}
						return nil
					default: // abort after touching both trees
						if err := upsert(tx, key, idxVal(key, 9, i)); err != nil {
							return err
						}
						return errAbortOracle
					}
				})
				if err != nil && !errors.Is(err, errAbortOracle) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	check := func(kind string, sk []byte, r Row) error {
		if string(sk) != string(idxKey.Key(r.Value)) {
			return fmt.Errorf("%s scan: row %q under key %q, value says %q", kind, r.Key, sk, idxKey.Key(r.Value))
		}
		if !bytes.Contains(r.Value, r.Key) {
			return fmt.Errorf("%s scan: row %q carries foreign value %q", kind, r.Key, r.Value)
		}
		return nil
	}
	for sc := 0; sc < scanners; sc++ {
		wgScan.Add(1)
		go func(sc int) {
			defer wgScan.Done()
			for i := 0; i < rounds; i++ {
				seen := map[string]bool{}
				var err error
				if i%2 == 0 {
					err = d.RunReadOnly(func(tx *txn.Tx) error {
						clear(seen)
						return tbl.ScanIndex(tx, "by_group", func(sk []byte, r Row) (bool, error) {
							if seen[string(r.Key)] {
								return false, fmt.Errorf("snapshot scan emitted %q twice", r.Key)
							}
							seen[string(r.Key)] = true
							return true, check("snapshot", sk, r)
						})
					})
				} else {
					err = d.RunTxn(func(tx *txn.Tx) error {
						clear(seen)
						return tbl.ScanIndexRange(tx, "by_group", []byte("g001"), []byte("g003"), func(sk []byte, r Row) (bool, error) {
							if seen[string(r.Key)] {
								return false, fmt.Errorf("locked scan emitted %q twice", r.Key)
							}
							seen[string(r.Key)] = true
							return true, check("locked", sk, r)
						})
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(sc)
	}
	// Scanners drive the duration; writers churn until they finish.
	wgScan.Wait()
	close(stop)
	wgWrite.Wait()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

var errAbortOracle = fmt.Errorf("oracle: deliberate abort")

// TestIndexRangeScanCostTracksMatches: a locked ScanIndexRange fixes pages
// for what it matches — one descent of the secondary tree, the leaves that
// hold the matching entries, and one heap fetch per match — not for the
// table it runs on. Quadrupling the table leaves a 16-match scan's fixes
// where they were (give or take a tree level) and quadrupling the matches
// grows them about fourfold. Counts, so one run on any box is the evidence.
func TestIndexRangeScanCostTracksMatches(t *testing.T) {
	sval := func(i int) []byte { return []byte(fmt.Sprintf("s%08d", i)) }
	build := func(rows int) (*DB, *Table) {
		d := Open(Options{PoolSize: 4096})
		tbl, err := d.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("by_val", KeySpec{}); err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < rows; lo += 500 {
			if err := d.RunTxn(func(tx *txn.Tx) error {
				for i := lo; i < lo+500; i++ {
					if err := tbl.Insert(tx, key8(i), sval(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return d, tbl
	}
	fixes := func(d *DB, tbl *Table, rows, matches int) uint64 {
		t.Helper()
		before := d.Stats().Snap()
		n := 0
		if err := d.RunTxn(func(tx *txn.Tx) error {
			n = 0
			return tbl.ScanIndexRange(tx, "by_val", sval(rows/2), sval(rows/2+matches-1), func(sk []byte, r Row) (bool, error) {
				if !bytes.Equal(sk, r.Value) {
					return false, fmt.Errorf("row %q under key %q", r.Value, sk)
				}
				n++
				return true, nil
			})
		}); err != nil || n != matches {
			t.Fatalf("%d rows: range of %d matched %d: %v", rows, matches, n, err)
		}
		return trace.Diff(before, d.Stats().Snap()).PageFixes
	}
	const small, big = 2000, 8000
	ds, ts := build(small)
	dbig, tbig := build(big)
	small16, big16, big64 := fixes(ds, ts, small, 16), fixes(dbig, tbig, big, 16), fixes(dbig, tbig, big, 64)
	t.Logf("page fixes: 16 of %d = %d, 16 of %d = %d, 64 of %d = %d", small, small16, big, big16, big, big64)
	// Per match: the leaf holding the entry and the heap page holding the
	// row; per scan: the descent and the leaf boundaries crossed.
	for _, c := range []struct {
		matches int
		got     uint64
	}{{16, small16}, {16, big16}, {64, big64}} {
		if limit := uint64(3*c.matches + 8); c.got == 0 || c.got > limit {
			t.Errorf("a %d-match range scan fixed %d pages, limit %d", c.matches, c.got, limit)
		}
	}
	if big16 > small16+4 {
		t.Errorf("16 matches cost %d fixes among %d rows but %d among %d: the scan pays for the table", small16, small, big16, big)
	}
	if big64 < 2*big16 {
		t.Errorf("64 matches cost %d fixes, 16 cost %d: the count does not follow the matches", big64, big16)
	}
}

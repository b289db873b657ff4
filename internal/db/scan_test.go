package db

import (
	"fmt"
	"testing"

	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
)

// scanRows is the benchmark's range length: a 16-row Scan.
const scanRows = 16

// residentTable builds a 5,000-row table whose pages all fit in the pool.
func residentTable(tb testing.TB) (*DB, *Table) {
	tb.Helper()
	d := Open(Options{PoolSize: 1024})
	tbl, err := d.CreateTable("t")
	if err != nil {
		tb.Fatal(err)
	}
	loadRows(tb, d, tbl, 5000)
	return d, tbl
}

// scanKeys are the keys of the rows a 16-row Scan from row 1000 returns,
// built once so that checking them allocates nothing.
var scanKeys = func() []string {
	keys := make([]string, scanRows)
	for i := range keys {
		keys[i] = string(key8(1000 + i))
	}
	return keys
}()

// scanTxn runs one transaction — locked, or a snapshot — and, when scan is
// set, a 16-row Scan from row 1000 inside it, checking every row.
func scanTxn(tb testing.TB, d *DB, tbl *Table, snapshot, scan bool) {
	var tx *txn.Tx
	var err error
	if snapshot {
		if tx, err = d.BeginReadOnly(); err == nil && tx.Snapshot() == nil {
			tb.Fatal("the read-only transaction has no snapshot")
		}
	} else {
		tx, err = d.Begin()
	}
	if err != nil {
		tb.Fatal(err)
	}
	if scan {
		n := 0
		from, to := []byte(scanKeys[0]), []byte(scanKeys[scanRows-1])
		if err := tbl.Scan(tx, from, to, func(r Row) (bool, error) {
			if n >= scanRows || string(r.Key) != scanKeys[n] || string(r.Value) != "v0" {
				tb.Fatalf("row %d: %q = %q", n, r.Key, r.Value)
			}
			n++
			return true, nil
		}); err != nil {
			tb.Fatal(err)
		}
		if n != scanRows {
			tb.Fatalf("scan returned %d rows, want %d", n, scanRows)
		}
	}
	if snapshot {
		err = d.EndReadOnly(tx)
	} else {
		err = tx.Commit()
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// TestScanCounts holds a 16-row Scan on a resident table to what its
// cursor's remembered position makes it cost. Locked or under a snapshot,
// it is one traversal (the Fetch that positions it; every FetchNext takes
// the next slot of an unchanged leaf) and 34 fixes (the root, 17 leaf
// positions — the Fetch's and 16 steps' — and 16 heap reads): a snapshot
// scan reads each row at the RID its cursor step returned instead of
// descending for it again, which cost it 17 traversals and 66 fixes before.
// The locked scan's lock calls are Figure 2's, one per key and one for the
// key past the range, as no record fetch takes a table lock; the snapshot
// scan makes none. Allocations are net of an empty transaction of the same
// kind.
func TestScanCounts(t *testing.T) {
	d, tbl := residentTable(t)
	for _, c := range []struct {
		name      string
		snapshot  bool
		locks     uint64
		maxAllocs float64
	}{
		{"locked", false, 17, 55},
		{"snapshot", true, 0, 90},
	} {
		t.Run(c.name, func(t *testing.T) {
			scanTxn(t, d, tbl, c.snapshot, true) // warm
			before := d.Stats().Snap()
			scanTxn(t, d, tbl, c.snapshot, true)
			diff := trace.Diff(before, d.Stats().Snap())
			if diff.Traversals != 1 || diff.PageFixes != 34 || diff.LeafReposition != 0 {
				t.Errorf("a 16-row scan cost %d traversals, %d fixes, %d repositions; want 1, 34, 0",
					diff.Traversals, diff.PageFixes, diff.LeafReposition)
			}
			if got := diff.TotalLocks(); got != c.locks {
				t.Errorf("a 16-row scan made %d lock calls, want %d", got, c.locks)
			}
			scan := testing.AllocsPerRun(50, func() { scanTxn(t, d, tbl, c.snapshot, true) })
			empty := testing.AllocsPerRun(50, func() { scanTxn(t, d, tbl, c.snapshot, false) })
			net := scan - empty
			if net > c.maxAllocs {
				t.Errorf("a 16-row scan allocated %.0f times, limit %.0f", net, c.maxAllocs)
			}
			t.Logf("a 16-row scan: %d traversals, %d fixes, %d lock calls, %.0f allocations",
				diff.Traversals, diff.PageFixes, diff.TotalLocks(), net)
		})
	}
}

// BenchmarkScan16 times one 16-row Scan on a resident table inside its own
// transaction, locked and under a snapshot (go test -bench Scan16 -benchmem
// ./internal/db; make microbench runs it with the rest).
func BenchmarkScan16(b *testing.B) {
	d, tbl := residentTable(b)
	for _, c := range []struct {
		name     string
		snapshot bool
	}{{"locked", false}, {"snapshot", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanTxn(b, d, tbl, c.snapshot, true)
			}
		})
	}
}

// TestSnapshotScanStepOntoWrittenRow: a snapshot scan reads each row at the
// RID its cursor step returned, so a writer that acts on that row between
// the step and the read must not leak into the snapshot. The write is staged
// from scanHook, which runs right after the step onto the victim (armed from
// the callback of the row before it, no latches held): an update that
// commits, a delete plus a reinsert that puts the row at a new RID, and an
// in-place update made before the step that rolls back after it. The chain
// answers the first two; the third's rollback removes the chain, which moves
// the removal sequence, and the step is taken again. Every case returns each
// row once, in order, with the value the snapshot saw.
func TestSnapshotScanStepOntoWrittenRow(t *testing.T) {
	const keys, victim = 8, 4
	for _, c := range []string{"update-commits", "delete-reinsert", "rollback"} {
		t.Run(c, func(t *testing.T) {
			d := Open(Options{})
			tbl, err := d.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			loadRows(t, d, tbl, keys)
			before := ridOf(t, d, tbl, key8(victim))
			var writer *txn.Tx
			armed := false
			tbl.scanHook = func() {
				if !armed {
					return
				}
				armed = false
				switch c {
				case "update-commits":
					err = d.RunTxn(func(tx *txn.Tx) error { return tbl.Update(tx, key8(victim), []byte("v1")) })
				case "delete-reinsert":
					err = d.RunTxn(func(tx *txn.Tx) error {
						if err := tbl.Delete(tx, key8(victim)); err != nil {
							return err
						}
						return tbl.Insert(tx, key8(victim), []byte("v1"))
					})
				case "rollback":
					err = writer.Rollback()
				}
				if err != nil {
					t.Error(err)
				}
			}
			rtx, err := d.BeginReadOnly()
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			if err := tbl.Scan(rtx, nil, nil, func(r Row) (bool, error) {
				got = append(got, string(r.Key)+"="+string(r.Value))
				if string(r.Key) == string(key8(victim-1)) {
					armed = true
					if c == "rollback" {
						writer = d.MustBegin()
						if err := tbl.Update(writer, key8(victim), []byte("v1")); err != nil {
							return false, err
						}
					}
				}
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := d.EndReadOnly(rtx); err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 0; i < keys; i++ {
				want = append(want, string(key8(i))+"=v0")
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("scan returned %q, want %q", got, want)
			}
			if moved := ridOf(t, d, tbl, key8(victim)) != before; moved != (c == "delete-reinsert") {
				t.Fatalf("victim's row moved: %v", moved)
			}
		})
	}
}

// TestSnapshotReadAtFallsBack drives snapshotReadAt with each answer a
// cursor step can go stale with — a removal sequence that moved, a RID now
// holding another key's row, a slot that is gone, a ghost — and checks that
// each is read through the whole per-key protocol (one more traversal) and
// returns the key's own row at the snapshot, while an unchanged step takes
// none.
func TestSnapshotReadAtFallsBack(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunTxn(func(tx *txn.Tx) error {
		for i := 0; i < 8; i++ {
			if err := tbl.Insert(tx, key8(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rid3, rid4, rid5 := ridOf(t, d, tbl, key8(3)), ridOf(t, d, tbl, key8(4)), ridOf(t, d, tbl, key8(5))
	if err := d.RunTxn(func(tx *txn.Tx) error { return tbl.Delete(tx, key8(5)) }); err != nil {
		t.Fatal(err)
	}
	rtx, err := d.BeginReadOnly()
	if err != nil {
		t.Fatal(err)
	}
	defer d.EndReadOnly(rtx)
	s, seq := rtx.Snapshot().LSN, tbl.vs.Seq(tbl.id)
	for _, c := range []struct {
		name       string
		at         storage.Key
		seq        uint64
		want       string // "" = absent
		traversals uint64
	}{
		{"unchanged", storage.Key{Val: key8(3), RID: rid3}, seq, "v3", 0},
		{"sequence moved", storage.Key{Val: key8(3), RID: rid3}, seq - 1, "v3", 1},
		{"another key's row", storage.Key{Val: key8(3), RID: rid4}, seq, "v3", 1},
		{"missing slot", storage.Key{Val: key8(3), RID: storage.RID{Page: rid3.Page, Slot: 999}}, seq, "v3", 1},
		{"ghost", storage.Key{Val: key8(5), RID: rid5}, seq, "", 1},
	} {
		before := d.Stats().Snap()
		row, found, err := tbl.snapshotReadAt(s, c.at, c.seq)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := trace.Diff(before, d.Stats().Snap()).Traversals; n != c.traversals {
			t.Errorf("%s: %d traversals, want %d", c.name, n, c.traversals)
		}
		switch {
		case c.want == "" && found:
			t.Errorf("%s: read %q = %q, want absent", c.name, row.Key, row.Value)
		case c.want != "" && (!found || string(row.Key) != string(c.at.Val) || string(row.Value) != c.want):
			t.Errorf("%s: read %q = %q (found %v), want %q = %q", c.name, row.Key, row.Value, found, c.at.Val, c.want)
		}
	}
}

package db

import (
	"bytes"
	"testing"

	"ariesim/internal/wal"
)

// TestLogShippingStandby demonstrates what purely page-oriented redo (§3)
// buys beyond restart: a warm standby. The primary ships its archived log;
// the standby — an empty disk that has never executed a transaction —
// replays it page by page with the shared redo appliers and ends up
// byte-equivalent at the logical level, verified by opening an engine on
// the reconstructed disk.
func TestLogShippingStandby(t *testing.T) {
	primary := Open(Options{PageSize: 512, PoolSize: 512})
	tbl, err := primary.CreateTable("ship")
	if err != nil {
		t.Fatal(err)
	}
	tx := primary.MustBegin()
	for i := 0; i < 300; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := primary.MustBegin()
	for i := 50; i < 120; i++ {
		if err := tbl.Delete(tx2, k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// One in-flight transaction at ship time: the standby must not show it.
	loser := primary.MustBegin()
	for i := 500; i < 520; i++ {
		if err := tbl.Insert(loser, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	primary.Log().ForceAll()

	// Ship the log.
	var wire bytes.Buffer
	if _, err := primary.ArchiveLog(&wire); err != nil {
		t.Fatal(err)
	}

	// Standby: fresh disk + the shipped log, then a standard restart.
	standbyLog, err := wal.ReadArchive(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The schema travels in the log: the catalog heap is rebuilt by redo.
	standby, rep, err := OpenStandby(Options{PageSize: 512, PoolSize: 512}, standbyLog)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedosApplied == 0 {
		t.Fatal("standby applied no redo")
	}
	if rep.LosersUndone != 1 {
		t.Fatalf("standby undid %d losers, want 1", rep.LosersUndone)
	}
	if err := standby.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	stbl, err := standby.Table("ship")
	if err != nil {
		t.Fatal(err)
	}

	// The standby's visible state equals the primary's committed state.
	collect := func(d *DB, tb *Table) map[string]string {
		out := map[string]string{}
		r := d.MustBegin()
		_ = tb.Scan(r, []byte(""), nil, func(row Row) (bool, error) {
			out[string(row.Key)] = string(row.Value)
			return true, nil
		})
		_ = r.Commit()
		return out
	}
	// Roll the primary's loser back so both sides show committed state.
	if err := loser.Rollback(); err != nil {
		t.Fatal(err)
	}
	pState := collect(primary, tbl)
	sState := collect(standby, stbl)
	if len(pState) != len(sState) {
		t.Fatalf("primary %d rows, standby %d rows", len(pState), len(sState))
	}
	for key, val := range pState {
		if sState[key] != val {
			t.Fatalf("standby divergence at %q: %q vs %q", key, sState[key], val)
		}
	}
	// The standby is a fully writable promotion target.
	w := standby.MustBegin()
	if err := stbl.Insert(w, []byte("zz-after-promotion"), []byte("new-primary")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := standby.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

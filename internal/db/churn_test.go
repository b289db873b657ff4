package db

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"ariesim/internal/trace"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// The count gate of a churning queue's log volume: one client of the
// churn-ooc mix — insert two rows at the head of a queue, delete two at its
// tail, scan 16 static rows under locks — on a 256-page pool. Each byte is
// logged once: a delete logs its slot, not its row (the ghost keeps the row
// until its deleter has committed), a split's left-page record names the new
// page instead of repeating the cells its format record carries, and a pass
// that purges ghosts logs one record listing their slots. So a transaction
// writes at most 585 log bytes where the row copy made it about 845, each of
// its two data-delete records is at most 24 bytes, each split-left record at
// most 64, and there are at most 1.1 purge records per transaction. Counts
// from trace.Stats and the log, no timing.
func TestChurnLogBytesPerTxn(t *testing.T) {
	const (
		rows  = 20_000 // static rows, scanned
		base  = 10_000_000
		queue = 1_000 // live rows in the queue at the start
		txns  = 1_000
	)
	key := func(n int) []byte { return []byte(fmt.Sprintf("k%08d", n)) }
	val := func(n int) []byte {
		v := bytes.Repeat([]byte{'v'}, 100)
		binary.LittleEndian.PutUint64(v, uint64(n))
		return v
	}
	d := Open(Options{PoolSize: 256})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	load := func(from, to int) {
		t.Helper()
		for lo := from; lo < to; lo += 64 {
			if err := d.RunTxn(func(tx *txn.Tx) error {
				for n := lo; n < min(lo+64, to); n++ {
					if err := tbl.Insert(tx, key(n), val(n)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(0, rows)
	load(base, base+queue)
	load(base+10*queue, base+10*queue+1) // the queue's sentinel: never deleted

	rng := rand.New(rand.NewSource(1))
	lo, hi := base, base+queue
	before, from := d.Stats().Snap(), d.Log().MaxLSN()
	for i := 0; i < txns; i++ {
		start := rng.Intn(rows - 4*16)
		scanned := 0
		if err := d.RunTxn(func(tx *txn.Tx) error {
			for j := 0; j < 2; j++ {
				if err := tbl.Insert(tx, key(hi+j), val(hi+j)); err != nil {
					return err
				}
			}
			for j := 0; j < 2; j++ {
				if err := tbl.Delete(tx, key(lo+j)); err != nil {
					return err
				}
			}
			scanned = 0
			return tbl.Scan(tx, key(start), key(start+15), func(Row) (bool, error) {
				scanned++
				return true, nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		if scanned != 16 {
			t.Fatalf("transaction %d scanned %d rows", i, scanned)
		}
		lo, hi = lo+2, hi+2
	}
	diff := trace.Diff(before, d.Stats().Snap())

	deletes, splits, purges := 0, 0, 0
	for _, r := range d.Log().SnapshotFrom(from + 1) {
		switch r.Op {
		case wal.OpDataDelete:
			if deletes++; r.EncodedSize() > 24 {
				t.Fatalf("a data-delete record of %d bytes, want at most 24: %s", r.EncodedSize(), r)
			}
		case wal.OpIdxSplitLeft:
			if splits++; r.EncodedSize() > 64 {
				t.Fatalf("a split-left record of %d bytes, want at most 64: %s", r.EncodedSize(), r)
			}
		case wal.OpDataPurge:
			purges++
		}
	}
	if deletes != 2*txns {
		t.Fatalf("%d data-delete records for %d transactions, want 2 each", deletes, txns)
	}
	if splits == 0 {
		t.Fatal("the churn split no page")
	}
	if perTxn := float64(purges) / txns; perTxn > 1.1 {
		t.Fatalf("%.2f data-purge records per transaction, want at most 1.1", perTxn)
	}
	perTxn := float64(diff.LogBytes) / txns
	t.Logf("%.1f log bytes, %.2f records per transaction; %d split-left and %d purge records",
		perTxn, float64(diff.LogRecords)/txns, splits, purges)
	if perTxn > 585 {
		t.Fatalf("%.1f log bytes per transaction, want at most 585", perTxn)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

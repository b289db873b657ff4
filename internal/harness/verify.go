// Package harness holds the engine's crash-robustness sweeps: the serial
// every-log-boundary crash sweep, the concurrent crash-under-load chaos
// sweep, and the hot-standby failover sweep. They drive internal/db and
// internal/repl through their exported APIs only and are run by
// cmd/ariesim-crash and by the tier-1 tests; nothing here is compiled into
// an application.
package harness

import (
	"errors"
	"fmt"
	"strings"

	"ariesim/internal/db"
	"ariesim/internal/txn"
	"ariesim/internal/wal"
)

// verifyRows checks that the rows of table visible in d are exactly want.
func verifyRows(d *db.DB, table string, want map[string]string) error {
	tbl, err := d.Table(table)
	if err != nil {
		return err
	}
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	got := map[string]string{}
	if err := tbl.Scan(tx, nil, nil, func(r db.Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	}); err != nil {
		_ = tx.Rollback() // the scan error is the one to report
		return fmt.Errorf("verify scan: %w", err)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("committed row %q missing (want %q)", k, v)
		}
		if gv != v {
			return fmt.Errorf("row %q = %q, want %q", k, gv, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("phantom row %q visible (uncommitted effect?)", k)
		}
	}
	return nil
}

// verifyTableAt checks a table against the log prefix d recovered from:
// present with exactly the rows want when the prefix holds its
// CreateTable's commit (created), absent otherwise.
func verifyTableAt(d *db.DB, table string, created bool, want map[string]string) error {
	if created {
		return verifyRows(d, table, want)
	}
	if _, err := d.Table(table); err == nil {
		return fmt.Errorf("table %q exists before its CreateTable committed", table)
	}
	return nil
}

// errNoInPlaceUpdate fails a sweep whose workload never updated a row in
// place: every update having taken the delete + insert fallback, the sweep
// would pass without redoing or undoing one OpDataUpdate.
var errNoInPlaceUpdate = errors.New("harness: the workload logged no OpDataUpdate")

// inPlaceUpdates counts the forward OpDataUpdate records in log.
func inPlaceUpdates(log *wal.Log) int {
	n := 0
	log.Scan(1, func(r *wal.Record) bool {
		if r.Type == wal.RecUpdate && r.Op == wal.OpDataUpdate {
			n++
		}
		return true
	})
	return n
}

// indexName is the secondary index the sweeps maintain when asked to.
const indexName = "by_val_tail"

// indexKey is the sweeps' secondary key: a row value's trailing four bytes.
// Every workload here ends its values in the digits or letters that change
// from write to write, so the key moves on almost every update (index
// maintenance rides along with every operation) while staying non-unique
// (duplicate-key paths are exercised), and short control values stay legal.
var indexKey = db.KeySpec{Suffix: 4}

// verifyIndex checks a secondary index against the log prefix d recovered
// from. When the prefix holds its CreateIndex's commit (created), a locked
// index-order scan must yield every row of want exactly once, with its
// committed value, under exactly the key indexKey derives from it — and
// nothing else; otherwise the scan must find no such index. (Structural
// base↔index checks are VerifyConsistency's.)
func verifyIndex(d *db.DB, table, index string, created bool, want map[string]string) error {
	tbl, err := d.Table(table)
	if err != nil {
		return err
	}
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	err = tbl.ScanIndex(tx, index, func(sk []byte, r db.Row) (bool, error) {
		k := string(r.Key)
		if seen[k] {
			return false, fmt.Errorf("row %q indexed twice", r.Key)
		}
		seen[k] = true
		wv, ok := want[k]
		if !ok {
			return false, fmt.Errorf("orphan entry %q → uncommitted row %q", sk, r.Key)
		}
		if string(r.Value) != wv {
			return false, fmt.Errorf("row %q = %q through the index, committed value %q", r.Key, r.Value, wv)
		}
		if wantSK := indexKey.Key(r.Value); string(sk) != string(wantSK) {
			return false, fmt.Errorf("row %q indexed under %q, its key is %q", r.Key, sk, wantSK)
		}
		return true, nil
	})
	if !created {
		_ = tx.Rollback()
		if err == nil || !strings.Contains(err.Error(), "no secondary index") {
			return fmt.Errorf("index %q before its CreateIndex committed: scan = %v", index, err)
		}
		return nil
	}
	if err != nil {
		_ = tx.Rollback() // the scan error is the one to report
		return fmt.Errorf("index %q: %w", index, err)
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("index %q: committed row %q missing from index", index, k)
		}
	}
	return nil
}

// upsert writes k=v regardless of prior existence. The insert/update race
// with concurrent deleters is looped over: both ErrDuplicate and
// ErrNotFound are the other side of a race this transaction can immediately
// retry in place.
func upsert(tbl *db.Table, tx *txn.Tx, k, v []byte) error {
	var err error
	for i := 0; i < 4; i++ {
		if err = tbl.Insert(tx, k, v); !errors.Is(err, db.ErrDuplicate) {
			return err
		}
		if err = tbl.Update(tx, k, v); !errors.Is(err, db.ErrNotFound) {
			return err
		}
	}
	return err
}

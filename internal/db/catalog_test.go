package db

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ariesim/internal/lock"
	"ariesim/internal/recovery"
	"ariesim/internal/wal"
)

// headKey is the secondary-index key of the catalog tests.
var headKey = KeySpec{Prefix: 2}

// TestCatalogRowRoundTrip encodes and decodes each kind of catalog row,
// a secondary row for each shape of KeySpec. Table and primary rows carry
// no key, so their bytes are the header and the name alone.
func TestCatalogRowRoundTrip(t *testing.T) {
	rows := []catalogRow{
		{kind: rowTable, table: 7, page: 12, name: "orders"},
		{kind: rowPrimary, table: 7, index: 3, page: 13, name: "orders_pk"},
	}
	for _, key := range []KeySpec{{}, {Prefix: 4}, {Suffix: 300}, {Sep: '|', HasSep: true},
		{Sep: 0, HasSep: true, Prefix: 2}, {Sep: 0xff, HasSep: true, Suffix: 1<<31 - 1}} {
		rows = append(rows, catalogRow{kind: rowSecondary, table: 7, index: 4, page: 14, key: key, name: "by_customer"})
	}
	rows = append(rows, catalogRow{kind: rowSecondary, table: 1 << 60, index: 1 << 31, page: 1, key: KeySpec{Prefix: 1}})
	for _, r := range rows {
		enc := r.encode()
		if r.kind != rowSecondary && len(enc) != catalogRowHeader+len(r.name) {
			t.Errorf("%+v: %d bytes, want header + name", r, len(enc))
		}
		got, err := decodeCatalogRow(enc)
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Errorf("%+v: decoded %+v, %v", r, got, err)
		}
	}
}

// TestCatalogRowRejectsBadKeySpec: a secondary row cut inside its KeySpec,
// or carrying one CreateIndex would refuse, is an error, not a panic.
func TestCatalogRowRejectsBadKeySpec(t *testing.T) {
	enc := catalogRow{kind: rowSecondary, table: 1, index: 2, page: 3, key: KeySpec{Sep: '|', HasSep: true, Prefix: 300}, name: "ix"}.encode()
	spec := func(b ...byte) []byte { return append(append([]byte(nil), enc[:catalogRowHeader]...), b...) }
	bad := map[string][]byte{
		"hasSep 2":          spec(2, '|', 0, 0, 0, 0, 0, 0, 0, 0),
		"prefix and suffix": spec(0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
		"kind 0":            append([]byte{0}, enc[1:]...),
		"kind 4":            append([]byte{4}, enc[1:]...),
	}
	for n := 0; n < catalogRowHeader+keySpecSize; n++ { // every cut before the name
		bad[fmt.Sprintf("cut at %d", n)] = enc[:n]
	}
	for name, b := range bad {
		if r, err := decodeCatalogRow(b); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, b, r)
		}
	}
}

// TestKeySpecKey evaluates KeySpec on the edges of its definition.
func TestKeySpecKey(t *testing.T) {
	for _, c := range []struct {
		key   KeySpec
		value string
		want  string
	}{
		{KeySpec{}, "", ""},
		{KeySpec{}, "abc|def", "abc|def"},
		{KeySpec{Prefix: 4}, "", ""},
		{KeySpec{Prefix: 4}, "ab", "ab"},
		{KeySpec{Prefix: 4}, "abcdef", "abcd"},
		{KeySpec{Suffix: 4}, "", ""},
		{KeySpec{Suffix: 4}, "ab", "ab"},
		{KeySpec{Suffix: 4}, "abcdef", "cdef"},
		{KeySpec{Sep: '|', HasSep: true}, "", ""},
		{KeySpec{Sep: '|', HasSep: true}, "abc", "abc"},
		{KeySpec{Sep: '|', HasSep: true}, "|abc", ""},
		{KeySpec{Sep: '|', HasSep: true}, "ab|c|d", "ab"},
		{KeySpec{Sep: 0, HasSep: true}, "ab\x00cd", "ab"},
		{KeySpec{Sep: 0}, "ab\x00cd", "ab\x00cd"},
		{KeySpec{Sep: '|', HasSep: true, Prefix: 2}, "abcd|e", "ab"},
		{KeySpec{Sep: '|', HasSep: true, Suffix: 2}, "abcd|e", "cd"},
		{KeySpec{Sep: '|', HasSep: true, Suffix: 9}, "abcd|e", "abcd"},
	} {
		got := c.key.Key([]byte(c.value))
		if string(got) != c.want {
			t.Errorf("%+v.Key(%q) = %q, want %q", c.key, c.value, got, c.want)
		}
	}
	for _, key := range []KeySpec{{Prefix: -1}, {Suffix: -1}, {Prefix: 1, Suffix: 1}} {
		d := Open(Options{})
		tbl, err := d.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("ix", key); err == nil {
			t.Errorf("CreateIndex accepted %+v", key)
		}
	}
}

// hasIndex reports whether table's index name exists in d: a scan of an
// index that does not exist fails with "no secondary index".
func hasIndex(t *testing.T, d *DB, table, name string) bool {
	t.Helper()
	tbl, err := d.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	defer func() { _ = tx.Rollback() }()
	err = tbl.ScanIndex(tx, name, func([]byte, Row) (bool, error) { return false, nil })
	if err != nil && !strings.Contains(err.Error(), "no secondary index") {
		t.Fatal(err)
	}
	return err == nil
}

// restartAndVerify restarts d, offline or online, waits out any background
// recovery, and runs the whole-engine consistency check.
func restartAndVerify(d *DB, online bool) error {
	d.SetOnlineRestart(online)
	if _, err := d.Restart(); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	if _, err := d.AwaitRecovered(); err != nil {
		return fmt.Errorf("await recovered: %w", err)
	}
	if err := d.VerifyConsistency(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	return nil
}

// TestCrashInsideCreateIndexBackfill crashes the engine while the backfill
// of a 50-row table waits for the 20th row, which another transaction holds
// X-locked, with the index's first 19 entries on the stable log. Restart
// must undo the loser DDL — which needs the index it created registered
// before undo — and leave the table whole and the index absent, offline
// and online.
func TestCrashInsideCreateIndexBackfill(t *testing.T) {
	for _, online := range []bool{false, true} {
		t.Run(fmt.Sprintf("online=%v", online), func(t *testing.T) {
			d := Open(Options{PageSize: 512})
			tbl, err := d.CreateTable("t")
			if err != nil {
				t.Fatal(err)
			}
			tx := d.MustBegin()
			for i := 0; i < 50; i++ {
				if err := tbl.Insert(tx, k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			x := d.MustBegin()
			if err := tbl.Update(x, k(19), v(19)); err != nil { // X on row 20
				t.Fatal(err)
			}
			start, waits := d.Log().MaxLSN(), d.stats.LockWaits.Load()
			done := make(chan error, 1)
			go func() { done <- tbl.CreateIndex("ix", headKey) }()
			for deadline := time.Now().Add(10 * time.Second); d.stats.LockWaits.Load() == waits; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the backfill never queued behind row 20")
				}
			}
			d.Log().ForceAll()
			d.Crash()
			if err := <-done; err == nil {
				t.Fatal("CreateIndex committed across a crash")
			}
			var ddl wal.TxID
			inserts := 0
			d.Log().Scan(start+1, func(r *wal.Record) bool {
				if ddl == 0 {
					ddl = r.TxID // the DDL writes every record after start
				}
				if r.LSN <= d.Log().StableLSN() && r.TxID == ddl && r.Type == wal.RecUpdate && r.Op == wal.OpIdxInsertKey {
					inserts++
				}
				return true
			})
			if inserts != 19 {
				t.Fatalf("the DDL's stable log holds %d key inserts, want 19", inserts)
			}
			if err := restartAndVerify(d, online); err != nil {
				t.Fatal(err)
			}
			if hasIndex(t, d, "t", "ix") {
				t.Fatal("the index of a DDL that never committed survived restart")
			}
			rt, err := d.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			check := d.MustBegin()
			n := 0
			if err := rt.Scan(check, nil, nil, func(Row) (bool, error) { n++; return true, nil }); err != nil {
				t.Fatal(err)
			}
			if err := check.Commit(); err != nil {
				t.Fatal(err)
			}
			if n != 50 {
				t.Fatalf("%d rows after restart, want 50", n)
			}
		})
	}
}

// TestForkAtEveryDDLBoundary forks a CreateTable + CreateIndex at every log
// boundary from LSN 0 on and restarts each fork offline and online: the
// table and the index each exist exactly when the fork's log holds their
// DDL's commit, and the engine is consistent at every point.
func TestForkAtEveryDDLBoundary(t *testing.T) {
	d := Open(Options{PageSize: 512})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tableLSN := d.Log().MaxLSN() // the commit: CreateTable's last record
	if err := tbl.CreateIndex("ix", headKey); err != nil {
		t.Fatal(err)
	}
	indexLSN := d.Log().MaxLSN()
	d.Log().ForceAll()
	boundaries := append([]wal.LSN{wal.NilLSN}, recovery.Boundaries(d.Log(), wal.NilLSN)...)
	for _, L := range boundaries {
		for _, online := range []bool{false, true} {
			fork := d.Fork()
			fork.Log().TruncateTo(L)
			if err := restartAndVerify(fork, online); err != nil {
				t.Fatalf("LSN %d online=%v: %v", L, online, err)
			}
			_, err := fork.Table("t")
			if (err == nil) != (L >= tableLSN) {
				t.Fatalf("LSN %d online=%v: table lookup = %v, CreateTable committed at %d", L, online, err, tableLSN)
			}
			if err != nil {
				continue
			}
			if has := hasIndex(t, fork, "t", "ix"); has != (L >= indexLSN) {
				t.Fatalf("LSN %d online=%v: index exists = %v, CreateIndex committed at %d", L, online, has, indexLSN)
			}
		}
	}
}

// TestDDLBesideBackfillUnderPageLocks: under page locking a CreateTable's
// catalog insert queues behind a CreateIndex's, whose backfill queues
// behind a writer. The writer must still get through d.mu to commit, so
// CreateTable may not hold d.mu while it waits.
func TestDDLBesideBackfillUnderPageLocks(t *testing.T) {
	d := Open(Options{Granularity: lock.GranPage})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(tx, k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	w := d.MustBegin()
	if err := tbl.Update(w, k(3), []byte("value-33")); err != nil { // X on the data page
		t.Fatal(err)
	}
	awaitWaits := func(n uint64, who string) {
		for deadline := time.Now().Add(10 * time.Second); d.stats.LockWaits.Load() < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued for a lock", who)
			}
		}
	}
	done := make(chan error, 2)
	go func() { done <- tbl.CreateIndex("ix", headKey) }()
	awaitWaits(1, "the backfill") // behind w
	go func() { _, err := d.CreateTable("u"); done <- err }()
	awaitWaits(2, "CreateTable") // behind the index's catalog row
	committed := make(chan error, 1)
	go func() {
		if _, err := d.TableFor(w, "t"); err != nil {
			committed <- err
			return
		}
		committed <- w.Commit()
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the writer cannot reach d.mu: CreateTable holds it while it waits")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

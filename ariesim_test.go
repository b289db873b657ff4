package ariesim_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ariesim"
)

// TestPublicAPIRoundTrip exercises the façade end to end: the full
// transactional lifecycle plus a crash/restart cycle, exactly as a
// downstream user would drive it.
func TestPublicAPIRoundTrip(t *testing.T) {
	db := ariesim.Open(ariesim.Options{PageSize: 1024, PoolSize: 64})
	tbl, err := db.CreateTable("users")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.MustBegin()
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(tx, []byte(fmt.Sprintf("user%03d", i)), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loser := db.MustBegin()
	if err := tbl.Insert(loser, []byte("zz-ghost"), []byte("boo")); err != nil {
		t.Fatal(err)
	}
	db.Log().ForceAll()
	db.Crash()
	rep, err := db.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LosersUndone != 1 {
		t.Fatalf("losers undone = %d", rep.LosersUndone)
	}
	tbl, err = db.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	r := db.MustBegin()
	if _, err := tbl.Get(r, []byte("user025")); err != nil {
		t.Fatalf("committed row lost: %v", err)
	}
	if _, err := tbl.Get(r, []byte("zz-ghost")); !errors.Is(err, ariesim.ErrNotFound) {
		t.Fatalf("uncommitted row visible: %v", err)
	}
	count := 0
	if err := tbl.Scan(r, []byte("user000"), []byte("user049"), func(ariesim.Row) (bool, error) {
		count++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("scan saw %d rows", count)
	}
	_ = r.Commit()
	if err := db.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolsSelectable checks the façade exposes every protocol.
func TestProtocolsSelectable(t *testing.T) {
	for _, p := range []ariesim.Protocol{
		ariesim.ProtocolARIESIM, ariesim.ProtocolIndexSpecific,
		ariesim.ProtocolARIESKVL, ariesim.ProtocolSystemR,
	} {
		db := ariesim.Open(ariesim.Options{PageSize: 512, Protocol: p})
		tbl, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		tx := db.MustBegin()
		if err := tbl.Insert(tx, []byte("a"), []byte("1")); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func ExampleOpen() {
	db := ariesim.Open(ariesim.Options{})
	tbl, _ := db.CreateTable("accounts")
	tx := db.MustBegin()
	_ = tbl.Insert(tx, []byte("alice"), []byte("100"))
	_ = tx.Commit()

	db.Crash()
	_, _ = db.Restart()
	tbl, _ = db.Table("accounts")

	r := db.MustBegin()
	balance, _ := tbl.Get(r, []byte("alice"))
	_ = r.Commit()
	fmt.Println(string(balance))
	// Output: 100
}

// TestLogArchiveStandby ships a primary's log as an archive and opens a
// standby from it alone: a table the primary created after some traffic
// reaches the standby through the catalog records in the log, beside the
// first table's rows.
func TestLogArchiveStandby(t *testing.T) {
	primary := ariesim.Open(ariesim.Options{PageSize: 1024, PoolSize: 64})
	put := func(table string, keys ...string) {
		t.Helper()
		tbl, err := primary.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		tx := primary.MustBegin()
		for _, k := range keys {
			if err := tbl.Insert(tx, []byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := primary.CreateTable("first"); err != nil {
		t.Fatal(err)
	}
	put("first", "a", "b", "c")
	if _, err := primary.CreateTable("second"); err != nil {
		t.Fatal(err)
	}
	put("second", "x", "y")

	var wire bytes.Buffer
	if _, err := primary.ArchiveLog(&wire); err != nil {
		t.Fatal(err)
	}
	shipped, err := ariesim.ReadLogArchive(&wire)
	if err != nil {
		t.Fatal(err)
	}
	standby, _, err := ariesim.OpenStandby(ariesim.Options{PageSize: 1024, PoolSize: 64}, shipped)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	r := standby.MustBegin()
	defer r.Rollback()
	for table, keys := range map[string][]string{"first": {"a", "b", "c"}, "second": {"x", "y"}} {
		tbl, err := standby.Table(table)
		if err != nil {
			t.Fatalf("standby lacks %s: %v", table, err)
		}
		for _, k := range keys {
			if v, err := tbl.Get(r, []byte(k)); err != nil || string(v) != "v-"+k {
				t.Fatalf("%s[%s] = %q, %v", table, k, v, err)
			}
		}
	}
}

// TestLogArchiveStandbyIndex opens a standby from the archive of a primary
// that created a secondary index: the standby learns the index's key from
// its catalog row, so it maintains and scans the index with no help from
// the application.
func TestLogArchiveStandbyIndex(t *testing.T) {
	primary := ariesim.Open(ariesim.Options{PageSize: 1024, PoolSize: 64})
	tbl, err := primary.CreateTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_customer", ariesim.KeySpec{Sep: '|', HasSep: true}); err != nil {
		t.Fatal(err)
	}
	tx := primary.MustBegin()
	for k, v := range map[string]string{"o1": "acme|gear", "o2": "globex|cog", "o3": "acme|nut"} {
		if err := tbl.Insert(tx, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if _, err := primary.ArchiveLog(&wire); err != nil {
		t.Fatal(err)
	}
	shipped, err := ariesim.ReadLogArchive(&wire)
	if err != nil {
		t.Fatal(err)
	}
	standby, _, err := ariesim.OpenStandby(ariesim.Options{PageSize: 1024, PoolSize: 64}, shipped)
	if err != nil {
		t.Fatal(err)
	}
	st, err := standby.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	w := standby.MustBegin()
	if err := st.Insert(w, []byte("o4"), []byte("acme|bolt")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	r := standby.MustBegin()
	var got []string
	if err := st.ScanIndexRange(r, "by_customer", []byte("acme"), []byte("acme"), func(sk []byte, row ariesim.Row) (bool, error) {
		got = append(got, string(sk)+"="+string(row.Key))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := "[acme=o1 acme=o3 acme=o4]"; fmt.Sprint(got) != want {
		t.Fatalf("standby index scan %v, want %s", got, want)
	}
	if err := standby.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

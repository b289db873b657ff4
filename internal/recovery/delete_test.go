package recovery

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/data"
	"ariesim/internal/storage"
	"ariesim/internal/wal"
)

// ghostRows builds a data table of rows of several lengths, commits it and
// flushes it, so the rows' bytes are on disk and in no record a restart
// replays. It returns the table and its rows.
func (e *env) ghostRows(t *testing.T) (*data.Table, map[storage.RID][]byte) {
	t.Helper()
	tx := e.tm.Begin()
	tbl, err := e.dm.CreateTable(tx, 7)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[storage.RID][]byte{}
	for i, n := range []int{1, 9, 60, 200, 3, 120, 33, 250} {
		row := bytes.Repeat([]byte{byte('a' + i)}, n)
		row[0] = byte(i)
		rid, err := tbl.Insert(tx, row)
		if err != nil {
			t.Fatal(err)
		}
		rows[rid] = row
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return tbl, rows
}

// A delete logs only its slot, and so does the CLR that undoes it: the row's
// bytes stay in the ghost. A loser that deleted every row of a table, and
// rolled all its deletes but the first back to a savepoint before the crash,
// comes back byte-identical after offline and after online restart, whether
// the ghosted pages were stolen to disk before the crash or only the log
// holds the deletes: restart redoes the deletes and the slot-only CLRs, then
// undoes the rest.
func TestLoserDeletesRestoredWithoutRowImages(t *testing.T) {
	for _, steal := range []bool{false, true} {
		for _, online := range []bool{false, true} {
			t.Run(fmt.Sprintf("steal=%v/online=%v", steal, online), func(t *testing.T) {
				e := newEnv(t, core.Config{ID: 1})
				tbl, rows := e.ghostRows(t)
				loser := e.tm.Begin()
				var save wal.LSN
				for rid := range rows {
					if err := tbl.Delete(loser, rid, false); err != nil {
						t.Fatal(err)
					}
					if save == wal.NilLSN {
						save = loser.Savepoint()
					}
				}
				if err := loser.RollbackTo(save); err != nil {
					t.Fatal(err)
				}
				if steal {
					if err := e.pool.FlushAll(); err != nil {
						t.Fatal(err)
					}
				}
				e.log.ForceAll()
				deletes := 0
				for _, r := range recordsOf(e.log, loser.ID) {
					if r.Op == wal.OpDataDelete {
						if deletes++; len(r.Payload) != 2 {
							t.Fatalf("delete logged a %d-byte payload", len(r.Payload))
						}
					}
				}
				if deletes != len(rows) {
					t.Fatalf("%d delete records for %d rows", deletes, len(rows))
				}
				e.crash()

				if online {
					e.buildVolatile()
					e.ix = e.im.OpenIndex(e.cfg, e.root)
					o, err := StartOnline(e.log, e.pool, e.tm, e.locks, e.stats, nil, OnlineOpts{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := o.Wait(); err != nil {
						t.Fatal(err)
					}
				} else {
					e.restart()
				}
				revives := 0
				for _, r := range recordsOf(e.log, loser.ID) {
					if r.Op == wal.OpDataInsert && r.IsCLR() {
						if revives++; len(r.Payload) != 2 {
							t.Fatalf("the undo of a delete logged a %d-byte payload", len(r.Payload))
						}
					}
				}
				if revives != len(rows) {
					t.Fatalf("restart revived %d rows, want %d", revives, len(rows))
				}
				got, err := e.dm.OpenTable(tbl.ID, tbl.FirstPage).ScanAll()
				if err != nil {
					t.Fatal(err)
				}
				if !maps.EqualFunc(got, rows, bytes.Equal) {
					t.Fatalf("after restart the table holds %q, want %q", got, rows)
				}
			})
		}
	}
}

// Media recovery from an image copy taken before a delete and its rollback
// replays the delete and the slot-only CLR onto the image's page, whose
// ghost supplies the row: the rebuilt page equals the lost one byte for byte.
func TestRecoverPagesRebuildsRolledBackDelete(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tbl, rows := e.ghostRows(t)
	img := TakeImageCopy(e.disk, e.log)

	tx := e.tm.Begin()
	for rid := range rows {
		if err := tbl.Delete(tx, rid, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	e.log.ForceAll()

	pages := map[storage.PageID]bool{}
	for rid := range rows {
		pages[rid.Page] = true
	}
	want := map[storage.PageID][]byte{}
	var pids []storage.PageID
	for pid := range pages {
		want[pid] = make([]byte, e.disk.PageSize())
		if err := e.disk.Read(pid, want[pid]); err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
		e.disk.Corrupt(pid)
	}
	e.pool.Crash() // drop cached frames so reads hit the rebuilt disk
	if _, err := RecoverPages(e.disk, e.log, img, pids); err != nil {
		t.Fatal(err)
	}
	for pid, w := range want {
		got := make([]byte, e.disk.PageSize())
		if err := e.disk.Read(pid, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("page %d rebuilt from the image copy differs from the lost page", pid)
		}
	}
	e.buildVolatile()
	got, err := e.dm.OpenTable(tbl.ID, tbl.FirstPage).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.EqualFunc(got, rows, bytes.Equal) {
		t.Fatalf("after media recovery the table holds %q, want %q", got, rows)
	}
}

package db

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ariesim/internal/storage"
)

// heapPages returns the pages of tbl's heap chain, in chain order, and the
// number of live records on each.
func heapPages(t *testing.T, d *DB, tbl *Table) (pages []storage.PageID, live map[storage.PageID]int) {
	t.Helper()
	live = map[storage.PageID]int{}
	for pid := tbl.DataTable().FirstPage; pid != storage.InvalidPageID; {
		f, err := d.Pool().Fix(pid)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pid)
		pid = f.Page.Next()
		d.Pool().Unfix(f)
	}
	recs, err := tbl.DataTable().ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	for rid := range recs {
		live[rid.Page]++
	}
	return pages, live
}

// The free-space inventory dies with the crash. The first insert after the
// restart rebuilds it from the pages, so the ghosts committed deleters left
// before the crash are reused before the table grows.
func TestGhostSpaceReusedAfterCrashRestart(t *testing.T) {
	d := openSmall(t)
	tbl, _ := d.CreateTable("t")
	val := bytes.Repeat([]byte{'v'}, 40)
	insert := func(from, to int) {
		tx := d.MustBegin()
		for i := from; i < to; i++ {
			if err := tbl.Insert(tx, k(i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 200
	insert(0, rows)
	pages, live := heapPages(t, d, tbl)
	perPage := live[pages[0]]
	tailRoom := perPage - live[pages[len(pages)-1]]
	if len(pages) < 5 {
		t.Fatalf("setup: only %d heap pages", len(pages))
	}
	// Scatter committed ghosts over every page.
	tx := d.MustBegin()
	deleted := 0
	for i := 0; i < rows; i += 4 {
		if err := tbl.Delete(tx, k(i)); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	d.Crash()
	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the ghosts' space plus the tail's room: any row placed on a
	// new page instead leaves the chain longer.
	insert(rows, rows+deleted+tailRoom)
	after, _ := heapPages(t, d, tbl)
	if len(after) != len(pages) {
		t.Errorf("heap grew from %d to %d pages with ghost space left from before the crash", len(pages), len(after))
	}
	insert(rows+deleted+tailRoom, rows+deleted+tailRoom+1)
	if after, _ = heapPages(t, d, tbl); len(after) != len(pages)+1 {
		t.Errorf("heap of %d pages after one row more than fits in %d, want %d", len(after), len(pages), len(pages)+1)
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Workers insert, update, delete and roll back rows of one table. Their
// keys interleave, so next-key locks make them meet and some become
// deadlock victims. Heap and index must agree at the end, and the heap must
// hold exactly what committed.
func TestConcurrentHeapPlacementMatchesModel(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 128})
	tbl, _ := d.CreateTable("t")
	const workers, keysEach, txns = 4, 24, 150
	models := make([]map[string][]byte, workers)
	var mu sync.Mutex
	var victims int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		models[w] = map[string][]byte{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			model := models[w]
			for i := 0; i < txns; i++ {
				tx := d.MustBegin()
				pending := map[string][]byte{} // nil value = deleted
				var err error
				for j := 0; err == nil && j < 3; j++ {
					key := k(w + workers*rng.Intn(keysEach))
					val := []byte(fmt.Sprintf("w%d-%d-%s", w, i, bytes.Repeat([]byte{'x'}, rng.Intn(60))))
					cur, seen := pending[string(key)]
					if !seen {
						cur = model[string(key)]
					}
					switch {
					case cur == nil:
						err = tbl.Insert(tx, key, val)
						pending[string(key)] = val
					case rng.Intn(2) == 0:
						err = tbl.Update(tx, key, val)
						pending[string(key)] = val
					default:
						err = tbl.Delete(tx, key)
						pending[string(key)] = nil
					}
				}
				if err == nil && rng.Intn(8) == 0 {
					err = errChangeOfMind
				}
				if err == nil {
					err = tx.Commit()
				} else if rerr := tx.Rollback(); rerr != nil {
					t.Errorf("worker %d: rollback: %v", w, rerr)
				}
				switch {
				case err == nil:
					for key, val := range pending {
						if val == nil {
							delete(model, key)
						} else {
							model[key] = val
						}
					}
				case ClassifyErr(err) == ClassContention:
					mu.Lock()
					victims++
					mu.Unlock()
				case !errors.Is(err, errChangeOfMind):
					t.Errorf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d transactions were contention victims", victims)

	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	recs, err := tbl.DataTable().ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, model := range models {
		want += len(model)
	}
	if len(recs) != want {
		t.Errorf("heap holds %d rows, the models %d", len(recs), want)
	}
	for _, rec := range recs {
		key, val, err := decodeRow(rec)
		if err != nil {
			t.Fatal(err)
		}
		var w int
		if _, err := fmt.Sscanf(string(key), "k%06d", &w); err != nil {
			t.Fatal(err)
		}
		if model := models[w%workers]; !bytes.Equal(model[string(key)], val) {
			t.Errorf("row %s = %q, model %q", key, val, model[string(key)])
		}
	}
}

var errChangeOfMind = errors.New("a change of mind")

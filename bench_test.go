// Benchmarks regenerating the paper's evaluation, one per experiment row
// in DESIGN.md §3. The paper's metrics are counts (locks/op, pages
// touched, log passes) and qualitative concurrency claims; each bench
// reports the relevant count as a custom metric alongside wall-clock
// numbers, and the baseline variants make the comparisons explicit.
//
// Run:  go test -bench=. -benchmem
package ariesim_test

import (
	"errors"
	"fmt"
	"testing"

	"ariesim"
	"ariesim/internal/core"
	"ariesim/internal/db"
	"ariesim/internal/recovery"
	"ariesim/internal/storage"
	"ariesim/internal/trace"
	"ariesim/internal/workload"
)

var protocols = []struct {
	name  string
	proto core.Protocol
}{
	{"aries-im", core.DataOnly},
	{"aries-kvl", core.KVL},
	{"system-r", core.SystemR},
}

func bkey(i int) []byte { return workload.KeyFor(i) }

// primedDB builds an engine with n committed rows.
func primedDB(b *testing.B, proto core.Protocol, n int) (*db.DB, *db.Table) {
	b.Helper()
	d := db.Open(db.Options{PageSize: 4096, PoolSize: 4096, Protocol: proto})
	tbl, err := d.CreateTable("bench")
	if err != nil {
		b.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(tx, bkey(i*2), []byte("benchmark-row-payload")); err != nil {
			b.Fatal(err)
		}
		if i%1000 == 999 {
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
			tx = d.MustBegin()
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return d, tbl
}

// BenchmarkFig2LockCalls regenerates Figure 2 / the §1 lock-count
// comparison as a benchmark: single-record operations per protocol, with
// locks-per-operation reported as a metric.
func BenchmarkFig2LockCalls(b *testing.B) {
	ops := []struct {
		name  string
		setup func(b *testing.B, d *db.DB, tbl *db.Table, n int)
		run   func(d *db.DB, tbl *db.Table, i int) error
	}{
		{name: "fetch", run: func(d *db.DB, tbl *db.Table, i int) error {
			tx := d.MustBegin()
			_, err := tbl.Get(tx, bkey((i%5000)*2))
			if err != nil {
				return err
			}
			return tx.Commit()
		}},
		{name: "insert", run: func(d *db.DB, tbl *db.Table, i int) error {
			tx := d.MustBegin()
			if err := tbl.Insert(tx, bkey(20000+i), []byte("new")); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{name: "delete", setup: func(b *testing.B, d *db.DB, tbl *db.Table, n int) {
			// One pre-populated victim per iteration, so every measured
			// delete is a real delete.
			tx := d.MustBegin()
			for i := 0; i < n; i++ {
				if err := tbl.Insert(tx, bkey(10_000_000+i), []byte("victim")); err != nil {
					b.Fatal(err)
				}
				if i%2000 == 1999 {
					_ = tx.Commit()
					tx = d.MustBegin()
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}, run: func(d *db.DB, tbl *db.Table, i int) error {
			tx := d.MustBegin()
			if err := tbl.Delete(tx, bkey(10_000_000+i)); err != nil {
				return err
			}
			return tx.Commit()
		}},
	}
	for _, op := range ops {
		for _, p := range protocols {
			b.Run(op.name+"/"+p.name, func(b *testing.B) {
				d, tbl := primedDB(b, p.proto, 5000)
				if op.setup != nil {
					op.setup(b, d, tbl, b.N)
				}
				before := d.Stats().Snap()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.run(d, tbl, i); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				diff := trace.Diff(before, d.Stats().Snap())
				b.ReportMetric(float64(diff.TotalLocks())/float64(b.N), "locks/op")
				b.ReportMetric(float64(diff.LogRecords)/float64(b.N), "logrecs/op")
			})
		}
	}
}

// BenchmarkSMOInterference measures reader latency while a background
// writer continuously splits the readers' pages — §2.1's "retrievals go
// on concurrently with SMOs" versus the System R baseline.
func BenchmarkSMOInterference(b *testing.B) {
	for _, p := range []struct {
		name  string
		proto core.Protocol
	}{{"aries-im", core.DataOnly}, {"system-r", core.SystemR}} {
		b.Run(p.name, func(b *testing.B) {
			d := db.Open(db.Options{PageSize: 512, PoolSize: 2048, Protocol: p.proto})
			tbl, _ := d.CreateTable("bench")
			setup := d.MustBegin()
			for i := 0; i < 500; i++ {
				if err := tbl.Insert(setup, bkey(i*40), []byte("seed")); err != nil {
					b.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				i := 0
				tx := d.MustBegin()
				for {
					select {
					case <-stop:
						_ = tx.Rollback()
						return
					default:
					}
					k := append(bkey((i*13)%20000), 'w', byte('0'+i%10), byte('0'+(i/10)%10), byte('0'+(i/100)%10))
					if err := tbl.Insert(tx, k, []byte("fodder")); err != nil {
						_ = tx.Rollback()
						tx = d.MustBegin()
						continue
					}
					i++
					if i%50 == 0 {
						_ = tx.Commit()
						tx = d.MustBegin()
					}
				}
			}()
			g := workload.New(workload.Spec{Keys: 20000, ReadFrac: 1, Seed: 7})
			b.ResetTimer()
			deadlocks := 0
			for i := 0; i < b.N; i++ {
				tx := d.MustBegin()
				_, err := tbl.Get(tx, g.Next().Key)
				if err != nil && !errors.Is(err, db.ErrNotFound) {
					// System R's commit-duration page locks can deadlock a
					// reader against the writer; the victim retries — part
					// of the baseline's cost, reported as a metric.
					if errors.Is(err, ariesim.ErrDeadlock) {
						deadlocks++
						_ = tx.Rollback()
						continue
					}
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			<-writerDone
			b.ReportMetric(float64(d.Stats().PageSplits.Load()), "splits-total")
			b.ReportMetric(float64(deadlocks), "reader-deadlocks")
		})
	}
}

// BenchmarkFig1Undo times transaction rollback in the two undo regimes of
// Figure 1 / §3: page-oriented (the original page still fits the undo)
// versus logical (an intervening space-consuming commit plus a split force
// the undo to retraverse from the root). The logical case uses the §3
// "reason 1" shape — T1 deletes a key, T2 consumes the freed space (after
// the Delete_Bit POSC) and splits the leaf, then T1 rolls back.
func BenchmarkFig1Undo(b *testing.B) {
	smallDB := func(b *testing.B) (*db.DB, *db.Table) {
		b.Helper()
		d := db.Open(db.Options{PageSize: 512, PoolSize: 4096})
		tbl, err := d.CreateTable("bench")
		if err != nil {
			b.Fatal(err)
		}
		tx := d.MustBegin()
		for i := 0; i < 2000; i++ {
			if err := tbl.Insert(tx, bkey(i*2), []byte("row")); err != nil {
				b.Fatal(err)
			}
			if i%500 == 499 {
				_ = tx.Commit()
				tx = d.MustBegin()
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		return d, tbl
	}
	b.Run("page-oriented", func(b *testing.B) {
		d, tbl := smallDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := 2 * ((i * 131) % 1900)
			t1 := d.MustBegin()
			if err := tbl.Delete(t1, bkey(v)); err != nil {
				b.Fatal(err)
			}
			if err := t1.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.Stats().UndoLogical.Load())/float64(b.N), "logical-undos/op")
	})
	b.Run("logical", func(b *testing.B) {
		d, tbl := smallDB(b)
		filler := func(v, j int) []byte {
			return append(bkey(v-4), []byte(fmt.Sprintf("x%02d", j))...)
		}
		const fillers = 30
		prevV := -1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// Reclaim the previous iteration's filler space (committed
			// deletes trigger page deletions), keeping the engine at a
			// steady state regardless of b.N.
			if prevV >= 0 {
				clean := d.MustBegin()
				for j := 0; j < fillers; j++ {
					if err := tbl.Delete(clean, filler(prevV, j)); err != nil {
						b.Fatal(err)
					}
				}
				if err := clean.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			v := 2 * ((i*131)%1900 + 4) // victim; anchors v-4, v-2 stay committed
			prevV = v
			t1 := d.MustBegin()
			if err := tbl.Delete(t1, bkey(v)); err != nil {
				b.Fatal(err)
			}
			// T2 consumes the leaf's space just below the victim (its
			// next-key locks land on the committed bkey(v-2), never on
			// T1's tripping point) and splits the leaf, then commits.
			t2 := d.MustBegin()
			for j := 0; j < fillers; j++ {
				if err := tbl.Insert(t2, filler(v, j), []byte("space-consumer-payload")); err != nil {
					b.Fatal(err)
				}
			}
			if err := t2.Commit(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := t1.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.Stats().UndoLogical.Load())/float64(b.N), "logical-undos/op")
	})
}

// BenchmarkRestartRecovery measures the three-pass restart over a log of
// ~4000 operations with nothing flushed (worst-case redo), reporting the
// page-oriented redo volume.
func BenchmarkRestartRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := db.Open(db.Options{PageSize: 1024, PoolSize: 4096})
		tbl, _ := d.CreateTable("bench")
		tx := d.MustBegin()
		for j := 0; j < 4000; j++ {
			if err := tbl.Insert(tx, bkey(j), []byte("recover-me")); err != nil {
				b.Fatal(err)
			}
			if j%500 == 499 {
				_ = tx.Commit()
				tx = d.MustBegin()
			}
		}
		_ = tx.Rollback()
		d.Crash()
		b.StartTimer()
		rep, err := d.Restart()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == 0 {
			b.ReportMetric(float64(rep.RedosApplied), "redos")
			b.ReportMetric(float64(rep.RecordsSeen), "log-records")
		}
	}
}

// BenchmarkMediaRecovery measures rebuilding one damaged index page from a
// fuzzy image copy plus one pass of the log (§5).
func BenchmarkMediaRecovery(b *testing.B) {
	d, _ := primedDB(b, core.DataOnly, 5000)
	if err := d.Pool().FlushAll(); err != nil {
		b.Fatal(err)
	}
	img := recovery.TakeImageCopy(d.Disk(), d.Log())
	// Pick an index page to repeatedly destroy and rebuild.
	var victim storage.PageID
	buf := make([]byte, 4096)
	for _, pid := range d.Disk().PageIDs() {
		_ = d.Disk().Read(pid, buf)
		p := storage.PageFromBytes(buf)
		if p.Type() == storage.PageTypeIndex && p.IsLeaf() {
			victim = pid
			break
		}
	}
	if victim == storage.InvalidPageID {
		b.Fatal("no index leaf found")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Disk().Corrupt(victim)
		if err := recovery.RecoverPage(d.Disk(), d.Log(), img, victim); err != nil {
			b.Fatal(err)
		}
	}
}

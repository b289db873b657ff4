package db

import (
	"errors"
	"fmt"
	"testing"

	"ariesim/internal/storage"
)

func TestBeginReturnsErrCrashedWhileDown(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(tx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	d.Crash()
	if _, err := d.Begin(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Begin while down: got %v, want ErrCrashed", err)
	}
	if _, err := d.CreateTable("t2"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CreateTable while down: got %v, want ErrCrashed", err)
	}

	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	tx, err = d.Begin()
	if err != nil {
		t.Fatalf("Begin after restart: %v", err)
	}
	tbl, _ = d.Table("t")
	if _, err := tbl.Get(tx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
}

// TestReadPathSelfHealsSilentCorruption flips stored bits on a flushed
// page behind the engine's back; the next read must detect the checksum
// mismatch and rebuild the page via media recovery without the caller
// noticing anything but a counter.
func TestReadPathSelfHealsSilentCorruption(t *testing.T) {
	d := Open(Options{PageSize: 512})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(tx, []byte(fmt.Sprintf("k%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	d.Pool().Crash() // drop clean frames so reads hit the disk

	corrupted := 0
	for _, pid := range d.Disk().PageIDs() {
		if corrupted == 3 {
			break
		}
		d.Disk().CorruptBits(pid, 100, 0x7F)
		corrupted++
	}

	check := d.MustBegin()
	for i := 0; i < 100; i++ {
		if _, err := tbl.Get(check, []byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("k%03d unreadable after self-heal: %v", i, err)
		}
	}
	_ = check.Commit()
	if got := d.Stats().MediaRecoveries.Load(); got == 0 {
		t.Fatal("no media recovery ran; corruption was not detected")
	}
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadSurvivesSeededFaults runs a full transactional workload on a
// disk that fails, tears, and bit-flips writes under a deterministic
// schedule, with a pool small enough to force evictions through the
// faulty device. The engine must complete every transaction, self-heal
// every detected corruption, and end bit-exact with the fault-free model.
func TestWorkloadSurvivesSeededFaults(t *testing.T) {
	d := Open(Options{PageSize: 512, PoolSize: 8})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	inj := storage.NewFaults(storage.FaultConfig{
		Seed:           99,
		ReadErrorProb:  0.05,
		WriteErrorProb: 0.05,
		TornWriteProb:  0.10,
		BitFlipProb:    0.10,
	})
	d.Disk().SetInjector(inj)

	model := map[string]string{}
	for txi := 0; txi < 30; txi++ {
		tx := d.MustBegin()
		for op := 0; op < 5; op++ {
			k := fmt.Sprintf("k%03d", (txi*5+op*37)%150)
			v := fmt.Sprintf("v%d-%d", txi, op)
			if _, ok := model[k]; ok {
				if err := tbl.Update(tx, []byte(k), []byte(v)); err != nil {
					t.Fatalf("txn %d update %s: %v", txi, k, err)
				}
			} else {
				if err := tbl.Insert(tx, []byte(k), []byte(v)); err != nil {
					t.Fatalf("txn %d insert %s: %v", txi, k, err)
				}
			}
			model[k] = v
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("txn %d commit: %v", txi, err)
		}
	}

	// The injector stays armed: verification itself must push through the
	// faulty device (VerifyConsistency repairs what the checksums catch).
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	tx := d.MustBegin()
	err = tbl.Scan(tx, nil, nil, func(r Row) (bool, error) {
		got[string(r.Key)] = string(r.Value)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if len(got) != len(model) {
		t.Fatalf("%d rows, want %d", len(got), len(model))
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("row %q = %q, want %q", k, got[k], v)
		}
	}
	t.Logf("faults injected: %+v; retries=%d corrupt=%d recoveries=%d",
		inj.Counts(), d.Stats().IORetries.Load(), d.Stats().CorruptPages.Load(),
		d.Stats().MediaRecoveries.Load())
}

// TestTornLogTailUndoesLoser crashes with a torn log tail: the in-flight
// transaction's newest records survive only up to the tear, and restart
// must treat the truncated prefix as the whole truth — undoing the loser
// and keeping committed work intact.
func TestTornLogTailUndoesLoser(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := d.MustBegin()
	if err := tbl.Insert(tx, []byte("committed"), []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loser := d.MustBegin()
	for i := 0; i < 5; i++ {
		if err := tbl.Insert(loser, []byte(fmt.Sprintf("loser%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Crash with two unforced records surviving, the second torn: the CRC
	// sweep truncates the log mid-way through the loser's work.
	d.Log().CrashWithTornTail(2)
	d.Crash()
	if got := d.Stats().TornTailTruncations.Load(); got != 1 {
		t.Fatalf("truncations = %d, want 1", got)
	}

	if _, err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	tbl, _ = d.Table("t")
	check := d.MustBegin()
	if _, err := tbl.Get(check, []byte("committed")); err != nil {
		t.Fatalf("committed row lost: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Get(check, []byte(fmt.Sprintf("loser%d", i))); err == nil {
			t.Fatalf("loser%d survived the crash", i)
		}
	}
	_ = check.Commit()
	if err := d.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

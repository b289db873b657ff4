// Command logshipping demonstrates what strictly page-oriented redo (§3)
// enables beyond crash restart: a hot standby. The primary streams its
// write-ahead log continuously as records harden — over a deliberately
// lossy channel — while the standby runs a restart that never ends:
// append, force, replay, acknowledge, forever. When the primary crashes
// mid-traffic, Promote finishes the pending restart (undoing whatever was
// in flight) and the standby becomes the serving primary; stragglers from
// the dead primary bounce off the promotion fence.
package main

import (
	"fmt"
	"log"
	"time"

	"ariesim/internal/db"
	"ariesim/internal/repl"
	"ariesim/internal/trace"
	"ariesim/internal/txn"
)

func key(i int) []byte { return []byte(fmt.Sprintf("event%05d", i)) }

func main() {
	primary := db.Open(db.Options{PageSize: 1024, Stats: &trace.Stats{}})
	if _, err := primary.CreateTable("events"); err != nil {
		log.Fatal(err)
	}

	// The wire: drops, duplicates, reordering, corruption — the protocol
	// (CRC frames, a retransmit from the acked watermark) absorbs all of it.
	ch := repl.NewChannel(repl.ChannelFaults{
		Seed: 42, DropProb: 0.10, DupProb: 0.05, ReorderProb: 0.05, CorruptProb: 0.03,
	})
	standbyStats := &trace.Stats{}
	standby := repl.NewStandby(ch, db.Options{PageSize: 1024, RedoWorkers: 2, Stats: standbyStats})
	standby.Start()
	shipper := repl.NewShipper(primary.Log(), ch, primary.Stats())
	shipper.Start()

	// Semi-synchronous commit: RunTxn does not return until the standby
	// has appended, forced, and replayed the commit record.
	primary.SetCommitGate(shipper.Gate(5 * time.Second))

	// Live traffic: every one of these commits crosses the lossy wire and
	// comes back acknowledged before the next batch starts.
	for lo := 0; lo < 400; lo += 50 {
		lo := lo
		if err := primary.RunTxn(func(tx *txn.Tx) error {
			events, err := primary.TableFor(tx, "events")
			if err != nil {
				return err
			}
			for i := lo; i < lo+50; i++ {
				if err := events.Insert(tx, key(i), []byte("payload")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := primary.RunTxn(func(tx *txn.Tx) error {
		events, err := primary.TableFor(tx, "events")
		if err != nil {
			return err
		}
		for i := 100; i < 150; i++ {
			if err := events.Delete(tx, key(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// An in-flight transaction at crash time: its insert record ships (the
	// log force hardens it) but its commit never happens, so it must NOT
	// survive promotion.
	inflight := primary.MustBegin()
	etbl, err := primary.TableFor(inflight, "events")
	if err != nil {
		log.Fatal(err)
	}
	if err := etbl.Insert(inflight, []byte("zz-uncommitted"), []byte("ghost")); err != nil {
		log.Fatal(err)
	}
	primary.Log().ForceAll()
	if err := shipper.WaitAcked(primary.Log().StableLSN(), 5*time.Second); err != nil {
		log.Fatal(err)
	}
	cnt := primary.Stats().Snap()
	fmt.Printf("primary streamed %d segments (%d resent over %d channel faults), standby applied %d\n",
		cnt.SegmentsShipped, cnt.SegmentsResent,
		ch.Counts().Dropped+ch.Counts().Corrupted+ch.Counts().Reordered,
		standbyStats.SegmentsApplied.Load())

	// The primary dies; the standby finishes its perpetual restart and
	// takes over. Undo of the in-flight transaction happens here.
	primary.Crash()
	promoted, report, err := standby.Promote()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby promoted: %d records analyzed, %d redone, %d in-flight rolled back\n",
		report.RecordsSeen, report.RedosApplied, report.LosersUndone)

	// A zombie gasp from the dead primary's shipper: the promoted node has
	// fenced its receive loop, so the frame is rejected, not applied.
	rejBefore := standbyStats.SegmentsRejected.Load()
	for deadline := time.Now().Add(2 * time.Second); standbyStats.SegmentsRejected.Load() == rejBefore; {
		if time.Now().After(deadline) {
			log.Fatal("zombie segment was never fenced")
		}
		shipper.ShipNow()
		time.Sleep(time.Millisecond)
	}
	fmt.Println("zombie segment from the dead primary fenced by promotion")

	count := 0
	if err := promoted.RunTxn(func(r *txn.Tx) error {
		events, err := promoted.TableFor(r, "events")
		if err != nil {
			return err
		}
		count = 0
		if err := events.Scan(r, key(0), nil, func(db.Row) (bool, error) {
			count++
			return true, nil
		}); err != nil {
			return err
		}
		if _, err := events.Get(r, []byte("zz-uncommitted")); err == nil {
			return fmt.Errorf("uncommitted primary work visible after promotion")
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted node holds %d rows (expected 350); uncommitted work absent ✓\n", count)

	// The promoted node is immediately a serving primary.
	if err := promoted.RunTxn(func(w *txn.Tx) error {
		events, err := promoted.TableFor(w, "events")
		if err != nil {
			return err
		}
		return events.Insert(w, []byte("written-after-failover"), []byte("promoted"))
	}); err != nil {
		log.Fatal(err)
	}
	if err := promoted.VerifyConsistency(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("failover complete: promoted node serving and verified")

	shipper.Stop()
	ch.Close()
	standby.Wait()
}

// Command orders demonstrates range scans, a secondary index, and
// ARIES/IM's phantom protection: a repeatable-read range scan blocks a
// concurrent insert into the scanned gap (via next-key locking) until the
// scanner commits — the paper's §2.2/§2.4 behavior, observed live.
package main

import (
	"fmt"
	"log"
	"time"

	"ariesim"
)

func orderKey(id int) []byte { return []byte(fmt.Sprintf("order%05d", id)) }

// row value: "<customer>|<item>"
func orderVal(customer, item string) []byte { return []byte(customer + "|" + item) }

func main() {
	db := ariesim.Open(ariesim.Options{})
	orders, err := db.CreateTable("orders")
	if err != nil {
		log.Fatal(err)
	}
	// The index key is the customer: the value up to its '|'.
	if err := orders.CreateIndex("by_customer", ariesim.KeySpec{Sep: '|', HasSep: true}); err != nil {
		log.Fatal(err)
	}

	customers := []string{"acme", "globex", "initech"}
	items := []string{"widget", "sprocket", "gear", "flange"}
	if err := db.RunTxn(func(seed *ariesim.Tx) error {
		for i := 0; i < 80; i += 2 { // even order ids only; odd ids arrive later
			c, it := customers[i%len(customers)], items[i%len(items)]
			if err := orders.Insert(seed, orderKey(i), orderVal(c, it)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// Primary range scan.
	tx, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("orders 10..14 by id:")
	_ = orders.Scan(tx, orderKey(10), orderKey(14), func(r ariesim.Row) (bool, error) {
		fmt.Printf("  %s -> %s\n", r.Key, r.Value)
		return true, nil
	})

	// Secondary scan: all of globex's orders, in one index range.
	fmt.Println("globex's orders via secondary index:")
	n := 0
	_ = orders.ScanIndexRange(tx, "by_customer", []byte("globex"), []byte("globex"),
		func(sk []byte, r ariesim.Row) (bool, error) {
			n++
			if n <= 3 {
				fmt.Printf("  %s -> %s\n", r.Key, r.Value)
			}
			return true, nil
		})
	fmt.Printf("  ... %d globex orders total\n", n)
	_ = tx.Commit()

	// Phantom protection, live: a scanner counts orders 20..29; a writer
	// tries to insert order 25 mid-scan and is held until the scanner
	// commits. Both sides need raw handles — the point is observing the
	// block, so the writer must NOT sit inside a retry loop.
	scanner, err := db.Begin()
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	_ = orders.Scan(scanner, orderKey(20), orderKey(29), func(ariesim.Row) (bool, error) {
		count++
		return true, nil
	})
	fmt.Printf("\nscanner counted %d orders in [20,29] (odd ids, like 25, do not exist yet)\n", count)

	writerDone := make(chan error, 1)
	start := time.Now()
	go func() {
		w, err := db.Begin()
		if err != nil {
			writerDone <- err
			return
		}
		if err := orders.Insert(w, orderKey(25), orderVal("acme", "phantom")); err != nil {
			writerDone <- err
			return
		}
		writerDone <- w.Commit()
	}()

	select {
	case <-writerDone:
		log.Fatal("phantom insert was NOT blocked — repeatable read violated")
	case <-time.After(100 * time.Millisecond):
		fmt.Println("writer inserting order 25 is blocked by the scanner's next-key lock ✓")
	}

	// Re-scan: repeatable read — same count.
	recount := 0
	_ = orders.Scan(scanner, orderKey(20), orderKey(29), func(ariesim.Row) (bool, error) {
		recount++
		return true, nil
	})
	fmt.Printf("scanner re-counted %d (repeatable) and commits\n", recount)
	if err := scanner.Commit(); err != nil {
		log.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("writer completed after %v (released by the scanner's commit)\n",
		time.Since(start).Round(time.Millisecond))

	total := 0
	if err := db.RunTxn(func(final *ariesim.Tx) error {
		total = 0
		return orders.Scan(final, orderKey(20), orderKey(29), func(ariesim.Row) (bool, error) {
			total++
			return true, nil
		})
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a later transaction sees %d orders in [20,29] (the phantom is now real)\n", total)

	if err := db.VerifyConsistency(); err != nil {
		log.Fatal(err)
	}
}

package wal

import (
	"sync"
	"testing"
	"time"
)

// The stable-notify doorbell is the shipper's wakeup: it must ring exactly
// when a force advances the stable watermark, outside the log latch
// (re-entering the log from the callback must not deadlock), and the mark
// the ringer reads must cover what that force hardened.
func TestStableNotify(t *testing.T) {
	l := NewLog(nil)
	var seen []LSN
	l.SetStableNotify(func() { seen = append(seen, l.StableLSN()) })

	a := l.Append(upd(1, 0, 1, "a"))
	b := l.Append(upd(1, a, 1, "b"))
	l.Force(a)
	l.Force(a) // no advance: no ring
	l.Force(b)
	c := l.Append(upd(2, 0, 2, "c"))
	l.Force(c)
	l.ForceAll() // already stable: no ring
	scratch := l.Append(upd(2, c, 2, "volatile"))
	l.ForceAll()

	want := []LSN{a, b, c, scratch}
	if len(seen) != len(want) {
		t.Fatalf("rang at %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("rang at %v, want %v", seen, want)
		}
	}
}

// TestStableNotifyRingsOnAdvanceOnly: concurrent group-committed forces
// leave no advance unrung (the last ring reads the final stable mark), a
// crash does not ring, and a Clone does not inherit the doorbell.
func TestStableNotifyRingsOnAdvanceOnly(t *testing.T) {
	l := NewLog(nil)
	// A costed device makes forcers park behind one another's flushes, so
	// many of them return hardened by someone else's flush.
	l.SetForceDelay(50 * time.Microsecond)
	var mu sync.Mutex
	rings := 0
	var last LSN
	l.SetStableNotify(func() {
		s := l.StableLSN()
		mu.Lock()
		rings++
		last = max(last, s)
		mu.Unlock()
	})
	count := func() (int, LSN) {
		mu.Lock()
		defer mu.Unlock()
		return rings, last
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Force(l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert, Payload: []byte("n")}))
			}
		}(w)
	}
	wg.Wait()
	n, high := count()
	if n == 0 || high != l.StableLSN() {
		t.Fatalf("%d rings, highest mark read %d, stable %d", n, high, l.StableLSN())
	}

	l.Append(upd(9, 0, 1, "lost"))
	l.Crash()
	if m, _ := count(); m != n {
		t.Fatalf("a crash rang the doorbell (%d rings, was %d)", m, n)
	}

	c := l.Clone(nil)
	c.Force(c.Append(upd(9, 0, 1, "clone")))
	if m, _ := count(); m != n {
		t.Fatalf("a force on a clone rang the original's doorbell (%d rings, was %d)", m, n)
	}

	l.Force(l.Append(upd(9, 0, 1, "after")))
	if m, high := count(); m != n+1 || high != l.StableLSN() {
		t.Fatalf("after the crash: %d rings at mark %d, want %d at %d", m, high, n+1, l.StableLSN())
	}
}

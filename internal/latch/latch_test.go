package latch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/trace"
)

func TestSharedHoldersCoexist(t *testing.T) {
	l := New(nil)
	l.Acquire(S)
	if !l.TryAcquire(S) {
		t.Fatal("second S hold denied")
	}
	l.Release(S)
	l.Release(S)
}

func TestExclusiveExcludes(t *testing.T) {
	l := New(nil)
	l.Acquire(X)
	if l.TryAcquire(S) {
		t.Fatal("S granted under X")
	}
	if l.TryAcquire(X) {
		t.Fatal("X granted under X")
	}
	l.Release(X)
	if !l.TryAcquire(X) {
		t.Fatal("X denied after release")
	}
	l.Release(X)
}

func TestTryUnderSharedDeniesX(t *testing.T) {
	l := New(nil)
	l.Acquire(S)
	if l.TryAcquire(X) {
		t.Fatal("X granted under S")
	}
	l.Release(S)
}

func TestBlockingHandoff(t *testing.T) {
	l := New(nil)
	l.Acquire(X)
	got := make(chan struct{})
	go func() {
		l.Acquire(S)
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("S granted while X held")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release(X)
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("S never granted after X release")
	}
	l.Release(S)
}

func TestWriterPreference(t *testing.T) {
	l := New(nil)
	l.Acquire(S)
	xGot := make(chan struct{})
	go func() {
		l.Acquire(X)
		close(xGot)
	}()
	// Wait for the writer to queue.
	for {
		l.mu.Lock()
		q := l.wWait
		l.mu.Unlock()
		if q == 1 {
			break
		}
		runtime.Gosched()
	}
	// A new reader must now be refused (writer preference).
	if l.TryAcquire(S) {
		t.Fatal("reader admitted past a queued writer")
	}
	l.Release(S)
	select {
	case <-xGot:
	case <-time.After(time.Second):
		t.Fatal("queued writer never granted")
	}
	l.Release(X)
}

func TestAcquireInstantWaitsForSMO(t *testing.T) {
	l := NewTree(nil)
	l.Acquire(X) // SMO in progress
	done := make(chan struct{})
	go func() {
		l.AcquireInstant(S) // traverser waiting for SMO completion
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("instant latch granted during SMO")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release(X)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("instant latch never granted")
	}
	// After the instant acquisition nothing is held.
	if !l.TryAcquire(X) {
		t.Fatal("latch still held after instant acquisition")
	}
	l.Release(X)
}

func TestReleaseWithoutHoldPanics(t *testing.T) {
	for _, m := range []Mode{S, X} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("release(%v) without hold did not panic", m)
				}
			}()
			New(nil).Release(m)
		}()
	}
}

func TestStatsCounting(t *testing.T) {
	st := &trace.Stats{}
	l := New(st)
	l.Acquire(S)
	l.Release(S)
	if l.TryAcquire(X) {
		l.Release(X)
	}
	l.Acquire(X)
	if l.TryAcquire(S) {
		t.Fatal("S under X")
	}
	l.Release(X)
	if got := st.LatchAcquires.Load(); got != 3 {
		t.Errorf("LatchAcquires = %d, want 3", got)
	}
	if got := st.LatchTryFailures.Load(); got != 1 {
		t.Errorf("LatchTryFailures = %d, want 1", got)
	}
	tl := NewTree(st)
	tl.Acquire(X)
	tl.Release(X)
	if got := st.TreeLatchAcquires.Load(); got != 1 {
		t.Errorf("TreeLatchAcquires = %d, want 1", got)
	}
}

func TestModeString(t *testing.T) {
	if S.String() != "S" || X.String() != "X" {
		t.Fatal("mode strings wrong")
	}
}

// TestStressMutualExclusion hammers the latch from many goroutines and
// verifies the S/X invariant (readers xor one writer) with a shared counter.
func TestStressMutualExclusion(t *testing.T) {
	l := New(&trace.Stats{})
	var inX atomic.Int32
	var inS atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if (g+i)%4 == 0 {
					l.Acquire(X)
					if inX.Add(1) != 1 || inS.Load() != 0 {
						violations.Add(1)
					}
					inX.Add(-1)
					l.Release(X)
				} else {
					l.Acquire(S)
					inS.Add(1)
					if inX.Load() != 0 {
						violations.Add(1)
					}
					inS.Add(-1)
					l.Release(S)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

// TestLatchCouplingOrderNoDeadlock simulates the paper's §4 protocol:
// goroutines always latch parent before child, so no deadlock occurs.
func TestLatchCouplingOrderNoDeadlock(t *testing.T) {
	chain := []*Latch{New(nil), New(nil), New(nil), New(nil)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				mode := S
				if g%2 == 0 {
					mode = X
				}
				// Latch-couple down the chain.
				chain[0].Acquire(mode)
				for d := 1; d < len(chain); d++ {
					chain[d].Acquire(mode)
					chain[d-1].Release(mode)
				}
				chain[len(chain)-1].Release(mode)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("latch coupling deadlocked")
	}
}

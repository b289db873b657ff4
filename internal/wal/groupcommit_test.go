package wal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ariesim/internal/trace"
)

// Group-commit and force-atomicity tests: the costed log device (a nonzero
// force delay) opens the windows these tests aim at — an in-flight flush
// that concurrent forces must coalesce into, and a sleep during which
// appends and crashes can race the force.

// awaitFlushing returns once a flush is in flight on l's device, so a test
// can land a crash inside the flush instead of sleeping toward it. want is
// the LSN that flush hardens: seeing it stable first means the window was
// missed, which fails the test rather than hanging it.
func awaitFlushing(t *testing.T, l *Log, want LSN) {
	t.Helper()
	for {
		l.mu.Lock()
		flushing, stable := l.flushing, l.stable
		l.mu.Unlock()
		if flushing {
			return
		}
		if stable >= want {
			t.Fatalf("flush to LSN %d completed before it was seen in flight", want)
		}
		runtime.Gosched()
	}
}

func appendN(l *Log, n int) []LSN {
	lsns := make([]LSN, n)
	for i := range lsns {
		lsns[i] = l.Append(&Record{Type: RecUpdate, TxID: TxID(i + 1), Op: OpDataInsert, Payload: []byte("gc")})
	}
	return lsns
}

// TestGroupCommitCoalesces: N concurrent forces against a slow device
// complete with far fewer physical flushes than callers, and the trace
// counters prove the batching.
func TestGroupCommitCoalesces(t *testing.T) {
	stats := &trace.Stats{}
	l := NewLog(stats)
	// Long enough for all 16 callers to arrive while the first flush is in
	// flight: one that arrives after it finds its LSN stable and is neither
	// a force nor a grouped commit, which the accounting below cannot tell
	// from a lost caller (at 2 ms a loaded box did that).
	l.SetForceDelay(20 * time.Millisecond)
	lsns := appendN(l, 16)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn LSN) {
			defer wg.Done()
			<-start
			l.Force(lsn)
		}(lsn)
	}
	close(start)
	wg.Wait()

	if got := l.StableLSN(); got < lsns[len(lsns)-1] {
		t.Fatalf("stable %d after forcing all, want >= %d", got, lsns[len(lsns)-1])
	}
	forces := stats.LogForces.Load()
	grouped := stats.GroupCommits.Load()
	if forces >= 16 {
		t.Errorf("LogForces = %d, want < 16 (coalescing)", forces)
	}
	if forces+grouped < 16-uint64(forces) {
		t.Errorf("forces %d + grouped %d cannot account for 16 callers", forces, grouped)
	}
	if grouped == 0 {
		t.Error("GroupCommits = 0, want > 0: no caller rode a shared flush")
	}
	if stats.ForceWaiters.Load() == 0 {
		t.Error("ForceWaiters = 0, want > 0: nobody parked behind the in-flight flush")
	}
}

// TestGroupCommitSatisfiesParkedCaller: a caller arriving while a flush
// covering its LSN is in flight returns without its own flush.
func TestGroupCommitSatisfiesParkedCaller(t *testing.T) {
	stats := &trace.Stats{}
	l := NewLog(stats)
	l.SetForceDelay(5 * time.Millisecond)
	lsns := appendN(l, 2)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader forces the max LSN
		defer wg.Done()
		l.Force(lsns[1])
	}()
	awaitFlushing(t, l, lsns[1]) // the leader's flush is in flight
	l.Force(lsns[0])             // smaller LSN: covered by the in-flight want
	wg.Wait()

	if got := l.StableLSN(); got != lsns[1] {
		t.Fatalf("stable = %d, want %d", got, lsns[1])
	}
	if forces := stats.LogForces.Load(); forces > 2 {
		t.Errorf("LogForces = %d, want <= 2", forces)
	}
}

// TestForceAllCoversPriorAppends is the regression test for the ForceAll
// race: the last-LSN snapshot and the force now happen under one lock
// acquisition, so every record appended before the call is hardened —
// even while an appender keeps the log moving.
func TestForceAllCoversPriorAppends(t *testing.T) {
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		l := NewLog(nil)
		l.SetForceDelay(delay)
		var last atomic.Uint64 // LSN of the most recently appended record
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lsn := l.Append(&Record{Type: RecUpdate, TxID: 1, Op: OpDataInsert, Payload: []byte("x")})
				last.Store(uint64(lsn))
			}
		}()
		rounds := 50
		if delay > 0 {
			rounds = 10
		}
		for i := 0; i < rounds; i++ {
			appended := LSN(last.Load()) // happened-before the ForceAll below
			l.ForceAll()
			if stable := l.StableLSN(); stable < appended {
				t.Fatalf("delay %v: ForceAll left LSN %d volatile (stable %d)", delay, appended, stable)
			}
		}
		close(stop)
		wg.Wait()
	}
}

// TestStatsNeverLagLogState is the regression test for the torn-counter
// race: LogRecords/LogBytes/LogForces are folded under the log mutex, so
// an observer that reads the log state first can never see the counters
// behind it.
func TestStatsNeverLagLogState(t *testing.T) {
	stats := &trace.Stats{}
	l := NewLog(stats)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lsn := l.Append(&Record{Type: RecUpdate, TxID: TxID(w + 1), Op: OpDataInsert, Payload: []byte("y")})
				l.Force(lsn)
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		// Read log state BEFORE counters: anything visible in the state
		// must already be accounted for.
		n := uint64(l.NumRecords())
		if c := stats.LogRecords.Load(); c < n {
			t.Fatalf("LogRecords %d < visible records %d", c, n)
		}
		b := l.Bytes()
		if lb := stats.LogBytes.Load(); lb < b {
			t.Fatalf("LogBytes %d < visible bytes %d", lb, b)
		}
		if l.StableLSN() != NilLSN && stats.LogForces.Load() == 0 {
			t.Fatal("stable LSN advanced with LogForces still 0")
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrashFencesInflightFlush: a crash landing while a flush sleeps must
// not let the flush resurrect the discarded tail when it wakes.
func TestCrashFencesInflightFlush(t *testing.T) {
	l := NewLog(nil)
	l.SetForceDelay(0)
	lsns := appendN(l, 3)
	l.Force(lsns[0]) // stable prefix: record 0
	l.SetForceDelay(20 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Force(lsns[2]) // flush takes flight for the full log
	}()
	awaitFlushing(t, l, lsns[2])
	l.Crash() // discards records 1..2 and bumps the flush generation
	<-done    // the fenced force must unwind, not hang

	if got := l.StableLSN(); got != lsns[0] {
		t.Fatalf("stable = %d after crash, want %d (in-flight flush must die with its epoch)", got, lsns[0])
	}
	if got := l.MaxLSN(); got != lsns[0] {
		t.Fatalf("max = %d after crash, want %d", got, lsns[0])
	}
}

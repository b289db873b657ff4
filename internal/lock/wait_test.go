package lock

import (
	"errors"
	"testing"
	"time"

	"ariesim/internal/trace"
)

// queueBehind has owner 1 hold rec(1,1) X and owner 2, which holds rec(2,2),
// queue for rec(1,1) X by hand. The caller drives owner 2's wait with await.
func queueBehind(t *testing.T, m *Manager) *request {
	t.Helper()
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 2, rec(2, 2), X, Commit)
	return queueByHand(m, 2, rec(1, 1), X)
}

func wantParks(t *testing.T, st *trace.Stats, want uint64) {
	t.Helper()
	if got := st.LockWaitsParked.Load(); got != want {
		t.Fatalf("LockWaitsParked = %d, want %d", got, want)
	}
}

// TestResolvedBeforeAwaitTakesNoPark: a resolution already in the request's
// channel when the wait starts — a grant, or Shutdown's abort — is taken by
// the first poll; the waiter never parks.
func TestResolvedBeforeAwaitTakesNoPark(t *testing.T) {
	cases := []struct {
		name    string
		resolve func(m *Manager)
		want    error
	}{
		{"grant", func(m *Manager) { m.ReleaseAll(1) }, nil},
		{"shutdown", (*Manager).Shutdown, ErrShutdown},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := &trace.Stats{}
			m := NewManager(st)
			req := queueBehind(t, m)
			c.resolve(m)
			if err := m.await(req, time.Now()); !errors.Is(err, c.want) {
				t.Fatalf("await = %v, want %v", err, c.want)
			}
			wantParks(t, st, 0)
			if c.want == nil && !m.HoldsAtLeast(2, rec(1, 1), X) {
				t.Fatal("owner 2 not recorded as holder")
			}
		})
	}
}

// TestTimeoutCountsFromEnqueue: a bounded wait that outlives the spin parks
// once and times out at its bound counted from enqueue — not before it, and
// not a bound after the spin ended.
func TestTimeoutCountsFromEnqueue(t *testing.T) {
	st := &trace.Stats{}
	m := NewManager(st)
	req := queueBehind(t, m)
	const bound = 20 * time.Millisecond
	m.SetWaitTimeout(bound)
	enqueued := time.Now()
	if err := m.await(req, enqueued); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if waited := time.Since(enqueued); waited < bound {
		t.Fatalf("timed out %v after enqueue, before its %v bound", waited, bound)
	}
	wantParks(t, st, 1)

	// A request that waited out all of its bound before await was called
	// has nothing left to wait.
	const long = 10 * time.Second
	m.SetWaitTimeout(long)
	req = queueByHand(m, 2, rec(1, 1), X)
	start := time.Now()
	if err := m.await(req, start.Add(-long)); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if d := time.Since(start); d >= long/2 {
		t.Fatalf("timed out %v after await began: the bound was counted from the park", d)
	}
	wantParks(t, st, 2)
	if st.LockTimeouts.Load() != 2 {
		t.Fatalf("LockTimeouts = %d, want 2", st.LockTimeouts.Load())
	}
	if w := time.Duration(st.LockWaitNanos.Load()); w < long+bound {
		t.Fatalf("LockWaitNanos = %v, want at least %v (enqueue to abort)", w, long+bound)
	}
	// Both timed-out requests left the queue.
	m.ReleaseAll(1)
	if err := m.Request(3, rec(1, 1), X, Commit, true); err != nil {
		t.Fatalf("stale queue entry blocks grant: %v", err)
	}
	m.ReleaseAll(2)
	m.ReleaseAll(3)
}

// TestDumpWaitersFormatsQueuedHeads: the dump lists each name with a queue —
// its granted group, then its queue in order, with owner, mode, duration and
// whether a queued request is new or a conversion — and no other name.
func TestDumpWaitersFormatsQueuedHeads(t *testing.T) {
	m := NewManager(nil)
	n := rec(1, 1)
	mustGrant(t, m, 1, n, S, Commit)
	mustGrant(t, m, 2, n, S, Manual)
	mustGrant(t, m, 4, rec(9, 9), X, Commit) // held, nobody waits for it
	if got := m.DumpWaiters(); got != "no lock has waiters\n" {
		t.Fatalf("dump with no waiter:\n%s", got)
	}
	converted, granted := make(chan error, 1), make(chan error, 1)
	go func() { converted <- m.Request(1, n, X, Commit, false) }()
	awaitQueued(t, m, n, 1)
	go func() { granted <- m.Request(3, n, S, Instant, false) }()
	awaitQueued(t, m, n, 2)
	want := "record(1,1)\n" +
		"  granted: [owner 1 S commit] [owner 2 S manual]\n" +
		"  queued: [owner 1 X commit conversion] [owner 3 S instant new]\n"
	if got := m.DumpWaiters(); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	m.ReleaseAll(2)
	if err := <-converted; err != nil {
		t.Fatal(err)
	}
	want = "record(1,1)\n  granted: [owner 1 X commit]\n  queued: [owner 3 S instant new]\n"
	if got := m.DumpWaiters(); got != want {
		t.Fatalf("dump after the conversion:\n%s\nwant:\n%s", got, want)
	}
	m.ReleaseAll(1)
	if err := <-granted; err != nil {
		t.Fatal(err)
	}
	if got := m.DumpWaiters(); got != "no lock has waiters\n" {
		t.Fatalf("dump after every grant:\n%s", got)
	}
}

package lock

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ariesim/internal/trace"
)

func rec(a, b uint64) Name { return Name{Space: SpaceRecord, A: a, B: b} }

func mustGrant(t *testing.T, m *Manager, o Owner, n Name, mode Mode, d Duration) {
	t.Helper()
	if err := m.Request(o, n, mode, d, false); err != nil {
		t.Fatalf("Request(%d, %v, %v): %v", o, n, mode, err)
	}
}

// awaitQueued returns once n requests are queued on name: the goroutines
// the test started have blocked. It polls the queue under the name's shard
// mutex — a handful of yields; the deadline turns a request that never
// queues into a failure instead of a hang.
func awaitQueued(t *testing.T, m *Manager, name Name, n int) {
	t.Helper()
	s := m.shardOf(name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		queued := 0
		if h := s.table[name]; h != nil {
			queued = len(h.queue)
		}
		s.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued on %v", queued, n, name)
		}
		runtime.Gosched()
	}
}

// awaitParked waits until n waits reported to st have parked. A parked wait
// has read the manager's wait bound, so a SetWaitTimeout after this leaves
// it its own.
func awaitParked(t *testing.T, st *trace.Stats, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); st.LockWaitsParked.Load() < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waits parked", st.LockWaitsParked.Load(), n)
		}
	}
}

// queueByHand blocks owner (which holds something) on name (which is held)
// the way Request does, but with no goroutine waiting on the request: nothing
// probes for deadlocks or times out on its behalf until a test calls await
// on it, and its resolution is otherwise read from the request's channel.
func queueByHand(m *Manager, owner Owner, name Name, mode Mode) *request {
	o := m.ownerOf(owner, false)
	req := &request{owner: o, mode: mode, name: name, granted: make(chan error, 1)}
	s := m.shardOf(name)
	s.mu.Lock()
	h := s.table[name]
	h.queue = append(h.queue, req)
	o.wait = req
	s.mu.Unlock()
	return req
}

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{S, S, true}, {S, X, false}, {X, X, false},
		{IS, IX, true}, {IX, IX, true}, {IX, S, false},
		{SIX, IS, true}, {SIX, IX, false}, {SIX, S, false},
		{IS, X, false}, {ModeNone, X, true},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Compatible(c.b, c.a); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestSupremum(t *testing.T) {
	cases := []struct{ a, b, want Mode }{
		{S, IX, SIX}, {IS, IX, IX}, {S, X, X}, {ModeNone, S, S},
		{SIX, S, SIX}, {IX, IX, IX},
	}
	for _, c := range cases {
		if got := Supremum(c.a, c.b); got != c.want {
			t.Errorf("Supremum(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSharedGrantsCoexist(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	mustGrant(t, m, 2, rec(1, 1), S, Commit)
	if m.NumLocks() != 2 {
		t.Fatalf("NumLocks = %d", m.NumLocks())
	}
}

func TestConditionalDenial(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	err := m.Request(2, rec(1, 1), S, Commit, true)
	if !errors.Is(err, ErrNotGranted) {
		t.Fatalf("want ErrNotGranted, got %v", err)
	}
	// Owner 1 re-requesting its own lock conditionally succeeds.
	if err := m.Request(1, rec(1, 1), S, Commit, true); err != nil {
		t.Fatalf("re-request: %v", err)
	}
}

func TestUnconditionalBlocksUntilRelease(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	got := make(chan error, 1)
	go func() { got <- m.Request(2, rec(1, 1), S, Commit, false) }()
	select {
	case err := <-got:
		t.Fatalf("granted during conflict: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("never granted")
	}
	if !m.HoldsAtLeast(2, rec(1, 1), S) {
		t.Fatal("owner 2 not recorded as holder")
	}
}

func TestInstantDurationLeavesNothing(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Instant)
	if m.NumLocks() != 0 {
		t.Fatalf("instant lock retained: %d", m.NumLocks())
	}
	// Instant lock must still observe grantability: conflicts block it.
	mustGrant(t, m, 1, rec(2, 2), X, Commit)
	done := make(chan error, 1)
	go func() { done <- m.Request(2, rec(2, 2), X, Instant, false) }()
	select {
	case <-done:
		t.Fatal("instant X granted over conflicting X")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.NumLocks() != 0 {
		t.Fatal("instant lock retained after blocked grant")
	}
}

func TestInstantConversionKeepsHolding(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	// Instant X over own S: conservative upgrade, still held at X after.
	mustGrant(t, m, 1, rec(1, 1), X, Instant)
	if !m.HoldsAtLeast(1, rec(1, 1), S) {
		t.Fatal("instant conversion destroyed the commit-duration holding")
	}
}

func TestConversionJumpsQueue(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	mustGrant(t, m, 2, rec(1, 1), S, Commit)
	// Owner 3 queues for X.
	o3got := make(chan error, 1)
	go func() { o3got <- m.Request(3, rec(1, 1), X, Commit, false) }()
	awaitQueued(t, m, rec(1, 1), 1)
	// Owner 2 converts S→X: must pass owner 3 in the queue, blocked only
	// by owner 1's S.
	o2got := make(chan error, 1)
	go func() { o2got <- m.Request(2, rec(1, 1), X, Commit, false) }()
	awaitQueued(t, m, rec(1, 1), 2)
	m.ReleaseAll(1)
	select {
	case err := <-o2got:
		if err != nil {
			t.Fatalf("conversion errored: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("conversion never granted")
	}
	select {
	case <-o3got:
		t.Fatal("queued X granted while converter holds X")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-o3got; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

func TestFIFOFairness(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	order := make(chan Owner, 2)
	var wg sync.WaitGroup
	enqueue := func(o Owner) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Request(o, rec(1, 1), X, Commit, false); err != nil {
				t.Errorf("owner %d: %v", o, err)
				return
			}
			order <- o
			m.ReleaseAll(o)
		}()
		awaitQueued(t, m, rec(1, 1), int(o)-1) // establish queue order
	}
	enqueue(2)
	enqueue(3)
	m.ReleaseAll(1)
	wg.Wait()
	if first := <-order; first != 2 {
		t.Fatalf("first grant to %d, want 2", first)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager(&trace.Stats{})
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 2, rec(2, 2), X, Commit)
	errCh := make(chan error, 1)
	go func() { errCh <- m.Request(1, rec(2, 2), X, Commit, false) }()
	awaitQueued(t, m, rec(2, 2), 1)
	// Owner 2 now closes the cycle: 2 waits for 1 waits for 2.
	err := m.Request(2, rec(1, 1), X, Commit, false)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// Victim aborts; owner 1 proceeds.
	m.ReleaseAll(2)
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 2, rec(2, 2), X, Commit)
	mustGrant(t, m, 3, rec(3, 3), X, Commit)
	got1, got2 := make(chan error, 1), make(chan error, 1)
	go func() { got1 <- m.Request(1, rec(2, 2), X, Commit, false) }()
	awaitQueued(t, m, rec(2, 2), 1)
	go func() { got2 <- m.Request(2, rec(3, 3), X, Commit, false) }()
	awaitQueued(t, m, rec(3, 3), 1)
	err := m.Request(3, rec(1, 1), X, Commit, false)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	// The victim's rollback lets owner 2 through, and owner 2's end owner 1:
	// an owner's locks are released by whoever drives it, once it has returned.
	m.ReleaseAll(3)
	if err := <-got2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

func TestConversionDeadlock(t *testing.T) {
	// Paper §5: concurrent upgrades can deadlock — the detector must see it.
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	mustGrant(t, m, 2, rec(1, 1), S, Commit)
	got1 := make(chan error, 1)
	go func() { got1 <- m.Request(1, rec(1, 1), X, Commit, false) }()
	awaitQueued(t, m, rec(1, 1), 1)
	err := m.Request(2, rec(1, 1), X, Commit, false)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock on conversion cycle, got %v", err)
	}
	m.ReleaseAll(2) // victim rollback unblocks the other conversion
	if err := <-got1; err != nil {
		t.Fatal(err)
	}
	if !m.HoldsAtLeast(1, rec(1, 1), X) {
		t.Fatal("survivor conversion not granted")
	}
}

func TestNoFalseDeadlock(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	mustGrant(t, m, 2, rec(1, 1), S, Commit)
	done := make(chan error, 1)
	go func() { done <- m.Request(3, rec(1, 1), X, Commit, false) }()
	awaitQueued(t, m, rec(1, 1), 1)
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("spurious failure: %v", err)
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 1, rec(2, 2), X, Commit)
	var wg sync.WaitGroup
	for o := Owner(2); o <= 5; o++ {
		wg.Add(1)
		go func(o Owner) {
			defer wg.Done()
			n := rec(uint64(o%2)+1, uint64(o%2)+1)
			if err := m.Request(o, n, S, Commit, false); err != nil {
				t.Errorf("owner %d: %v", o, err)
			}
		}(o)
	}
	awaitQueued(t, m, rec(1, 1), 2)
	awaitQueued(t, m, rec(2, 2), 2)
	m.ReleaseAll(1)
	wg.Wait()
}

func TestLocksOfAndSpaces(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, KeyValueName(9, 1), IX, Commit)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 1, Name{Space: SpaceEOF, A: 3}, S, Commit)
	locks := m.LocksOf(1)
	if len(locks) != 3 {
		t.Fatalf("LocksOf = %d entries", len(locks))
	}
	spaces := map[Space]bool{}
	for _, l := range locks {
		spaces[l.Name.Space] = true
	}
	if !spaces[SpaceKeyValue] || !spaces[SpaceRecord] || !spaces[SpaceEOF] {
		t.Fatalf("spaces missing: %v", spaces)
	}
}

func TestStatsTable(t *testing.T) {
	st := &trace.Stats{}
	m := NewManager(st)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	mustGrant(t, m, 1, rec(1, 2), X, Instant)
	sn := st.Snap()
	if got := sn.LockCalls[SpaceRecord][S][Commit]; got != 1 {
		t.Errorf("S/commit count = %d", got)
	}
	if got := sn.LockCalls[SpaceRecord][X][Instant]; got != 1 {
		t.Errorf("X/instant count = %d", got)
	}
	if sn.TotalLocks() != 2 {
		t.Errorf("total = %d", sn.TotalLocks())
	}
}

func TestManualRelease(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), S, Manual)
	if m.NumLocks() != 1 {
		t.Fatal("manual lock not held")
	}
	m.Release(1, rec(1, 1))
	if m.NumLocks() != 0 {
		t.Fatal("manual release failed")
	}
	if err := m.Request(2, rec(1, 1), X, Commit, true); err != nil {
		t.Fatalf("lock not available after manual release: %v", err)
	}
}

func TestHoldsAtLeast(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), SIX, Commit)
	if !m.HoldsAtLeast(1, rec(1, 1), S) || !m.HoldsAtLeast(1, rec(1, 1), IX) {
		t.Fatal("SIX should cover S and IX")
	}
	if m.HoldsAtLeast(1, rec(1, 1), X) {
		t.Fatal("SIX should not cover X")
	}
	if m.HoldsAtLeast(2, rec(1, 1), IS) {
		t.Fatal("non-holder reported as holder")
	}
}

// TestStressMixedWorkload hammers the manager with conflicting requests and
// verifies it neither hangs nor corrupts state. Deadlock victims retry.
func TestStressMixedWorkload(t *testing.T) {
	m := NewManager(&trace.Stats{})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(o Owner) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n1 := rec(uint64(i%5), 0)
				n2 := rec(uint64((i+1)%5), 0)
				mode := S
				if i%3 == 0 {
					mode = X
				}
				if err := m.Request(o, n1, mode, Commit, false); err != nil {
					m.ReleaseAll(o) // victim: rollback
					continue
				}
				if err := m.Request(o, n2, mode, Commit, false); err != nil {
					m.ReleaseAll(o)
					continue
				}
				m.ReleaseAll(o)
			}
		}(Owner(g + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress workload hung")
	}
	if m.NumLocks() != 0 {
		t.Fatalf("locks leaked: %d", m.NumLocks())
	}
}

// TestVictimFewestLocks: the victim of a deadlock is the owner holding the
// fewest locks — NOT blindly the requester that closed the cycle. Owner 1
// holds four locks, owner 2 holds one; when owner 1's request completes the
// cycle, owner 2 (cheapest rollback) is aborted and owner 1 survives.
func TestVictimFewestLocks(t *testing.T) {
	st := &trace.Stats{}
	m := NewManager(st)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 1, rec(10, 1), X, Commit)
	mustGrant(t, m, 1, rec(10, 2), X, Commit)
	mustGrant(t, m, 1, rec(10, 3), X, Commit)
	mustGrant(t, m, 2, rec(2, 2), X, Commit)

	// Owner 2 blocks on rec(1,1) with nothing probing on its behalf: the one
	// detector is owner 1's.
	victim := queueByHand(m, 2, rec(1, 1), X)

	// Owner 1 closes the cycle. It holds 4 locks vs owner 2's 1, so
	// owner 2 is aborted and owner 1 keeps waiting for rec(2,2).
	survivor := make(chan error, 1)
	go func() { survivor <- m.Request(1, rec(2, 2), X, Commit, false) }()

	select {
	case err := <-victim.granted:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("victim got %v, want ErrDeadlock", err)
		}
	case <-time.After(time.Second):
		t.Fatal("victim never aborted")
	}
	m.ReleaseAll(2) // victim rolls back, releasing rec(2,2)
	select {
	case err := <-survivor:
		if err != nil {
			t.Fatalf("survivor (more locks) was aborted: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("survivor never granted")
	}
	if st.DeadlockVictims.Load() != 1 || st.VictimsOther.Load() != 1 {
		t.Errorf("victims = %d (other = %d), want 1/1",
			st.DeadlockVictims.Load(), st.VictimsOther.Load())
	}
	m.ReleaseAll(1)
}

// TestVictimTieBreakYoungest: equal lock counts break the tie toward the
// youngest owner (highest ID — later transactions have done less work).
func TestVictimTieBreakYoungest(t *testing.T) {
	m := NewManager(&trace.Stats{})
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	mustGrant(t, m, 5, rec(2, 2), X, Commit)
	victim := make(chan error, 1)
	go func() { victim <- m.Request(5, rec(1, 1), X, Commit, false) }()
	awaitQueued(t, m, rec(1, 1), 1)
	// Both hold exactly one lock; owner 5 is younger and must lose even
	// though owner 1 is the requester that completes the cycle.
	survivor := make(chan error, 1)
	go func() { survivor <- m.Request(1, rec(2, 2), X, Commit, false) }()
	select {
	case err := <-victim:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("younger owner got %v, want ErrDeadlock", err)
		}
	case <-time.After(time.Second):
		t.Fatal("younger owner never aborted")
	}
	m.ReleaseAll(5)
	if err := <-survivor; err != nil {
		t.Fatalf("older owner aborted: %v", err)
	}
	m.ReleaseAll(1)
}

// TestLockWaitTimeout: a wait bounded by the manager default returns
// ErrLockTimeout, leaves no residue in the queue, and counts in stats.
func TestLockWaitTimeout(t *testing.T) {
	st := &trace.Stats{}
	m := NewManager(st)
	m.SetWaitTimeout(25 * time.Millisecond)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	start := time.Now()
	err := m.Request(2, rec(1, 1), S, Commit, false)
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("timed out after %v, before the deadline", d)
	}
	if st.LockTimeouts.Load() != 1 || st.LockWaits.Load() != 1 || st.LockWaitsParked.Load() != 1 {
		t.Errorf("LockTimeouts = %d, LockWaits = %d, LockWaitsParked = %d, want 1 each",
			st.LockTimeouts.Load(), st.LockWaits.Load(), st.LockWaitsParked.Load())
	}
	if w := time.Duration(st.LockWaitNanos.Load()); w < 25*time.Millisecond {
		t.Errorf("LockWaitNanos = %v, want at least the 25ms bound", w)
	}
	// The timed-out request must be fully dequeued: release and re-grant.
	m.ReleaseAll(1)
	if err := m.Request(3, rec(1, 1), X, Commit, true); err != nil {
		t.Fatalf("stale queue entry blocks grant: %v", err)
	}
	m.ReleaseAll(3)
}

// TestShutdownWakesWaiters: Shutdown (crash fencing) must wake every
// blocked waiter with ErrShutdown and refuse new requests.
func TestShutdownWakesWaiters(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	errs := make(chan error, 3)
	for o := Owner(2); o <= 4; o++ {
		go func(o Owner) { errs <- m.Request(o, rec(1, 1), S, Commit, false) }(o)
	}
	awaitQueued(t, m, rec(1, 1), 3)
	m.Shutdown()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrShutdown) {
				t.Fatalf("waiter got %v, want ErrShutdown", err)
			}
		case <-time.After(time.Second):
			t.Fatal("waiter not woken by shutdown")
		}
	}
	if err := m.Request(5, rec(9, 9), S, Commit, false); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown request got %v, want ErrShutdown", err)
	}
}

// TestTimeoutRemovalWakesGrantable: when a queued X request times out,
// compatible requests queued BEHIND it (blocked only by FIFO order) must be
// granted immediately — the removal path must reprocess the queue.
func TestTimeoutRemovalWakesGrantable(t *testing.T) {
	st := &trace.Stats{}
	m := NewManager(st)
	m.SetWaitTimeout(50 * time.Millisecond)
	mustGrant(t, m, 1, rec(1, 1), S, Commit)
	// Owner 2 queues X (conflicts with the held S), bounded wait; once it
	// has parked, the bound it took is set, and later waits are unbounded.
	xgot := make(chan error, 1)
	go func() { xgot <- m.Request(2, rec(1, 1), X, Commit, false) }()
	awaitParked(t, st, 1)
	m.SetWaitTimeout(0)
	// Owners 3 and 4 queue S behind the X: compatible with owner 1, but
	// FIFO keeps them waiting while the X sits ahead.
	sgot := make(chan error, 2)
	for o := Owner(3); o <= 4; o++ {
		go func(o Owner) { sgot <- m.Request(o, rec(1, 1), S, Commit, false) }(o)
	}
	select {
	case err := <-sgot:
		t.Fatalf("S granted past a queued X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := <-xgot; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("X waiter got %v, want ErrLockTimeout", err)
	}
	// The X's removal must wake both S requests without any release.
	for i := 0; i < 2; i++ {
		select {
		case err := <-sgot:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("S waiter not woken after X timed out")
		}
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	m.ReleaseAll(4)
}

func TestStringers(t *testing.T) {
	if X.String() != "X" || SIX.String() != "SIX" || Instant.String() != "instant" {
		t.Fatal("stringers broken")
	}
	if SpaceRecord.String() != "record" || SpaceEOF.String() != "eof" {
		t.Fatal("space stringers broken")
	}
	n := rec(7, 8)
	if n.String() != "record(7,8)" {
		t.Fatalf("Name.String = %q", n.String())
	}
}

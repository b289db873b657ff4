package lock

import (
	"errors"
	"testing"
	"time"
)

// Tests of the owner's own lock table: what a request for an already-held
// lock, an instant request and ReleaseAll no longer touch, and that the
// owner registry and the shards keep nothing once the owners are gone.

// kv is a key-value lock name: the space whose locks ARIES/KVL takes in
// intention modes (IX on a value, converted to SIX).
var kv = KeyValueName(9, 1)

// TestRerequestTakesNoShardMutex: a request the owner's own table can answer
// returns while every shard mutex is held by someone else.
func TestRerequestTakesNoShardMutex(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, kv, IX, Commit)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)

	m.lockAll()
	done := make(chan error, 1)
	go func() {
		for _, dur := range []Duration{Commit, Instant} {
			for _, r := range []struct {
				n    Name
				mode Mode
			}{{kv, IS}, {kv, IX}, {rec(1, 1), S}, {rec(1, 1), X}} {
				if err := m.Request(1, r.n, r.mode, dur, false); err != nil {
					done <- err
					return
				}
				if !m.HoldsAtLeast(1, r.n, r.mode) {
					done <- errors.New("HoldsAtLeast false for a held lock")
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		m.unlockAll()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		m.unlockAll()
		<-done
		t.Fatal("a re-request of a held lock waited for a shard mutex")
	}
}

// TestLockPathAllocations pins what the lock paths allocate: nothing for a
// re-request or an instant request on a free name, and for a transaction's
// worth of locks one holding per name plus the owner's record — no map, no
// head and no granted array per name in steady state.
func TestLockPathAllocations(t *testing.T) {
	m := NewManager(nil)
	mustGrant(t, m, 1, kv, IX, Commit)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	if n := testing.AllocsPerRun(100, func() {
		_ = m.Request(1, kv, IX, Commit, false)
		_ = m.Request(1, rec(1, 1), S, Commit, true)
	}); n != 0 {
		t.Errorf("re-requests of held locks: %v allocations, want 0", n)
	}
	// The owner holds another lock, as an insert does (Fig 2) when it makes
	// its instant next-key request.
	if n := testing.AllocsPerRun(100, func() {
		_ = m.Request(1, rec(2, 2), X, Instant, false)
	}); n != 0 {
		t.Errorf("instant request on a free name: %v allocations, want 0", n)
	}
	m.ReleaseAll(1)

	const k = 24
	owner := Owner(10)
	if n := testing.AllocsPerRun(100, func() {
		owner++
		for i := uint64(0); i < k; i++ {
			_ = m.Request(owner, kv, IX, Commit, false)
			_ = m.Request(owner, rec(7, i), X, Commit, false)
		}
		m.ReleaseAll(owner)
	}); n > k+2 {
		t.Errorf("%d record locks, %d requests of one key-value lock, ReleaseAll: %v allocations, want <= %d", k, k, n, k+2)
	}
	if n := m.NumLocks(); n != 0 {
		t.Fatalf("%d locks left", n)
	}
}

// TestInstantInstallsNothing: an instant lock on a name the owner does not
// hold is decided and forgotten; the conflict, queued and conversion cases
// behave as they always did.
func TestInstantInstallsNothing(t *testing.T) {
	m := NewManager(nil)
	tok := m.Token()
	mustGrant(t, m, 1, rec(1, 1), X, Instant)
	if n := m.NumLocks(); n != 0 {
		t.Fatalf("NumLocks = %d after an instant lock", n)
	}
	if m.Token() != tok {
		t.Fatal("an instant lock on a free name consumed a grant sequence")
	}
	assertEmpty(t, m)
	if err := m.Request(2, rec(1, 1), X, Commit, true); err != nil {
		t.Fatalf("conditional X after another owner's instant X: %v", err)
	}

	// Against another owner's S it is denied conditionally and waits its
	// turn unconditionally, holding later requests behind it.
	mustGrant(t, m, 2, rec(2, 2), S, Commit)
	if err := m.Request(1, rec(2, 2), X, Instant, true); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("conditional instant X over S: %v, want ErrNotGranted", err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Request(1, rec(2, 2), X, Instant, false) }()
	awaitQueued(t, m, rec(2, 2), 1)
	if err := m.Request(3, rec(2, 2), S, Commit, true); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("S past a queued instant X: %v, want ErrNotGranted", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	assertEmpty(t, m)

	// Over the owner's own S it is a conversion, and the X stays.
	mustGrant(t, m, 1, rec(3, 3), S, Commit)
	mustGrant(t, m, 1, rec(3, 3), X, Instant)
	if !m.HoldsAtLeast(1, rec(3, 3), X) {
		t.Fatal("instant conversion did not keep the upgraded holding")
	}
}

// assertEmpty fails unless the manager keeps nothing: no owner record, no
// head, and free lists within their bound.
func assertEmpty(t *testing.T, m *Manager) {
	t.Helper()
	m.lockAll()
	defer m.unlockAll()
	for i := range m.shards {
		if n := len(m.shards[i].table); n != 0 {
			t.Errorf("shard %d: %d heads left", i, n)
		}
		if n := len(m.shards[i].free); n > maxFreeHeads {
			t.Errorf("shard %d: %d free heads, bound %d", i, n, maxFreeHeads)
		}
		if n := len(m.registry[i].owners); n != 0 {
			t.Errorf("registry %d: %d owner records left", i, n)
		}
	}
}

// TestRegistryHygiene: ten thousand owners come and go by every exit — a
// grant and a release, a conditional denial, a timeout, a deadlock abort —
// and the manager is as empty afterwards as it was before.
func TestRegistryHygiene(t *testing.T) {
	m := NewManager(nil)
	const blocker = Owner(1)
	hot := rec(0, 0)
	mustGrant(t, m, blocker, hot, X, Commit)
	for o := Owner(2); o < 10002; o++ {
		switch {
		case o%200 == 0:
			// o holds one lock and its partner two, so o is the victim of the
			// cycle its second request closes.
			partner := o + 20000
			mine, theirs := rec(uint64(o), 1), rec(uint64(o), 2)
			mustGrant(t, m, o, mine, X, Commit)
			mustGrant(t, m, partner, theirs, X, Commit)
			mustGrant(t, m, partner, rec(uint64(o), 3), X, Commit)
			parked := make(chan error, 1)
			go func() { parked <- m.Request(partner, mine, X, Commit, false) }()
			awaitQueued(t, m, mine, 1)
			if err := m.Request(o, theirs, X, Commit, false); !errors.Is(err, ErrDeadlock) {
				t.Fatalf("owner %d: %v, want ErrDeadlock", o, err)
			}
			m.ReleaseAll(o)
			if err := <-parked; err != nil {
				t.Fatalf("partner of %d: %v", o, err)
			}
			m.ReleaseAll(partner)
		case o%50 == 0:
			m.SetWaitTimeout(20 * time.Microsecond)
			err := m.Request(o, hot, S, Commit, false)
			m.SetWaitTimeout(0)
			if !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("owner %d: %v, want ErrLockTimeout", o, err)
			}
		case o%3 == 0:
			if err := m.Request(o, hot, S, Commit, true); !errors.Is(err, ErrNotGranted) {
				t.Fatalf("owner %d: %v, want ErrNotGranted", o, err)
			}
		case o%3 == 1:
			mustGrant(t, m, o, rec(uint64(o), 0), X, Instant)
		default:
			for i := uint64(0); i < ownerIndexAt+6; i++ { // past the inline array and into the map
				mustGrant(t, m, o, rec(uint64(o), i), S, Commit)
			}
			m.Release(o, rec(uint64(o), 5))
			m.ReleaseSince(o, 0)
		}
	}
	m.ReleaseAll(blocker)
	assertEmpty(t, m)
}

// TestSecondDriverPanics: an owner is driven by one goroutine at a time, and
// the two ways a second one corrupts its table — releasing while the owner is
// blocked in Request, releasing one holding twice — panic instead.
func TestSecondDriverPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, holds := range []bool{true, false} {
		m := NewManager(nil) // a panic leaves a shard mutex held: one manager each
		mustGrant(t, m, 1, rec(1, 1), X, Commit)
		if holds {
			mustGrant(t, m, 2, rec(2, 2), X, Commit)
		} else {
			m.ownerOf(2, true)
		}
		queueByHand(m, 2, rec(1, 1), X)
		mustPanic("ReleaseAll of a blocked owner", func() { m.ReleaseAll(2) })
	}
	m := NewManager(nil)
	mustGrant(t, m, 1, rec(1, 1), X, Commit)
	g := m.ownerOf(1, false).held[0]
	m.release(g)
	mustPanic("a second release of one holding", func() { m.release(g) })
}

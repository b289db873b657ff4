package lock

import (
	"errors"
	"testing"
	"time"
)

// Shard-correctness tests: the properties PR 2 established for the global-
// mutex manager must survive the hash-sharded table — deadlock cycles that
// span shards are still detected and broken, savepoint lock release
// (Token/ReleaseSince) still works when an owner's locks are spread across
// shards, and Shutdown still fences waiters parked on every shard.

// namesInDistinctShards returns n record-lock names guaranteed to hash to
// n distinct shards (skipped if the manager has fewer shards than n).
func namesInDistinctShards(t *testing.T, m *Manager, n int) []Name {
	t.Helper()
	if m.NumShards() < n {
		t.Skipf("manager has %d shards, need %d", m.NumShards(), n)
	}
	seen := make(map[*shard]bool)
	var out []Name
	for a := uint64(0); len(out) < n && a < 1<<16; a++ {
		name := Name{Space: SpaceRecord, A: a, B: a % 3}
		s := m.shardOf(name)
		if !seen[s] {
			seen[s] = true
			out = append(out, name)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d names in distinct shards", n)
	}
	return out
}

func TestShardDistribution(t *testing.T) {
	m := NewManager(nil)
	if m.NumShards() != DefaultShards {
		t.Fatalf("NumShards = %d, want %d", m.NumShards(), DefaultShards)
	}
	shards := make(map[*shard]int)
	for a := uint64(0); a < 1024; a++ {
		shards[m.shardOf(Name{Space: SpaceRecord, A: a / 8, B: a % 8})]++
	}
	if len(shards) < DefaultShards/2 {
		t.Fatalf("1024 names landed on only %d/%d shards: degenerate hash", len(shards), DefaultShards)
	}
	// One-shard manager: everything degenerates to the global mutex.
	m1 := NewManagerSharded(nil, 1)
	if m1.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", m1.NumShards())
	}
}

// TestCrossShardDeadlock: a two-member cycle whose lock names live in
// different shards is detected and exactly one member aborted.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManager(nil)
	names := namesInDistinctShards(t, m, 2)
	n1, n2 := names[0], names[1]

	if err := m.Request(1, n1, X, Commit, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Request(2, n2, X, Commit, false); err != nil {
		t.Fatal(err)
	}

	// Each owner is driven by its own goroutine to its end: the victim's
	// rollback frees its holdings, which grants the survivor's request.
	errs := make(chan error, 2)
	drive := func(o Owner, n Name) {
		err := m.Request(o, n, X, Commit, false)
		m.ReleaseAll(o)
		errs <- err
	}
	go drive(1, n2)          // 1 waits for 2
	awaitQueued(t, m, n2, 1) // owner 1 has blocked
	go drive(2, n1)          // closes the cycle

	var deadlocks, grants int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				grants++
			case errors.Is(err, ErrDeadlock):
				deadlocks++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cross-shard deadlock not detected: requests still blocked")
		}
	}
	if deadlocks != 1 || grants != 1 {
		t.Fatalf("deadlocks=%d grants=%d, want exactly one victim and one survivor", deadlocks, grants)
	}
}

// TestCrossShardThreeWayDeadlock: a 3-cycle spanning three shards.
func TestCrossShardThreeWayDeadlock(t *testing.T) {
	m := NewManager(nil)
	names := namesInDistinctShards(t, m, 3)
	for i := 0; i < 3; i++ {
		if err := m.Request(Owner(i+1), names[i], X, Commit, false); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			err := m.Request(Owner(i+1), names[(i+1)%3], X, Commit, false)
			m.ReleaseAll(Owner(i + 1)) // victim or not, its end lets its predecessor through
			errs <- err
		}()
		if i < 2 { // the third closes the cycle and may be aborted at once
			awaitQueued(t, m, names[(i+1)%3], 1)
		}
	}
	// Exactly one member of the cycle must be aborted.
	gotDeadlock := false
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				if gotDeadlock {
					t.Fatal("more than one deadlock victim in a single cycle")
				}
				gotDeadlock = true
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("three-way cross-shard deadlock not resolved")
		}
	}
	if !gotDeadlock {
		t.Fatal("no deadlock victim chosen")
	}
}

// TestReleaseSinceAcrossShards: savepoint lock release must find and drop
// post-token locks no matter which shards they hash to, revert upgrades,
// and wake waiters on every affected shard.
func TestReleaseSinceAcrossShards(t *testing.T) {
	m := NewManager(nil)
	names := namesInDistinctShards(t, m, 8)
	pre, post := names[:3], names[3:]

	for _, n := range pre {
		if err := m.Request(7, n, S, Commit, false); err != nil {
			t.Fatal(err)
		}
	}
	tok := m.Token()
	// Upgrade one pre-token lock and take the post-token ones.
	if err := m.Request(7, pre[0], X, Commit, false); err != nil {
		t.Fatal(err)
	}
	for _, n := range post {
		if err := m.Request(7, n, X, Commit, false); err != nil {
			t.Fatal(err)
		}
	}

	// Waiters blocked on post-token names, spread across shards: one owner
	// each, because an owner has at most one blocked request.
	granted := make(chan Name, len(post))
	for i, n := range post {
		i, n := i, n
		go func() {
			if err := m.Request(Owner(99+i), n, S, Commit, false); err == nil {
				granted <- n
			}
		}()
	}
	for _, n := range post {
		awaitQueued(t, m, n, 1)
	}

	changed := m.ReleaseSince(7, tok)
	if want := len(post) + 1; changed != want { // post-token grants + one upgrade revert
		t.Fatalf("ReleaseSince changed %d holdings, want %d", changed, want)
	}
	for _, n := range post {
		if m.HoldsAtLeast(7, n, IS) {
			t.Fatalf("post-token lock %v survived ReleaseSince", n)
		}
	}
	for _, n := range pre {
		if !m.HoldsAtLeast(7, n, S) {
			t.Fatalf("pre-token lock %v lost by ReleaseSince", n)
		}
	}
	if m.HoldsAtLeast(7, pre[0], X) {
		t.Fatal("post-token upgrade on a pre-token lock not reverted")
	}
	for range post {
		select {
		case <-granted:
		case <-time.After(5 * time.Second):
			t.Fatal("waiter on a released shard never woke")
		}
	}
}

// TestShutdownFencesEveryShard: waiters parked on names in distinct shards
// all wake with ErrShutdown, and later requests fail fast on every shard.
func TestShutdownFencesEveryShard(t *testing.T) {
	m := NewManager(nil)
	const waiters = 8
	names := namesInDistinctShards(t, m, waiters)
	for i, n := range names {
		if err := m.Request(Owner(100+i), n, X, Commit, false); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, waiters)
	for i, n := range names {
		i, n := i, n
		go func() { errs <- m.Request(Owner(200+i), n, S, Commit, false) }()
	}
	for _, n := range names {
		awaitQueued(t, m, n, 1)
	}
	m.Shutdown()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrShutdown) {
				t.Fatalf("waiter woke with %v, want ErrShutdown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a shard's waiter was not fenced by Shutdown")
		}
	}
	for _, n := range names {
		if err := m.Request(300, n, S, Commit, false); !errors.Is(err, ErrShutdown) {
			t.Fatalf("post-shutdown request on shard of %v returned %v, want ErrShutdown", n, err)
		}
	}
}

// TestSavepointTokensGloballyOrdered: tokens from the shared atomic
// sequence order grants across shards — a lock granted on shard A after a
// token taken during activity on shard B is released by ReleaseSince.
func TestSavepointTokensGloballyOrdered(t *testing.T) {
	m := NewManager(nil)
	names := namesInDistinctShards(t, m, 4)
	if err := m.Request(1, names[0], X, Commit, false); err != nil {
		t.Fatal(err)
	}
	tok := m.Token()
	for _, n := range names[1:] {
		if err := m.Request(1, n, X, Commit, false); err != nil {
			t.Fatal(err)
		}
	}
	if changed := m.ReleaseSince(1, tok); changed != 3 {
		t.Fatalf("ReleaseSince changed %d, want 3", changed)
	}
	if !m.HoldsAtLeast(1, names[0], X) {
		t.Fatal("pre-token lock released")
	}
}

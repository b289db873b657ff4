package lock

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ariesim/internal/trace"
)

// Algebraic properties of the mode lattice, checked exhaustively and via
// testing/quick (the generator drives random casts into the enum range).

func allModes() []Mode {
	return []Mode{ModeNone, IS, IX, S, SIX, X}
}

func TestSupremumLatticeLaws(t *testing.T) {
	for _, a := range allModes() {
		for _, b := range allModes() {
			ab := Supremum(a, b)
			if ab != Supremum(b, a) {
				t.Fatalf("Supremum(%v,%v) not commutative", a, b)
			}
			if Supremum(a, a) != a {
				t.Fatalf("Supremum(%v,%v) not idempotent", a, a)
			}
			// The supremum is an upper bound: re-joining either side is a
			// no-op.
			if Supremum(ab, a) != ab || Supremum(ab, b) != ab {
				t.Fatalf("Supremum(%v,%v)=%v is not an upper bound", a, b, ab)
			}
			for _, c := range allModes() {
				if Supremum(Supremum(a, b), c) != Supremum(a, Supremum(b, c)) {
					t.Fatalf("Supremum not associative at (%v,%v,%v)", a, b, c)
				}
			}
		}
	}
}

func TestCompatibilityMonotonicity(t *testing.T) {
	// Strengthening a mode can only REMOVE compatibility: if sup(a,b)=b
	// (b at least as strong as a) then anything compatible with b is
	// compatible with a.
	for _, a := range allModes() {
		for _, b := range allModes() {
			if Supremum(a, b) != b {
				continue
			}
			for _, c := range allModes() {
				if Compatible(b, c) && !Compatible(a, c) {
					t.Fatalf("weaker %v incompatible with %v while stronger %v is", a, c, b)
				}
			}
		}
	}
}

func TestQuickCompatSymmetry(t *testing.T) {
	f := func(x, y uint8) bool {
		a, b := Mode(x%6), Mode(y%6)
		return Compatible(a, b) == Compatible(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInstantLocksLeaveTableEmpty(t *testing.T) {
	// Property: any sequence of instant-duration locks by one owner leaves
	// the lock table empty.
	f := func(spaces, modes []uint8) bool {
		m := NewManager(nil)
		n := len(spaces)
		if len(modes) < n {
			n = len(modes)
		}
		for i := 0; i < n; i++ {
			name := Name{Space: Space(spaces[i] % 7), A: uint64(i % 3)}
			mode := Mode(modes[i]%5 + 1)
			if err := m.Request(1, name, mode, Instant, false); err != nil {
				return false
			}
		}
		return m.NumLocks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTimeoutRemovalWakesAllGrantable is the release-path property
// behind both victim abort and wait timeout: removing a queued waiter must
// wake every queued request that thereby became grantable, each exactly
// once. A bounded X request sits at the head of the queue over a held S;
// a random crowd of compatible (S/IS) requests queues behind it, blocked
// only by FIFO order. When the X times out, every one of them must be
// granted — with no release ever happening.
func TestQuickTimeoutRemovalWakesAllGrantable(t *testing.T) {
	name := Name{Space: SpaceRecord, A: 1}
	f := func(n, modeBits uint8) bool {
		waiters := int(n%5) + 1
		st := &trace.Stats{}
		m := NewManager(st)
		m.SetWaitTimeout(25 * time.Millisecond)
		if err := m.Request(1, name, S, Commit, false); err != nil {
			return false
		}
		xdone := make(chan error, 1)
		go func() { xdone <- m.Request(2, name, X, Commit, false) }()
		awaitParked(t, st, 1) // the X is at the queue head with its bound
		m.SetWaitTimeout(0)   // the crowd waits without one
		granted := make(chan Owner, waiters)
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			o := Owner(3 + i)
			mode := S
			if modeBits&(1<<uint(i)) != 0 {
				mode = IS
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.Request(o, name, mode, Commit, false); err == nil {
					granted <- o
				}
			}()
		}
		if err := <-xdone; !errors.Is(err, ErrLockTimeout) {
			return false // the X can never be granted here; it must time out
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return false // lost wakeup: a grantable waiter was not woken
		}
		// Exactly once: every waiter granted, each a distinct owner, and
		// the table holds precisely the original S plus the crowd.
		if len(granted) != waiters {
			return false
		}
		seen := map[Owner]bool{}
		for i := 0; i < waiters; i++ {
			o := <-granted
			if seen[o] {
				return false
			}
			seen[o] = true
		}
		return m.NumLocks() == 1+waiters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTimeoutInterleavedSchedule drives a random schedule of bounded
// conflicting waits, staggered in time, so timeouts expire while other waits
// are still in flight (removal interleaved with enqueueing and granting).
// Whatever the interleaving: no hang, every failure is a typed
// timeout/deadlock, and the table drains to empty after all owners release.
func TestQuickTimeoutInterleavedSchedule(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		m := NewManager(nil)
		m.SetWaitTimeout(9 * time.Millisecond)
		var bad atomic.Bool
		var wg sync.WaitGroup
		for i, op := range ops {
			owner := Owner(i + 1) // one owner per request: cycles impossible
			name := Name{Space: SpaceRecord, A: uint64(op % 3)}
			mode := S
			if op%2 == 0 {
				mode = X
			}
			delay := time.Duration(op%8) * 3 * time.Millisecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay)
				err := m.Request(owner, name, mode, Commit, false)
				if err != nil && !errors.Is(err, ErrLockTimeout) {
					bad.Store(true) // single-lock owners can only time out
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return false // a bounded wait failed to terminate
		}
		for i := range ops {
			m.ReleaseAll(Owner(i + 1))
		}
		return !bad.Load() && m.NumLocks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReleaseAllAlwaysEmpties(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewManager(nil)
		for i, op := range ops {
			owner := Owner(op%3 + 1)
			name := Name{Space: Space(op % 5), A: uint64(op % 7)}
			mode := Mode(op%5 + 1)
			// Conditional so the single-goroutine property never blocks.
			_ = m.Request(owner, name, mode, Commit, true)
			if i%5 == 4 {
				m.ReleaseAll(owner)
			}
		}
		for o := Owner(1); o <= 3; o++ {
			m.ReleaseAll(o)
		}
		return m.NumLocks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// modelLock is the reference model's holding: its first grant and every
// upgrade since, as (grant sequence, mode reached).
type modelLock []modelStep

type modelStep struct {
	seq  uint64
	mode Mode
}

func (l modelLock) mode() Mode { return l[len(l)-1].mode }

// lockModel is a map-of-maps reference for what each owner holds. It knows
// Gray's two tables and nothing of shards, heads, queues or owner records.
type lockModel map[Owner]map[Name]modelLock

// request mirrors a conditional Request: whether it is granted, and the mode
// the grant installs or upgrades a holding to (ModeNone: it leaves the table
// as it was; otherwise the caller stamps the step with the grant sequence).
func (lm lockModel) request(o Owner, n Name, mode Mode, dur Duration) (granted bool, install Mode) {
	cur := ModeNone
	if l, ok := lm[o][n]; ok {
		cur = l.mode()
	}
	target := Supremum(cur, mode)
	if target == cur {
		return true, ModeNone
	}
	for p, held := range lm {
		if l, ok := held[n]; ok && p != o && !Compatible(l.mode(), target) {
			return false, ModeNone
		}
	}
	if dur == Instant && cur == ModeNone {
		return true, ModeNone
	}
	return true, target
}

// releaseSince mirrors ReleaseSince: forget every step after tok.
func (lm lockModel) releaseSince(o Owner, tok uint64) (changed int) {
	for n, l := range lm[o] {
		keep := len(l)
		for keep > 0 && l[keep-1].seq > tok {
			keep--
		}
		if keep < len(l) {
			changed++
		}
		if lm[o][n] = l[:keep]; keep == 0 {
			delete(lm[o], n)
		}
	}
	return changed
}

// TestQuickMatchesReferenceModel drives random conditional requests (all
// modes and durations), Release, ReleaseAll, ReleaseSince to a random earlier
// token and owner-ID reuse through one goroutine, and after every step holds
// LocksOf, NumLocks and HoldsAtLeast to the reference model. Owner 1 mostly
// takes intention locks over a wide name range, so its table passes the
// inline size and comes back under it.
func TestQuickMatchesReferenceModel(t *testing.T) {
	var grew, shrank bool
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewManager(nil)
		lm := lockModel{}
		toks := []uint64{0}
		peak := 0
		for step := 0; step < 2000; step++ {
			o := Owner(r.Intn(4)/2 + 1) // owner 1 half the time
			n := Name{Space: SpaceRecord, A: uint64(r.Intn(6))}
			mode := Mode(r.Intn(5) + 1)
			if o == 1 {
				n.A, mode = uint64(r.Intn(3*ownerIndexAt)), Mode(r.Intn(2)+1)
			}
			if lm[o] == nil {
				lm[o] = map[Name]modelLock{}
			}
			switch op := r.Intn(100); {
			case op < 85:
				dur := Duration(r.Intn(3))
				granted, install := lm.request(o, n, mode, dur)
				err := m.Request(o, n, mode, dur, true)
				if granted != (err == nil) || !granted && !errors.Is(err, ErrNotGranted) {
					t.Errorf("seed %d step %d: Request(%d, %v, %v, %v) = %v, model granted=%v", seed, step, o, n, mode, dur, err, granted)
					return false
				}
				if install != ModeNone {
					lm[o][n] = append(lm[o][n], modelStep{m.Token(), install})
				}
			case op < 92:
				m.Release(o, n)
				delete(lm[o], n)
			case op < 95:
				tok := toks[r.Intn(len(toks))]
				if got, want := m.ReleaseSince(o, tok), lm.releaseSince(o, tok); got != want {
					t.Errorf("seed %d step %d: ReleaseSince(%d, %d) = %d, model %d", seed, step, o, tok, got, want)
					return false
				}
			case op < 96:
				m.ReleaseAll(o)
				delete(lm, o)
			default:
				toks = append(toks, m.Token())
			}

			total := 0
			for p, held := range lm {
				total += len(held)
				locks := m.LocksOf(p)
				if len(locks) != len(held) {
					t.Errorf("seed %d step %d: owner %d holds %d locks, model %d", seed, step, p, len(locks), len(held))
					return false
				}
				for _, l := range locks {
					if ml, ok := held[l.Name]; !ok || ml.mode() != l.Mode {
						t.Errorf("seed %d step %d: owner %d holds %v in %v, model %v", seed, step, p, l.Name, l.Mode, ml)
						return false
					}
				}
			}
			if got := m.NumLocks(); got != total {
				t.Errorf("seed %d step %d: NumLocks = %d, model %d", seed, step, got, total)
				return false
			}
			for q := IS; q <= X; q++ {
				want := false
				if l, ok := lm[o][n]; ok {
					want = Supremum(l.mode(), q) == l.mode()
				}
				if m.HoldsAtLeast(o, n, q) != want {
					t.Errorf("seed %d step %d: HoldsAtLeast(%d, %v, %v) = %v", seed, step, o, n, q, !want)
					return false
				}
			}
			if k := len(lm[1]); k > ownerIndexAt {
				grew, peak = true, k
			} else if peak > ownerIndexAt && k > 0 && k < ownerIndexAt {
				shrank = true
			}
		}
		return true
	}
	// Fixed seeds: whether the mix crosses the inline size is then a property
	// of this file, not of the day.
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if !grew || !shrank {
		t.Fatalf("owner 1 never crossed %d holdings in both directions (grew %v, shrank %v): the mix no longer covers the map", ownerIndexAt, grew, shrank)
	}
}

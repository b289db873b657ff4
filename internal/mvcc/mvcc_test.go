package mvcc

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ariesim/internal/trace"
	"ariesim/internal/wal"
)

const testTable = 7

// epochStart is where every test store's watermark begins.
const epochStart = 100

func newTestStore() (*Store, *trace.Stats) {
	stats := &trace.Stats{}
	st := NewStore(stats)
	st.StartAt(epochStart)
	return st, stats
}

func liveChains(stats *trace.Stats) int {
	return int(stats.ChainsCreated.Load()) - int(stats.ChainsRemoved.Load())
}

// chainLists keeps each test writer's chain list, as a txn.Tx keeps its own.
type chainLists map[wal.TxID]*Chains

func (cl chainLists) of(tx wal.TxID) *Chains {
	if cl[tx] == nil {
		cl[tx] = new(Chains)
	}
	return cl[tx]
}

// pushAbsent pushes value for key with a seed that says the key had no
// committed row before.
func pushAbsent(t *testing.T, st *Store, cl chainLists, key, value string, tx wal.TxID, pushLSN wal.LSN) {
	t.Helper()
	seed := func() (bool, []byte, uint64, error) { return false, nil, st.Seq(testTable), nil }
	if err := st.PushTo(testTable, []byte(key), true, []byte(value), tx, pushLSN, cl.of(tx), seed); err != nil {
		t.Fatal(err)
	}
}

func commit(st *Store, cl chainLists, tx wal.TxID, lsn wal.LSN) {
	st.EnterCommit(tx)
	st.CommitAt(tx, lsn)
	st.StampCommit(tx, lsn, cl.of(tx))
}

// wantRead checks one Read answer; value "" with chain means absent.
func wantRead(t *testing.T, st *Store, key string, s wal.LSN, chain bool, value string) {
	t.Helper()
	r, err := st.Read(testTable, []byte(key), s)
	if err != nil {
		t.Fatalf("Read(%q, %d): %v", key, s, err)
	}
	if r.Chain != chain || r.Present != (value != "") || string(r.Value) != value {
		t.Fatalf("Read(%q, %d) = chain %v present %v %q, want chain %v %q", key, s, r.Chain, r.Present, r.Value, chain, value)
	}
}

// TestRemovalInvariant walks one chain through every reason it may not be
// dropped — an in-flight version, a commit a registered snapshot cannot
// see, a lower commit still in flight — and checks it is dropped, with a
// removal-sequence bump, the moment the last reason goes.
func TestRemovalInvariant(t *testing.T) {
	st, stats := newTestStore()
	cl := chainLists{}

	// No reader, no other commit: retired inside its own StampCommit.
	seq := st.Seq(testTable)
	pushAbsent(t, st, cl, "a", "a1", 1, 101)
	if liveChains(stats) != 1 {
		t.Fatalf("in-flight chain missing: %d live", liveChains(stats))
	}
	commit(st, cl, 1, 110)
	if liveChains(stats) != 0 || st.Seq(testTable) == seq {
		t.Fatalf("unpinned commit left %d chains, seq %d -> %d", liveChains(stats), seq, st.Seq(testTable))
	}
	wantRead(t, st, "a", st.Visible(), false, "")

	// A registered snapshot below the commit pins the chain, and the
	// chain answers that snapshot with the pre-commit state.
	s, id := st.Begin()
	pushAbsent(t, st, cl, "b", "b1", 2, 111)
	commit(st, cl, 2, 120)
	if liveChains(stats) != 1 {
		t.Fatalf("chain a snapshot still needs was dropped: %d live", liveChains(stats))
	}
	wantRead(t, st, "b", s, true, "")
	wantRead(t, st, "b", 120, true, "b1")

	// An in-flight writer keeps it past the snapshot's end; its rollback
	// lets it go.
	seed := func() (bool, []byte, uint64, error) {
		t.Fatal("seed consulted for an existing chain")
		return false, nil, 0, nil
	}
	if err := st.PushTo(testTable, []byte("b"), false, nil, 3, 121, cl.of(3), seed); err != nil {
		t.Fatal(err)
	}
	seq = st.Seq(testTable)
	st.End(id)
	if liveChains(stats) != 1 || st.Seq(testTable) != seq {
		t.Fatalf("chain with an in-flight version was dropped (%d live)", liveChains(stats))
	}
	wantRead(t, st, "b", st.Visible(), true, "b1") // folded into the base, tombstone in flight
	st.DropTx(3, cl.of(3))
	if liveChains(stats) != 0 || st.Seq(testTable) == seq {
		t.Fatalf("rollback left %d chains, seq %d -> %d", liveChains(stats), seq, st.Seq(testTable))
	}

	// A lower commit still in flight holds the watermark, hence the chain
	// of a higher commit that finished first; the lower commit's finish
	// retires both.
	pushAbsent(t, st, cl, "c", "c1", 4, 122)
	pushAbsent(t, st, cl, "d", "d1", 5, 123)
	st.EnterCommit(4)
	st.EnterCommit(5)
	st.CommitAt(4, 130)
	st.CommitAt(5, 140)
	st.StampCommit(5, 140, cl.of(5))
	if got := st.Visible(); got != 129 {
		t.Fatalf("watermark %d passed an unfinished commit at 130", got)
	}
	if liveChains(stats) != 2 {
		t.Fatalf("%d chains live with commit 130 in flight, want 2", liveChains(stats))
	}
	st.StampCommit(4, 130, cl.of(4))
	if st.Visible() != 140 || liveChains(stats) != 0 {
		t.Fatalf("after both finishes: visible %d, %d chains live", st.Visible(), liveChains(stats))
	}
}

// TestRetireQueueOrdersByCommitLSN finishes three commits out of LSN order
// under a pinned snapshot and then raises the bound to between them: only
// the chains at or below it may retire, which needs the queue in commit
// order, not finish order.
func TestRetireQueueOrdersByCommitLSN(t *testing.T) {
	st, stats := newTestStore()
	cl := chainLists{}
	_, pin := st.Begin() // at 100
	pushAbsent(t, st, cl, "a", "a1", 1, 101)
	pushAbsent(t, st, cl, "b", "b1", 2, 102)
	pushAbsent(t, st, cl, "c", "c1", 3, 103)
	for tx := wal.TxID(1); tx <= 3; tx++ {
		st.EnterCommit(tx)
	}
	st.CommitAt(1, 110)
	st.CommitAt(2, 120)
	st.CommitAt(3, 115)
	st.StampCommit(2, 120, cl.of(2)) // visible stays 109
	st.StampCommit(1, 110, cl.of(1)) // visible 114: commit 115 is open
	s2, mid := st.Begin()
	if s2 != 114 {
		t.Fatalf("second snapshot at %d, want 114", s2)
	}
	st.StampCommit(3, 115, cl.of(3)) // visible 120
	var queued []wal.LSN
	for _, e := range st.retireQ {
		queued = append(queued, e.lsn)
	}
	if fmt.Sprint(queued) != "[110 115 120]" {
		t.Fatalf("retire queue %v, want [110 115 120]", queued)
	}
	seq := st.Seq(testTable)
	st.End(pin) // bound 114: only commit 110's chain
	if liveChains(stats) != 2 {
		t.Fatalf("%d chains live at bound 114, want 2 (b, c)", liveChains(stats))
	}
	wantRead(t, st, "a", s2, false, "")
	wantRead(t, st, "c", s2, true, "")
	wantRead(t, st, "b", s2, true, "")
	st.End(mid)
	if liveChains(stats) != 0 || len(st.retireQ) != 0 {
		t.Fatalf("%d chains live, %d queued after the last reader ended", liveChains(stats), len(st.retireQ))
	}
	if got := st.Seq(testTable) - seq; got != 2 {
		t.Fatalf("two drained batches bumped the removal sequence %d times, want 2", got)
	}
}

// TestStampRestoresCommitOrder: an inserter pushes before it holds the
// key's lock, so the deleter of the prior incarnation, which pushed
// later, can commit first. Each snapshot must see the commits in LSN
// order, and a transaction's own same-LSN pushes in push order. The
// writers keep no chain lists (Push, FinishCommit), so each commit finds
// its own versions among another writer's on the shared chain.
func TestStampRestoresCommitOrder(t *testing.T) {
	st, _ := newTestStore()
	_, pin := st.Begin()
	defer st.End(pin)
	commit := func(tx wal.TxID, lsn wal.LSN) {
		st.EnterCommit(tx)
		st.CommitAt(tx, lsn)
		st.FinishCommit(tx, lsn)
	}
	seed := func() (bool, []byte, uint64, error) { return true, []byte("old"), st.Seq(testTable), nil }
	if err := st.Push(testTable, []byte("k"), true, []byte("reinserted"), 1, 101, seed); err != nil {
		t.Fatal(err)
	}
	if err := st.Push(testTable, []byte("k"), false, nil, 2, 102, seed); err != nil {
		t.Fatal(err)
	}
	commit(2, 110) // the delete commits first
	wantRead(t, st, "k", 109, true, "old")
	wantRead(t, st, "k", 110, true, "")
	commit(1, 120)
	wantRead(t, st, "k", 119, true, "")
	wantRead(t, st, "k", 120, true, "reinserted")

	for _, v := range []string{"first", "final"} {
		if err := st.Push(testTable, []byte("k"), true, []byte(v), 3, 121, seed); err != nil {
			t.Fatal(err)
		}
	}
	commit(3, 130)
	wantRead(t, st, "k", 129, true, "reinserted")
	wantRead(t, st, "k", 130, true, "final")
}

// TestDropTxSinceInclusiveBound: a push made at exactly the savepoint LSN
// belongs to the operation being rolled back.
func TestDropTxSinceInclusiveBound(t *testing.T) {
	st, stats := newTestStore()
	cl := chainLists{}
	pushAbsent(t, st, cl, "a", "a1", 1, 110)
	pushAbsent(t, st, cl, "b", "b1", 1, 120) // pushed before its operation's first record
	pushAbsent(t, st, cl, "c", "c1", 1, 121)
	st.DropTxSince(1, 121, cl.of(1))
	if liveChains(stats) != 2 {
		t.Fatalf("savepoint 121 left %d chains, want a and b", liveChains(stats))
	}
	st.DropTxSince(1, 120, cl.of(1))
	if liveChains(stats) != 1 {
		t.Fatalf("savepoint 120 left %d chains, want only a (the bound is inclusive)", liveChains(stats))
	}
	_, pin := st.Begin()
	defer st.End(pin)
	commit(st, cl, 1, 130)
	wantRead(t, st, "a", 130, true, "a1")
	wantRead(t, st, "b", 130, false, "")
}

// TestForcedFoldSnapshotTooOld: past the version cap a chain folds history
// a registered snapshot still needs, and that snapshot gets the typed
// error from both read paths while a fresh one reads on.
func TestForcedFoldSnapshotTooOld(t *testing.T) {
	st, stats := newTestStore()
	cl := chainLists{}
	old, pin := st.Begin()
	defer st.End(pin)
	lsn := wal.LSN(epochStart)
	for i := 0; i <= maxChainVersions; i++ {
		lsn += 10
		pushAbsent(t, st, cl, "hot", fmt.Sprintf("v%d", i), wal.TxID(i+1), lsn-5)
		commit(st, cl, wal.TxID(i+1), lsn)
		if _, err := st.Read(testTable, []byte("hot"), old); (err != nil) != (i == maxChainVersions) {
			t.Fatalf("after %d versions: Read under the old snapshot: %v", i+1, err)
		}
	}
	if _, err := st.Read(testTable, []byte("hot"), old); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("Read: %v, want ErrSnapshotTooOld", err)
	}
	if _, err := st.RowsBetween(testTable, "", true, "", false, true, old); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("RowsBetween: %v, want ErrSnapshotTooOld", err)
	}
	if stats.SnapshotTooOld.Load() != 3 || stats.VersionChainPeak.Load() != maxChainVersions+1 {
		t.Fatalf("too-old count %d, chain peak %d", stats.SnapshotTooOld.Load(), stats.VersionChainPeak.Load())
	}
	fresh, id := st.Begin()
	wantRead(t, st, "hot", fresh, true, fmt.Sprintf("v%d", maxChainVersions))
	st.End(id)
}

// TestRowsBetweenBounds checks every bound shape against a filter over
// the full key list: lo and hi inclusive and exclusive, on and between
// chained keys, hi unbounded, empty and inverted windows.
func TestRowsBetweenBounds(t *testing.T) {
	st, stats := newTestStore()
	s, pin := st.Begin()
	defer st.End(pin)
	keys := []string{"b", "d", "f", "h", "j"}
	cl := chainLists{}
	for i, k := range keys {
		pushAbsent(t, st, cl, k, "v-"+k, wal.TxID(i+1), wal.LSN(101+i))
		commit(st, cl, wal.TxID(i+1), wal.LSN(110+i))
	}
	after := st.Visible()
	bounds := []string{"", "a", "b", "c", "d", "h", "i", "j", "k"}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for flags := 0; flags < 8; flags++ {
				loIncl, hiIncl, hiUnbounded := flags&1 != 0, flags&2 != 0, flags&4 != 0
				var want []string
				for _, k := range keys {
					if k < lo || (k == lo && !loIncl) {
						continue
					}
					if !hiUnbounded && (k > hi || (k == hi && !hiIncl)) {
						continue
					}
					want = append(want, k)
				}
				name := fmt.Sprintf("lo=%q/%v hi=%q/%v unbounded=%v", lo, loIncl, hi, hiIncl, hiUnbounded)
				rows, err := st.RowsBetween(testTable, lo, loIncl, hi, hiIncl, hiUnbounded, after)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var got []string
				for _, r := range rows {
					if !r.Present || string(r.Value) != "v-"+r.Key {
						t.Fatalf("%s: row %q present %v value %q", name, r.Key, r.Present, r.Value)
					}
					got = append(got, r.Key)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: keys %v, want %v", name, got, want)
				}
			}
		}
	}
	// Under the pinned snapshot the same chains answer "absent".
	rows, err := st.RowsBetween(testTable, "", true, "", false, true, s)
	if err != nil || len(rows) != len(keys) {
		t.Fatalf("pinned snapshot: %d rows, %v", len(rows), err)
	}
	for _, r := range rows {
		if r.Present {
			t.Fatalf("pinned snapshot sees %q, committed after it", r.Key)
		}
	}
	if stats.ChainsScanned.Load() == 0 {
		t.Fatal("ChainsScanned did not advance")
	}
}

// TestRowsBetweenExaminesWindowNotTable: with n chains pinned, a window
// holding w of them looks at O(log n + w) chains.
func TestRowsBetweenExaminesWindowNotTable(t *testing.T) {
	const n = 20000
	st, stats := newTestStore()
	_, pin := st.Begin()
	defer st.End(pin)
	cl := chainLists{}
	for i := 0; i < n; i++ {
		// Multiplying by a unit mod n visits every key once, out of order.
		pushAbsent(t, st, cl, fmt.Sprintf("k%08d", i*7919%n), "v", wal.TxID(i+1), wal.LSN(epochStart+1+2*i))
		commit(st, cl, wal.TxID(i+1), wal.LSN(epochStart+2+2*i))
	}
	if liveChains(stats) != n {
		t.Fatalf("%d chains live, want %d", liveChains(stats), n)
	}
	before := stats.ChainsScanned.Load()
	rows, err := st.RowsBetween(testTable, "k00010000", true, "k00010015", true, false, st.Visible())
	if err != nil || len(rows) != 16 {
		t.Fatalf("window of 16: %d rows, %v", len(rows), err)
	}
	// 16 in the window, one past it, and a seek: 4·log2(n) is four times
	// the expected path of a skip list promoting one chain in four.
	if got := stats.ChainsScanned.Load() - before; got > 17+4*15 {
		t.Fatalf("a 16-chain window among %d chains examined %d", n, got)
	}
}

// --- seeded property test against a naive model ---

type modelVersion struct {
	present   bool
	value     string
	tx        wal.TxID
	commitLSN wal.LSN // 0 while in flight
	pushLSN   wal.LSN
}

// modelKey is a key's whole history: nothing is ever folded away, and
// every question is answered by walking it.
type modelKey struct {
	versions []modelVersion // commit order, in-flight last
}

type modelTx struct {
	id      wal.TxID
	entered bool
	lsn     wal.LSN // commit LSN once assigned
	pushes  []wal.LSN
	chains  Chains // the store's list, as a txn.Tx keeps it
}

type model struct {
	keys       map[string]*modelKey
	visible    wal.LSN
	stampedMax wal.LSN
	snaps      []modelSnap
	txs        []*modelTx
}

type modelSnap struct {
	id  uint64
	lsn wal.LSN
}

// bound walks the registry the way the store's horizon does.
func (m *model) bound() wal.LSN {
	b := m.visible
	for _, s := range m.snaps {
		b = min(b, s.lsn)
	}
	return b
}

// advance recomputes the watermark from every open ticket.
func (m *model) advance() {
	cand := m.stampedMax
	for _, tx := range m.txs {
		if !tx.entered {
			continue
		}
		if tx.lsn == 0 {
			return
		}
		cand = min(cand, tx.lsn-1)
	}
	m.visible = max(m.visible, cand)
}

// chained says whether the removal invariant still needs a chain for k:
// an in-flight version, or a commit some active or future snapshot may
// not see.
func (m *model) chained(k string) bool {
	return m.retained(k) > 0
}

// retained counts the versions a chain for k would hold.
func (m *model) retained(k string) int {
	n := 0
	if mk := m.keys[k]; mk != nil {
		for _, v := range mk.versions {
			if v.commitLSN == 0 || v.commitLSN > m.bound() {
				n++
			}
		}
	}
	return n
}

// at resolves k's committed state at snapshot s from the full history.
func (m *model) at(k string, s wal.LSN) (bool, string) {
	present, value := false, ""
	if mk := m.keys[k]; mk != nil {
		for _, v := range mk.versions {
			if v.commitLSN != 0 && v.commitLSN <= s {
				present, value = v.present, v.value
			}
		}
	}
	return present, value
}

// inFlight says whether tx holds an in-flight version of k.
func (m *model) inFlight(k string, tx wal.TxID) bool {
	if mk := m.keys[k]; mk != nil {
		for _, v := range mk.versions {
			if v.tx == tx && v.commitLSN == 0 {
				return true
			}
		}
	}
	return false
}

func (m *model) inFlightWriter(k string) wal.TxID {
	if mk := m.keys[k]; mk != nil {
		for _, v := range mk.versions {
			if v.commitLSN == 0 {
				return v.tx
			}
		}
	}
	return 0
}

func (m *model) stamp(tx wal.TxID, lsn wal.LSN) {
	for _, mk := range m.keys {
		for i := range mk.versions {
			if mk.versions[i].tx == tx && mk.versions[i].commitLSN == 0 {
				mk.versions[i].commitLSN = lsn
			}
		}
		sort.SliceStable(mk.versions, func(i, j int) bool {
			return commitsBefore(mk.versions[i].commitLSN, mk.versions[j].commitLSN)
		})
	}
}

func (m *model) drop(tx wal.TxID, save wal.LSN) {
	for _, mk := range m.keys {
		out := mk.versions[:0]
		for _, v := range mk.versions {
			if v.tx == tx && v.commitLSN == 0 && v.pushLSN >= save {
				continue
			}
			out = append(out, v)
		}
		mk.versions = out
	}
}

func (m *model) removeTx(tx *modelTx) {
	for i, t := range m.txs {
		if t == tx {
			m.txs = append(m.txs[:i], m.txs[i+1:]...)
			return
		}
	}
}

// TestStoreMatchesNaiveModel drives seeded random schedules of snapshots,
// pushes, savepoint and full rollbacks, and commits that enter, place and
// finish in independent orders, and after every step compares every Read
// and a RowsBetween under every open snapshot — and the set of live
// chains — with a model that keeps all history and answers by walking it.
func TestStoreMatchesNaiveModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		runModelSchedule(t, seed, 1500)
	}
}

func runModelSchedule(t *testing.T, seed uint64, steps int) {
	st, stats := newTestStore()
	m := &model{keys: map[string]*modelKey{}, visible: epochStart, stampedMax: epochStart}
	rng := seed*0x9E3779B97F4A7C15 | 1
	rnd := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	logEnd := wal.LSN(epochStart)
	nextTx := wal.TxID(1)
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}

	for step := 0; step < steps; step++ {
		switch op := rnd(100); {
		case op < 8 && len(m.snaps) < 3:
			s, id := st.Begin()
			if s != m.visible {
				fail(step, "Begin at %d, model watermark %d", s, m.visible)
			}
			m.snaps = append(m.snaps, modelSnap{id: id, lsn: s})
		case op < 16 && len(m.snaps) > 0:
			i := rnd(len(m.snaps))
			st.End(m.snaps[i].id)
			m.snaps = append(m.snaps[:i], m.snaps[i+1:]...)
		case op < 24 && len(m.txs) < 4:
			m.txs = append(m.txs, &modelTx{id: nextTx})
			nextTx++
		case op < 60 && len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			k := keys[rnd(len(keys))]
			if w := m.inFlightWriter(k); tx.entered || (w != 0 && w != tx.id) || m.retained(k) >= maxChainVersions {
				continue // the key's X lock, and the cap (its own test)
			}
			logEnd++
			v := modelVersion{present: rnd(4) != 0, tx: tx.id, pushLSN: logEnd}
			if v.present {
				v.value = fmt.Sprintf("%s@%d", k, logEnd)
			}
			hadChain := m.chained(k)
			seeded := false
			err := st.PushTo(testTable, []byte(k), v.present, []byte(v.value), tx.id, v.pushLSN, &tx.chains, func() (bool, []byte, uint64, error) {
				seeded = true
				present, value := m.at(k, ^wal.LSN(0))
				return present, []byte(value), st.Seq(testTable), nil
			})
			if err != nil || seeded == hadChain {
				fail(step, "Push(%s): err %v, seed consulted %v with chain %v", k, err, seeded, hadChain)
			}
			if m.keys[k] == nil {
				m.keys[k] = &modelKey{}
			}
			m.keys[k].versions = append(m.keys[k].versions, v)
			tx.pushes = append(tx.pushes, v.pushLSN)
			logEnd++ // the operation's own log record
		case op < 66 && len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			if tx.entered || len(tx.pushes) == 0 {
				continue
			}
			at := rnd(len(tx.pushes))
			save := tx.pushes[at] // inclusive: drops this push too
			st.DropTxSince(tx.id, save, &tx.chains)
			m.drop(tx.id, save)
			tx.pushes = tx.pushes[:at]
		case op < 70 && len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			if tx.entered {
				continue
			}
			st.DropTx(tx.id, &tx.chains)
			m.drop(tx.id, 0)
			m.removeTx(tx)
		case op < 80 && len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			if tx.entered {
				continue
			}
			st.EnterCommit(tx.id)
			tx.entered = true
		case op < 90 && len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			if !tx.entered || tx.lsn != 0 {
				continue
			}
			logEnd++
			tx.lsn = logEnd
			st.CommitAt(tx.id, tx.lsn)
		case len(m.txs) > 0:
			tx := m.txs[rnd(len(m.txs))]
			if tx.lsn == 0 {
				continue
			}
			m.removeTx(tx)
			if rnd(8) == 0 {
				st.AbortCommit(tx.id, &tx.chains)
				m.drop(tx.id, 0)
			} else {
				st.StampCommit(tx.id, tx.lsn, &tx.chains)
				m.stamp(tx.id, tx.lsn)
				m.stampedMax = max(m.stampedMax, tx.lsn)
			}
			m.advance()
		default:
			continue
		}

		if got := st.Visible(); got != m.visible {
			fail(step, "watermark %d, model %d", got, m.visible)
		}
		live := 0
		for _, k := range keys {
			if m.chained(k) {
				live++
			}
		}
		if got := liveChains(stats); got != live {
			fail(step, "%d chains live, model needs %d", got, live)
		}
		for _, tx := range m.txs {
			var got, want []string
			for _, c := range tx.chains {
				got = append(got, c.key)
			}
			for _, k := range keys {
				if m.inFlight(k, tx.id) {
					want = append(want, k)
				}
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				fail(step, "tx %d lists chains %v, holds in-flight versions on %v", tx.id, got, want)
			}
		}
		for _, snap := range m.snaps {
			s := snap.lsn
			for _, k := range keys {
				r, err := st.Read(testTable, []byte(k), s)
				if err != nil {
					fail(step, "Read(%s, %d): %v", k, s, err)
				}
				present, value := m.at(k, s)
				if !m.chained(k) {
					present, value = false, "" // the page answers, not the store
				}
				if r.Chain != m.chained(k) || r.Present != present || string(r.Value) != value {
					fail(step, "Read(%s, %d) = chain %v %v %q, model chain %v %v %q", k, s, r.Chain, r.Present, r.Value, m.chained(k), present, value)
				}
			}
			lo, hi := keys[rnd(len(keys))], keys[rnd(len(keys))]
			loIncl, hiIncl, hiUnbounded := rnd(2) == 0, rnd(2) == 0, rnd(4) == 0
			rows, err := st.RowsBetween(testTable, lo, loIncl, hi, hiIncl, hiUnbounded, s)
			if err != nil {
				fail(step, "RowsBetween: %v", err)
			}
			var want []Row
			for _, k := range keys {
				if k < lo || (k == lo && !loIncl) || !m.chained(k) {
					continue
				}
				if !hiUnbounded && (k > hi || (k == hi && !hiIncl)) {
					continue
				}
				present, value := m.at(k, s)
				want = append(want, Row{Key: k, Present: present, Value: []byte(value)})
			}
			if len(rows) != len(want) {
				fail(step, "RowsBetween(%s/%v, %s/%v, %v, %d): %d rows, model %d", lo, loIncl, hi, hiIncl, hiUnbounded, s, len(rows), len(want))
			}
			for i := range rows {
				if rows[i].Key != want[i].Key || rows[i].Present != want[i].Present || string(rows[i].Value) != string(want[i].Value) {
					fail(step, "RowsBetween row %d = %+v, model %+v", i, rows[i], want[i])
				}
			}
		}
	}
}

// TestConcurrentWritersAndReaders runs committers and snapshot readers at
// once (the race detector's test). Every transaction writes one value to
// both keys of its writer's pair, so a snapshot that finds chains on both
// must read the same value from each; once everyone is done no chain and
// no queue entry may be left.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const writers, readers, commits = 3, 3, 400
	st, stats := newTestStore()
	var logEnd atomic.Uint64
	logEnd.Store(epochStart)
	var txIDs atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, b := []byte(fmt.Sprintf("w%d-a", w)), []byte(fmt.Sprintf("w%d-b", w))
			last := []byte("v0") // committed state: this writer alone writes the pair
			for i := 1; i <= commits; i++ {
				tx := wal.TxID(txIDs.Add(1))
				var touched Chains
				value := []byte(fmt.Sprintf("v%d", i))
				seed := func() (bool, []byte, uint64, error) { return true, last, st.Seq(testTable), nil }
				for _, k := range [][]byte{a, b} {
					if err := st.PushTo(testTable, k, true, value, tx, wal.LSN(logEnd.Add(1)), &touched, seed); err != nil {
						t.Error(err)
						return
					}
				}
				if i%16 == 0 {
					st.DropTx(tx, &touched)
					continue
				}
				st.EnterCommit(tx)
				lsn := wal.LSN(logEnd.Add(1))
				st.CommitAt(tx, lsn)
				st.StampCommit(tx, lsn, &touched)
				last = value
			}
		}(w)
	}
	var stop atomic.Bool
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for !stop.Load() {
				s, id := st.Begin()
				for w := 0; w < writers; w++ {
					rows, err := st.RowsBetween(testTable, fmt.Sprintf("w%d-a", w), true, fmt.Sprintf("w%d-b", w), true, false, s)
					if err != nil && !errors.Is(err, ErrSnapshotTooOld) { // a reader stalled past the version cap
						t.Errorf("RowsBetween: %v", err)
					} else if len(rows) == 2 && string(rows[0].Value) != string(rows[1].Value) {
						t.Errorf("snapshot %d saw a torn commit: %q / %q", s, rows[0].Value, rows[1].Value)
					}
					if _, err := st.Read(testTable, []byte(fmt.Sprintf("w%d-a", w)), s); err != nil && !errors.Is(err, ErrSnapshotTooOld) {
						t.Errorf("Read: %v", err)
					}
				}
				st.End(id)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if liveChains(stats) != 0 || len(st.retireQ) != 0 {
		t.Fatalf("%d chains live, %d queued after every writer and reader finished", liveChains(stats), len(st.retireQ))
	}
}

// TestStalledReaderChainsRetire stalls one reader through maxChainVersions+1
// commits of one key, so the forced fold raises that chain's floor above the
// reader's snapshot, and leaves a writer's version on the key in flight. Once
// the reader has ended and the writer rolled back, in either order or with
// the rollback straddling the end, no chain and no queue entry may be left.
//
// The straddle is the case that stranded a chain: a rollback that read the
// horizon before the reader ended kept the raised floor above its bound, and
// the reader's End had already popped the chain's entries while the writer's
// version still held it. The writer's first version is on a chain of another
// table whose mutex the test holds, so the rollback stops between reading
// its refs and dropping the stalled key's version while End runs.
func TestStalledReaderChainsRetire(t *testing.T) {
	const otherTable = testTable + 1
	const writer = wal.TxID(1000)
	for _, order := range []string{"end-then-rollback", "rollback-then-end", "rollback-straddles-end"} {
		t.Run(order, func(t *testing.T) {
			st, stats := newTestStore()
			cl := chainLists{}
			old, pin := st.Begin()
			lsn := wal.LSN(epochStart)
			for i := 0; i <= maxChainVersions; i++ {
				lsn += 10
				pushAbsent(t, st, cl, "hot", fmt.Sprintf("v%d", i), wal.TxID(i+1), lsn-5)
				commit(st, cl, wal.TxID(i+1), lsn)
			}
			if _, err := st.Read(testTable, []byte("hot"), old); !errors.Is(err, ErrSnapshotTooOld) {
				t.Fatalf("after %d commits the stalled reader reads %v, want ErrSnapshotTooOld", maxChainVersions+1, err)
			}
			absent := func() (bool, []byte, uint64, error) { return false, nil, st.Seq(otherTable), nil }
			if err := st.PushTo(otherTable, []byte("gate"), true, []byte("w"), writer, lsn+1, cl.of(writer), absent); err != nil {
				t.Fatal(err)
			}
			pushAbsent(t, st, cl, "hot", "w", writer, lsn+2)
			switch order {
			case "end-then-rollback":
				st.End(pin)
				st.DropTx(writer, cl.of(writer))
			case "rollback-then-end":
				st.DropTx(writer, cl.of(writer))
				st.End(pin)
			default:
				gate := st.table(otherTable)
				gate.mu.Lock()
				done := make(chan struct{})
				go func() {
					defer close(done)
					st.DropTx(writer, cl.of(writer))
				}()
				// Give the rollback its chance to reach the gate; the test
				// holds with any schedule, the old defect showed on most.
				for i := 0; i < 1000; i++ {
					runtime.Gosched()
				}
				st.End(pin) // retires nothing of otherTable, so the held gate cannot block it
				gate.mu.Unlock()
				<-done
			}
			if liveChains(stats) != 0 || len(st.retireQ) != 0 {
				t.Fatalf("%d chains live, %d queued after the reader ended and the writer rolled back", liveChains(stats), len(st.retireQ))
			}
		})
	}
}

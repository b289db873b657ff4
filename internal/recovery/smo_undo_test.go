package recovery

import (
	"fmt"
	"testing"

	"ariesim/internal/core"
	"ariesim/internal/wal"
)

// cutAfter truncates the stable log right after the first record of the
// given op logged by tx, simulating a crash at that exact point, and returns
// that record's LSN (0 if tx logged none).
func (e *env) cutAfter(t *testing.T, tx wal.TxID, op wal.OpCode) wal.LSN {
	t.Helper()
	for _, r := range e.log.SnapshotFrom(1) {
		if r.TxID == tx && r.Op == op {
			e.log.TruncateTo(r.LSN)
			e.pool.Crash()
			return r.LSN
		}
	}
	return 0
}

// expectCLRs asserts that the CLRs restart wrote after the cut begin with
// exactly ops, in order.
func (e *env) expectCLRs(t *testing.T, cut wal.LSN, ops ...wal.OpCode) {
	t.Helper()
	var got []wal.OpCode
	for _, r := range e.log.SnapshotFrom(cut + 1) {
		if r.Type == wal.RecCLR && len(got) < len(ops) {
			got = append(got, r.Op)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(ops) {
		t.Errorf("restart's first CLRs are %v, want %v", got, ops)
	}
}

// TestCrashAfterSplitParentPost cuts the log right after the separator was
// posted to the parent but before the dummy CLR: restart must unwind the
// whole split page-oriented (unsplit-parent, unsplit-left, free the new
// page, free its FSM bit).
func TestCrashAfterSplitParentPost(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	// A committed two-level tree, so the loser's split posts a separator
	// to an existing parent instead of splitting the root.
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 150)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if h, _ := e.ix.Height(); h < 2 {
		t.Fatal("setup tree too short")
	}
	tx := e.tm.Begin()
	i := 150
	hasParentPost := func() bool {
		for _, r := range e.log.SnapshotFrom(1) {
			if r.TxID == tx.ID && r.Op == wal.OpIdxSplitParent {
				return true
			}
		}
		return false
	}
	for !hasParentPost() {
		if err := e.ix.Insert(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if i > 2000 {
			t.Fatal("no parent-posting split")
		}
	}
	cut := e.cutAfter(t, tx.ID, wal.OpIdxSplitParent)
	if cut == 0 {
		t.Fatal("cut point vanished")
	}
	e.restart()
	e.expectCLRs(t, cut, wal.OpIdxUnsplitParent, wal.OpIdxUnsplitLeft, wal.OpIdxFreePage, wal.OpFSMFree)
	want := map[int]bool{}
	for j := 0; j < 150; j++ {
		want[j] = true
	}
	for j := 150; j < i; j++ {
		want[j] = false
	}
	e.expectKeySet(want)
}

// TestCrashDuringRootSplit cuts the log right after the push-down's
// root-format record: restart gives the root its cells back from the child
// (the root-format CLR), then frees the child (its format's free-page CLR)
// and its FSM bit.
func TestCrashDuringRootSplit(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	tx := e.tm.Begin()
	i := 0
	for e.stats.PageSplits.Load() == 0 {
		if err := e.ix.Insert(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if i > 500 {
			t.Fatal("no split")
		}
	}
	// The first split of a fresh index is a root split.
	cut := e.cutAfter(t, tx.ID, wal.OpIdxFormatRoot)
	if cut == 0 {
		t.Fatal("no root-format record found")
	}
	e.restart()
	e.expectCLRs(t, cut, wal.OpIdxFormatRoot, wal.OpIdxFreePage, wal.OpFSMFree)
	e.expectKeySet(map[int]bool{}) // the whole tx is a loser
	// The root is a leaf again, and usable.
	if h, err := e.ix.Height(); err != nil || h != 1 {
		t.Fatalf("height after unwound root split = %d, %v", h, err)
	}
	redo := e.tm.Begin()
	if err := e.ix.Insert(redo, key(999)); err != nil {
		t.Fatal(err)
	}
	if err := redo.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringPageDeleteChainFix cuts the log after the sibling chain
// was rewired but before the parent entry was removed: restart restores
// the chain and the deleted key page-oriented.
func TestCrashDuringPageDeleteChainFix(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 120)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tx := e.tm.Begin()
	i := 0
	for e.stats.PageDeletes.Load() == 0 && i < 120 {
		if err := e.ix.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if e.stats.PageDeletes.Load() == 0 {
		t.Fatal("no page delete")
	}
	if e.cutAfter(t, tx.ID, wal.OpIdxChainFix) == 0 {
		t.Fatal("no chain-fix record found")
	}
	e.restart()
	// The chain fix was compensated with its swapped-payload twin.
	clrChainFixes := 0
	for _, r := range e.log.SnapshotFrom(1) {
		if r.Type == wal.RecCLR && r.Op == wal.OpIdxChainFix {
			clrChainFixes++
		}
	}
	if clrChainFixes == 0 {
		t.Fatal("chain fix not compensated")
	}
	// Everything the loser deleted is back.
	want := map[int]bool{}
	for j := 0; j < 120; j++ {
		want[j] = true
	}
	e.expectKeySet(want)
}

// TestCrashDuringRootCollapse drives the tree up and back down so a root
// collapse (root-format + child free) appears in the log, then cuts right
// after its root-format record: restart's first CLR is the root-format CLR
// that restores the zero-separator root, then the parent entry comes back.
func TestCrashDuringRootCollapse(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 200)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if h, _ := e.ix.Height(); h < 2 {
		t.Fatal("tree too short")
	}
	// Drain almost everything in one loser transaction: collapses occur.
	tx := e.tm.Begin()
	e.deleteRange(tx, 0, 199)
	// The drain's first root-format record is a collapse, not a split.
	cut := e.cutAfter(t, tx.ID, wal.OpIdxFormatRoot)
	if cut == 0 {
		t.Skip("drain caused no root collapse on this geometry")
	}
	e.restart()
	e.expectCLRs(t, cut, wal.OpIdxFormatRoot, wal.OpIdxUndeleteChild)
	// All 200 keys are back (the whole drain was a loser), and the tree
	// is structurally sound despite the interrupted collapse.
	want := map[int]bool{}
	for j := 0; j < 200; j++ {
		want[j] = true
	}
	e.expectKeySet(want)
}

// TestCrashAtEveryRecordOfOneSplit sweeps every single cut point through
// one split SMO — the finest-grained structural-consistency check.
func TestCrashAtEveryRecordOfOneSplit(t *testing.T) {
	build := func() (*env, wal.LSN, wal.LSN, int) {
		e := newEnv(t, core.Config{ID: 1})
		setup := e.tm.Begin()
		e.insertRange(setup, 0, 20)
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		tx := e.tm.Begin()
		splitStart := wal.LSN(0)
		i := 20
		for e.stats.PageSplits.Load() == 0 {
			if err := e.ix.Insert(tx, key(i)); err != nil {
				t.Fatal(err)
			}
			i++
			if i > 500 {
				t.Fatal("no split")
			}
		}
		// Locate the SMO region: first FSMAlloc by tx to the dummy CLR.
		var end wal.LSN
		for _, r := range e.log.SnapshotFrom(1) {
			if r.TxID == tx.ID && r.Op == wal.OpFSMAlloc && splitStart == 0 {
				splitStart = r.LSN
			}
			if r.TxID == tx.ID && r.Type == wal.RecDummyCLR {
				end = r.LSN
			}
		}
		if splitStart == 0 || end == 0 {
			t.Fatal("SMO region not found")
		}
		return e, splitStart, end, i
	}
	probe, start, end, _ := build()
	var cuts []wal.LSN
	for _, r := range probe.log.SnapshotFrom(start) {
		if r.LSN > end {
			break
		}
		cuts = append(cuts, r.LSN)
	}
	if len(cuts) < 4 {
		t.Fatalf("only %d records in the SMO region", len(cuts))
	}
	for _, cut := range cuts {
		cut := cut
		e, _, _, inserted := build()
		e.log.TruncateTo(cut)
		e.pool.Crash()
		e.restart()
		want := map[int]bool{}
		for j := 0; j < 20; j++ {
			want[j] = true
		}
		for j := 20; j < inserted; j++ {
			want[j] = false
		}
		e.expectKeySet(want)
	}

	t.Run("nonleaf", crashAtEveryRecordOfNonleafSplit)
	t.Run("root-collapse", crashAtEveryRecordOfRootCollapse)
}

// crashAtEveryRecordOfNonleafSplit is TestCrashAtEveryRecordOfOneSplit's
// nonleaf case: a leaf split that propagates into a split of its (non-root)
// parent, cut at every record of the SMO, under offline and online restart.
// Cut before the dummy CLR, restart rolls both halves back page-oriented,
// the parent's split-left from the cells its new page still holds; cut at
// the dummy CLR, the SMO stands. Either way the tree is sound and holds the
// committed keys alone.
func crashAtEveryRecordOfNonleafSplit(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	e.insertRange(setup, 0, 400)
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if h, _ := e.ix.Height(); h < 3 {
		t.Fatalf("setup tree of height %d, want 3 or more", h)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	flushed := e.disk.WriteCount()

	// The loser inserts until one insert's SMO splits two pages, a leaf and
	// its parent, below the root.
	tx := e.tm.Begin()
	var region []wal.LSN // the SMO's records, its first FSM allocation to its dummy CLR
	var splitLefts []wal.LSN
	i := 400
	for region == nil {
		mark := e.log.MaxLSN()
		if err := e.ix.Insert(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		i++
		if i > 3000 {
			t.Fatal("no split propagated into a nonleaf split")
		}
		var recs, lefts []wal.LSN
		for _, r := range e.log.SnapshotFrom(mark + 1) {
			if r.TxID != tx.ID || (recs == nil && r.Op != wal.OpFSMAlloc) {
				continue
			}
			recs = append(recs, r.LSN)
			if r.Op == wal.OpIdxSplitLeft {
				lefts = append(lefts, r.LSN)
			}
			if r.Type == wal.RecDummyCLR {
				break
			}
		}
		if len(lefts) == 2 {
			region, splitLefts = recs, lefts
		}
	}
	// Every cut is a legal crash point only while the disk holds nothing
	// the loser wrote.
	if w := e.disk.WriteCount(); w != flushed {
		t.Fatalf("%d page writes during the loser's inserts", w-flushed)
	}

	want := map[int]bool{}
	for j := 0; j < i; j++ {
		want[j] = j < 400
	}
	e.sweepCuts(t, region, want, func(t *testing.T, f *env, cut wal.LSN) {
		unsplits, wantUnsplits := 0, 0
		for _, l := range splitLefts {
			if l <= cut && cut < region[len(region)-1] {
				wantUnsplits++
			}
		}
		for _, r := range f.log.SnapshotFrom(cut + 1) {
			if r.IsCLR() && r.Op == wal.OpIdxUnsplitLeft {
				unsplits++
			}
		}
		if unsplits != wantUnsplits {
			t.Fatalf("cut at %d: %d unsplit-left CLRs, want %d", cut, unsplits, wantUnsplits)
		}
	})
}

// sweepCuts forks e's stable state at every cut in region, restarts each
// fork offline and online, and requires a sound tree holding exactly the
// keys want marks present; check, if set, then inspects the restarted fork.
func (e *env) sweepCuts(t *testing.T, region []wal.LSN, want map[int]bool, check func(t *testing.T, f *env, cut wal.LSN)) {
	for _, mode := range []string{"offline", "online"} {
		t.Run(mode, func(t *testing.T) {
			for _, cut := range region {
				f := e.fork(cut)
				f.t = t
				if mode == "online" {
					o, err := StartOnline(f.log, f.pool, f.tm, f.locks, f.stats, nil, OnlineOpts{})
					if err != nil {
						t.Fatalf("cut at %d: %v", cut, err)
					}
					if _, err := o.Wait(); err != nil {
						t.Fatalf("cut at %d: %v", cut, err)
					}
				} else if _, err := RestartWith(f.log, f.pool, f.tm, f.locks, f.stats, nil, RestartOpts{}); err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if check != nil {
					check(t, f, cut)
				}
				f.expectKeySet(want)
			}
		})
	}
}

// crashAtEveryRecordOfRootCollapse is TestCrashAtEveryRecordOfOneSplit's
// root-collapse case: a loser empties the left leaf of a two-leaf tree, and
// the page deletion leaves the root one child, which the root absorbs. The
// log is cut at every record from the emptying key delete to the SMO's dummy
// CLR, under offline and online restart; every committed key is back and the
// tree is sound.
func crashAtEveryRecordOfRootCollapse(t *testing.T) {
	e := newEnv(t, core.Config{ID: 1})
	setup := e.tm.Begin()
	n := 0
	for e.stats.PageSplits.Load() == 0 {
		if err := e.ix.Insert(setup, key(n)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	flushed := e.disk.WriteCount()

	tx := e.tm.Begin()
	var region []wal.LSN // the collapsing delete's records, to its dummy CLR
	for i := 0; region == nil; i++ {
		if i == n {
			t.Fatal("draining the left leaf collapsed no root")
		}
		mark := e.log.MaxLSN()
		if err := e.ix.Delete(tx, key(i)); err != nil {
			t.Fatal(err)
		}
		if h, _ := e.ix.Height(); h > 1 {
			continue
		}
		for _, r := range e.log.SnapshotFrom(mark + 1) {
			if r.TxID != tx.ID {
				continue
			}
			region = append(region, r.LSN)
			if r.Type == wal.RecDummyCLR {
				break
			}
		}
	}
	if w := e.disk.WriteCount(); w != flushed {
		t.Fatalf("%d page writes during the loser's deletes", w-flushed)
	}
	want := map[int]bool{}
	for j := 0; j < n; j++ {
		want[j] = true
	}
	e.sweepCuts(t, region, want, nil)
}

package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, name, src string) parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return parsedFile{path: name, fset: fset, file: f}
}

// TestReadOnlyPathFlagsIndexScanLockCall is the gate's negative test: a
// snapshotScanIndex that reaches a locked fetch (here via a helper, to
// prove the walk is transitive) must be flagged.
func TestReadOnlyPathFlagsIndexScanLockCall(t *testing.T) {
	src := `package db

func (t *Table) snapshotScanIndex(sec *secondary) error {
	return t.walkEntries(sec)
}

func (t *Table) walkEntries(sec *secondary) error {
	_, _, err := sec.ix.Fetch(nil, nil, 0) // locked fetch on the snapshot path
	return err
}
`
	if n := readOnlyPath.lint([]parsedFile{parseSrc(t, "bad.go", src)}); n == 0 {
		t.Fatal("locked Fetch reachable from snapshotScanIndex was not flagged")
	}
}

// TestReadOnlyPathAllowsLatchOnlyIndexScan is the matching positive case:
// the sanctioned NoLock fetches and a re-dispatch through snapshotScan
// must pass clean, and the locked arm of the ScanIndexRange dispatcher
// must not false-positive the gate.
func TestReadOnlyPathAllowsLatchOnlyIndexScan(t *testing.T) {
	src := `package db

func (t *Table) snapshotScanIndex(sec *secondary) error {
	return t.snapshotScan(nil, nil, nil)
}

func (t *Table) snapshotScan(s, from, to any) error {
	_, _, err := t.primary.FetchNoLock(nil, 0)
	return err
}

func (t *Table) ScanIndexRange(name string) error {
	if t == nil { // the snapshot arm re-enters via snapshotScanIndex (a root)
		return t.snapshotScanIndex(nil)
	}
	_, err := t.fetchRow(nil, nil) // locked arm: legitimate for ordinary txns
	return err
}
`
	if n := readOnlyPath.lint([]parsedFile{parseSrc(t, "good.go", src)}); n != 0 {
		t.Fatalf("latch-only index scan flagged %d finding(s); want 0", n)
	}
}

// scanThroughStore is a snapshotScan that answers its windows from the
// version store, as package db's does.
const scanThroughStore = `package db

func (t *Table) snapshotScanIndex(sec *secondary) error {
	return t.snapshotScan(nil, nil, nil)
}

func (t *Table) snapshotScan(s, from, to any) error {
	_, err := t.vs.RowsBetween(t.id, "", true, "", false, true, 0)
	return err
}
`

// TestReadOnlyPathFlagsLockCallInStoreIterator: the walk crosses from
// package db into package mvcc, so a chain iterator that RowsBetween
// drives is held to the zero-lock rule although no db function names it.
func TestReadOnlyPathFlagsLockCallInStoreIterator(t *testing.T) {
	store := `package mvcc

func (st *Store) RowsBetween(tableID uint64, lo string, loIncl bool, hi string, hiIncl, hiUnbounded bool, s uint64) ([]Row, error) {
	it := st.table(tableID).index.iterate(lo)
	return it.collect(hi)
}

func (it *chainIterator) collect(hi string) ([]Row, error) {
	if err := it.st.locks.Request(it.owner, it.name, 0, 0); err != nil { // a range lock on the window
		return nil, err
	}
	return nil, nil
}
`
	pkg := []parsedFile{parseSrc(t, "scan.go", scanThroughStore), parseSrc(t, "store.go", store)}
	if n := readOnlyPath.lint(pkg); n == 0 {
		t.Fatal("lock-manager call in an mvcc iterator reachable from snapshotScan was not flagged")
	}
}

// TestReadOnlyPathAllowsMutexInStoreIterator is the matching positive
// case: the store's own mutexes (Lock and Unlock without a lock name) and
// its index walk pass clean, and a locking helper the snapshot path does
// not reach is not held against it.
func TestReadOnlyPathAllowsMutexInStoreIterator(t *testing.T) {
	store := `package mvcc

func (st *Store) RowsBetween(tableID uint64, lo string, loIncl bool, hi string, hiIncl, hiUnbounded bool, s uint64) ([]Row, error) {
	tc := st.table(tableID)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, _ := tc.index.seek(lo, nil)
	return collect(c, hi), nil
}

func (ix *chainIndex) seek(k string, path *indexPath) (*chain, uint64) { return ix.after(nil, 0), 0 }

func (st *Store) auditUnderLock() error {
	return st.locks.Request(0, "audit", 0, 0) // not reachable from a snapshot root
}
`
	pkg := []parsedFile{parseSrc(t, "scan.go", scanThroughStore), parseSrc(t, "store.go", store)}
	if n := readOnlyPath.lint(pkg); n != 0 {
		t.Fatalf("latch-free store iterator flagged %d finding(s); want 0", n)
	}
}

// TestReadOnlyPathFlagsCommit: a snapshot read that begins and commits a
// transaction of its own — here to clear a page bit it tripped over — writes
// the log from inside a read, and must be flagged like a lock call.
func TestReadOnlyPathFlagsCommit(t *testing.T) {
	src := `package db

func (t *Table) snapshotGet(s uint64, key []byte) ([]byte, bool, error) {
	return t.resolveKey(s, key)
}

func (t *Table) resolveKey(s uint64, key []byte) ([]byte, bool, error) {
	if err := t.housekeeping(); err != nil {
		return nil, false, err
	}
	return nil, false, nil
}

func (t *Table) housekeeping() error {
	tx, err := t.db.Begin()
	if err != nil {
		return err
	}
	return tx.Commit()
}
`
	if n := readOnlyPath.lint([]parsedFile{parseSrc(t, "bad.go", src)}); n == 0 {
		t.Fatal("Commit reachable from snapshotGet was not flagged")
	}
}

// latchOnlyScan is a snapshotScan that positions its cursor with the index
// manager's latch-only fetch, as package db's does.
const latchOnlyScan = `package db

func (t *Table) snapshotScan(s, from, to any) error {
	_, _, err := t.primary.FetchNoLock(nil, 0)
	return err
}

func (d *DB) EndReadOnly(tx *txn.Tx) error {
	return tx.Rollback()
}
`

// TestReadOnlyPathFlagsLockCallInTraverse: the walk crosses from package db
// into package core, so a traversal the latch-only fetch shares with the
// locked ones is held to the snapshot rules although no db function names
// it.
func TestReadOnlyPathFlagsLockCallInTraverse(t *testing.T) {
	index := `package core

func (ix *Index) FetchNoLock(val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	leaf, err := ix.traverse(probeFor(val, op), false)
	return ix.seal(leaf), nil, err
}

func (ix *Index) traverse(probe storage.Key, forUpdate bool) (*buffer.Frame, error) {
	return ix.descend(probe, forUpdate)
}

func (ix *Index) descend(probe storage.Key, forUpdate bool) (*buffer.Frame, error) {
	ix.tx.Lock(ix.treeName, 0, 0, false) // a tree lock on the way down
	return nil, nil
}
`
	pkg := []parsedFile{parseSrc(t, "scan.go", latchOnlyScan), parseSrc(t, "index.go", index)}
	if n := readOnlyPath.lint(pkg); n == 0 {
		t.Fatal("lock-manager call in core's traverse reachable from snapshotScan was not flagged")
	}
}

// TestReadOnlyPathAllowsLatchOnlyTraverse is the matching positive case: a
// traverse that tries and waits on the tree latch passes clean, and core's
// locked fetch and its logging insert, which no snapshot root reaches, are
// not held against it; nor is the Rollback that ends a locked fallback
// reader.
func TestReadOnlyPathAllowsLatchOnlyTraverse(t *testing.T) {
	index := `package core

func (ix *Index) FetchNoLock(val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	leaf, err := ix.traverse(probeFor(val, op), false)
	return ix.seal(leaf), nil, err
}

func (ix *Index) traverse(probe storage.Key, forUpdate bool) (*buffer.Frame, error) {
	for {
		if ix.treeLatch.TryAcquire(latch.S) {
			ix.treeLatch.Release(latch.S)
			return nil, nil
		}
		ix.treeLatch.AcquireInstant(latch.S)
	}
}

func (ix *Index) Fetch(tx *txn.Tx, val []byte, op SearchOp) (FetchResult, *Cursor, error) {
	tx.Lock(ix.keyName(val), 0, 0, false)
	return FetchResult{}, nil, nil
}

func (ix *Index) Insert(tx *txn.Tx, key storage.Key) error {
	return tx.Commit()
}
`
	pkg := []parsedFile{parseSrc(t, "scan.go", latchOnlyScan), parseSrc(t, "index.go", index)}
	if n := readOnlyPath.lint(pkg); n != 0 {
		t.Fatalf("latch-only traverse flagged %d finding(s); want 0", n)
	}
}

// TestAppendPathFlagsExclusiveLock is the append gate's negative test: a
// serializing latch on Append — directly or in a helper reserveFill calls —
// must be flagged.
func TestAppendPathFlagsExclusiveLock(t *testing.T) {
	src := `package wal

func (l *Log) Append(r *Record) LSN {
	l.crashMu.RLock()
	defer l.crashMu.RUnlock()
	return l.reserveFill(r, 0)
}

func (l *Log) reserveFill(r *Record, enc int) LSN {
	l.account(enc)
	return 0
}

func (l *Log) account(enc int) {
	l.mu.Lock() // an appender serializing on the log mutex
	l.bytes += enc
	l.mu.Unlock()
}
`
	if n := appendPath.lint([]parsedFile{parseSrc(t, "bad.go", src)}); n == 0 {
		t.Fatal("exclusive Lock reachable from Append was not flagged")
	}
}

// TestAppendPathReachesRingWait holds the gate to the log's own source: the
// wal package as it stands passes, and the same package with an exclusive
// Lock in awaitRing — the back-pressure wait an appender spins in when it
// runs a ring's length ahead of the watermark — fails.
func TestAppendPathReachesRingWait(t *testing.T) {
	paths, err := filepath.Glob("../../internal/wal/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("wal sources: %v %v", paths, err)
	}
	const wait = "func (l *Log) awaitRing(t uint64) {"
	var pkg, locked []parsedFile
	found := false
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pkg = append(pkg, parseSrc(t, path, string(src)))
		mutated := strings.Replace(string(src), wait, wait+"\n\tl.mu.Lock()\n\tdefer l.mu.Unlock()", 1)
		locked = append(locked, parseSrc(t, path, mutated))
		found = found || mutated != string(src)
	}
	if !found {
		t.Fatalf("no wal source declares %q", wait)
	}
	if n := appendPath.lint(pkg); n != 0 {
		t.Fatalf("the wal package flagged %d finding(s); want 0", n)
	}
	if n := appendPath.lint(locked); n == 0 {
		t.Fatalf("an exclusive Lock in awaitRing (%q) was not flagged", wait)
	}
}

// TestAppendPathAllowsSharedFenceAndForce is the matching positive case:
// the shared side of the crash fence passes, the mutex-guarded flush
// pipeline behind Force is not the append path's concern, a same-named
// function in another package does not join the walk, and a lock-manager
// Lock (which takes a name) is not a mutex.
func TestAppendPathAllowsSharedFenceAndForce(t *testing.T) {
	src := `package wal

func (l *Log) Append(r *Record) LSN {
	l.crashMu.RLock()
	lsn := l.reserveFill(r, 0)
	l.crashMu.RUnlock()
	return lsn
}

func (l *Log) reserveFill(r *Record, enc int) LSN {
	l.resv.Add(1)
	l.locks.Lock(r.owner, r.name)
	return 0
}

func (l *Log) AppendForce(r *Record) LSN {
	lsn := l.Append(r)
	l.Force(lsn)
	return lsn
}

func (l *Log) Force(lsn LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return true
}
`
	other := `package buffer

func (p *Pool) reserveFill() {
	p.mu.Lock()
	p.mu.Unlock()
}
`
	pkg := []parsedFile{parseSrc(t, "good.go", src), parseSrc(t, "pool.go", other)}
	if n := appendPath.lint(pkg); n != 0 {
		t.Fatalf("lock-free append path flagged %d finding(s); want 0", n)
	}
}

// TestPathCheckFlagsNameWithNoFunction: a root or stop that no function of
// the check's packages declares is a finding once all of them are linted
// (a renamed root would otherwise leave the gate), while a call the walk
// reaches into another package is not.
func TestPathCheckFlagsNameWithNoFunction(t *testing.T) {
	check := pathCheck{
		packages: map[string]bool{"p": true},
		roots:    []string{"Root", "Renamed"},
		stops:    []string{"Stop", "Gone"},
		finding:  func(*ast.CallExpr) (bool, string) { return false, "" },
		rule:     "a test path (via %s)",
	}
	src := `package p

func Root() { Stop(); other.Call() }

func Stop() {}
`
	pkg := []parsedFile{parseSrc(t, "p.go", src)}
	if n := check.lint(pkg); n != 2 {
		t.Fatalf("%d finding(s) for one missing root and one missing stop; want 2", n)
	}
	check.roots = []string{"Root"}
	check.stops = []string{"Stop"}
	if n := check.lint(pkg); n != 0 {
		t.Fatalf("%d finding(s) with every name declared; want 0", n)
	}
	if n := check.lint([]parsedFile{parseSrc(t, "q.go", "package q\n")}); n != 0 {
		t.Fatalf("%d finding(s) with the check's package not linted; want 0", n)
	}
}

// TestFramePageMutationFlagged: a resource manager that logs a record and
// then changes the frame's page by hand is flagged, in each of the three
// packages; the same mutators on a redo arm's *storage.Page parameter, on a
// shadow page, or in another package pass.
func TestFramePageMutationFlagged(t *testing.T) {
	for _, pkg := range []string{"core", "data", "space"} {
		bad := `package ` + pkg + `

func (t *Table) Delete(tx *txn.Tx, f *buffer.Frame, pos int) {
	lsn := tx.Log(nil)
	f.Page.DeleteCellAt(pos)
	f.Page.SetLSN(uint64(lsn))
}
`
		if n := lintFramePageMutations([]parsedFile{parseSrc(t, "bad.go", bad)}); n != 2 {
			t.Fatalf("package %s: %d finding(s) for two hand mutations of a frame's page; want 2", pkg, n)
		}
	}
	good := `package core

func ApplyRedo(p *storage.Page, rec *wal.Record) error {
	p.SetFlags(0)
	return p.InsertCellAt(0, rec.Payload)
}

func (ix *Index) formatFromShadow(tx *txn.Tx, f *buffer.Frame) {
	shadow := storage.NewPage(len(f.Page.Bytes()))
	shadow.Format(ix.root, storage.PageTypeIndex, 0)
	tx.ApplyUpdate(ix.pool, f, ApplyRedo, wal.OpIdxFormat, shadow.Bytes(), false)
}
`
	if n := lintFramePageMutations([]parsedFile{parseSrc(t, "good.go", good)}); n != 0 {
		t.Fatalf("redo arm and shadow page flagged %d finding(s); want 0", n)
	}
	other := `package recovery

func replay(f *buffer.Frame, lsn uint64) { f.Page.SetLSN(lsn) }
`
	if n := lintFramePageMutations([]parsedFile{parseSrc(t, "other.go", other)}); n != 0 {
		t.Fatalf("package recovery flagged %d finding(s); want 0", n)
	}
}

// TestStatsNilGuardFlagged holds the never-nil sink rule to the tree: every
// Go file of the module passes, and a guard put back on a log's sink fails. A constructor comparing its stats parameter and db.Options
// comparing its Stats field are not guards on a held sink, and pass.
func TestStatsNilGuardFlagged(t *testing.T) {
	files := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return fs.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		if n := lintStatsGuards(parseSrc(t, path, string(src))); n != 0 {
			t.Errorf("%s: %d stats nil guard(s); want 0", path, n)
		}
		return nil
	})
	if err != nil || files < 100 {
		t.Fatalf("walked %d Go files: %v", files, err)
	}
	// Assembled from two parts, so that grepping the tree for the guard
	// finds none.
	guard := "if l.stats " + "!= nil {"
	guarded := parseSrc(t, "guarded.go", "package wal\n\nfunc (l *Log) flushed() {\n\t"+guard+"\n\t\tl.stats.LogForces.Add(1)\n\t}\n}\n")
	if n := lintStatsGuards(guarded); n != 1 {
		t.Fatalf("%s flagged %d time(s); want 1", guard, n)
	}
	allowed := parseSrc(t, "allowed.go", `package db

func NewLog(stats *Stats) *Log {
	if stats == nil {
		stats = &Stats{}
	}
	return &Log{stats: stats}
}

func (o Options) withDefaults() Options {
	if o.Stats == nil {
		o.Stats = &Stats{}
	}
	return o
}
`)
	if n := lintStatsGuards(allowed); n != 0 {
		t.Fatalf("a constructor's parameter check and o.Stats flagged %d time(s); want 0", n)
	}
}

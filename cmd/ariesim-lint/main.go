// Command ariesim-lint is the in-repo stand-in for staticcheck: a small
// std-lib-only linter so `make staticcheck` can block the CI gate even on
// machines where staticcheck itself is not installed. It checks:
//
//   - gofmt cleanliness (the file must equal its go/format rendering)
//   - comparisons of a value against the literals true/false
//   - self-assignment (x = x)
//   - time.Now().Sub(t), which should be time.Since(t)
//   - empty else branches (else {})
//   - lock-manager calls and transaction commits reachable from the
//     snapshot read-only path in package db and, through it, in packages
//     mvcc and core (the MVCC contract: readers take no locks and write no
//     log, so a locked fetch, a lock.Manager request or a Commit anywhere
//     the snapshot path can reach is a bug, not a style problem)
//   - exclusive mutex acquisitions reachable from the log append path in
//     package wal (the append path is a lock-free reservation pipeline:
//     appenders share crashMu's read side and must never serialize)
//   - a storage.Page mutator called on a buffer frame's page (x.Page.M(...))
//     in packages core, data and space: a logged page action changes its
//     page only through its resource manager's ApplyRedo, which
//     txn.Tx.ApplyUpdate / ApplyCLR run on the record they log (redo arms
//     change their *storage.Page parameter, which is not a frame's page)
//   - a field named stats compared with nil: every constructor that takes
//     a *trace.Stats substitutes a fresh sink for nil, so no component
//     holds a nil one and such a guard is dead code
//
// Usage mirrors the go tool: `ariesim-lint ./...` walks the tree rooted at
// the current directory; bare directory arguments lint just that package
// directory. Any finding is printed as file:line: message and the exit
// status is 1.
package main

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var files []string
	for _, arg := range args {
		root, recursive := arg, false
		if strings.HasSuffix(arg, "/...") {
			root, recursive = strings.TrimSuffix(arg, "/..."), true
			if root == "." || root == "" {
				root = "."
			}
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if !recursive && path != root {
					return fs.SkipDir
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
					return fs.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ariesim-lint: %s: %v\n", arg, err)
			os.Exit(2)
		}
	}

	findings := 0
	var parsed []parsedFile
	for _, path := range files {
		n, pf := lintFile(path)
		findings += n
		if pf.file != nil && !strings.HasSuffix(path, "_test.go") {
			parsed = append(parsed, pf)
		}
	}
	for _, c := range []pathCheck{readOnlyPath, appendPath} {
		findings += c.lint(parsed)
	}
	findings += lintFramePageMutations(parsed)
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "ariesim-lint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// parsedFile is one successfully parsed source file, kept for the
// package-level passes that need more than a single file's AST.
type parsedFile struct {
	path string
	fset *token.FileSet
	file *ast.File
}

func lintFile(path string) (int, parsedFile) {
	src, err := os.ReadFile(path)
	if err != nil {
		report(token.Position{Filename: path}, "unreadable: %v", err)
		return 1, parsedFile{}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		report(token.Position{Filename: path}, "parse error: %v", err)
		return 1, parsedFile{}
	}
	n := 0
	if formatted, err := format.Source(src); err == nil && string(formatted) != string(src) {
		report(token.Position{Filename: path, Line: 1}, "file is not gofmt-formatted")
		n++
	}
	ast.Inspect(f, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if id, ok := side.(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
						report(fset.Position(x.Pos()), "comparison with literal %s; use the value (or its negation) directly", id.Name)
						n++
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if sameIdentChain(x.Lhs[i], x.Rhs[i]) {
						report(fset.Position(x.Pos()), "self-assignment")
						n++
					}
				}
			}
		case *ast.CallExpr:
			// time.Now().Sub(t) -> time.Since(t)
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sub" {
				if inner, ok := sel.X.(*ast.CallExpr); ok {
					if isel, ok := inner.Fun.(*ast.SelectorExpr); ok && isel.Sel.Name == "Now" {
						if pkg, ok := isel.X.(*ast.Ident); ok && pkg.Name == "time" {
							report(fset.Position(x.Pos()), "time.Now().Sub(t); use time.Since(t)")
							n++
						}
					}
				}
			}
		case *ast.IfStmt:
			if blk, ok := x.Else.(*ast.BlockStmt); ok && len(blk.List) == 0 {
				report(fset.Position(blk.Pos()), "empty else branch")
				n++
			}
		}
		return true
	})
	pf := parsedFile{path: path, fset: fset, file: f}
	return n + lintStatsGuards(pf), pf
}

// lintStatsGuards reports every comparison of a field named stats with nil
// in pf. A constructor's stats parameter is an identifier, not a field, so
// the substitution itself is not flagged.
func lintStatsGuards(pf parsedFile) int {
	n := 0
	ast.Inspect(pf.file, func(node ast.Node) bool {
		x, ok := node.(*ast.BinaryExpr)
		if !ok || (x.Op != token.EQL && x.Op != token.NEQ) {
			return true
		}
		for _, pair := range [][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
			sel, isSel := pair[0].(*ast.SelectorExpr)
			id, isIdent := pair[1].(*ast.Ident)
			if isSel && sel.Sel.Name == "stats" && isIdent && id.Name == "nil" {
				report(pf.fset.Position(x.Pos()), "stats field compared with nil; constructors substitute a fresh trace.Stats, so the sink is never nil")
				n++
			}
		}
		return true
	})
	return n
}

// pathCheck is a reachability gate over a name-based call graph: starting
// from roots, it follows every call by callee name through the function
// bodies of the named packages — never descending into stops — and reports
// each call in a reached function that finding rejects. Name-based
// reachability over-approximates (any same-named method joins the walk),
// which is the safe direction for a gate.
type pathCheck struct {
	packages map[string]bool
	roots    []string
	stops    []string
	// finding reports whether call breaks the path's rule, and names it.
	finding func(call *ast.CallExpr) (bad bool, what string)
	// rule completes the message "<what> reachable from <rule>".
	rule string
}

// readOnlyPath keeps the snapshot read path zero-lock and log-free. Package
// db holds its roots (the read-only entry points and their helpers), and
// the version store's lookups (Read, RowsBetween and whatever cursor or
// index they walk) and the index manager's latch-only fetches (FetchNoLock,
// FetchNextNoLock and the traverse they share with the locked fetches) are
// reached from them by name, so a lock-manager call or a Commit added in
// mvcc or core is flagged like one in db. The stops are dual-path
// dispatchers: they branch on tx.Snapshot() between the locked path
// (legitimate for ordinary transactions) and the snapshot path, whose
// branches re-enter through the snapshot* helpers, which are roots — so the
// locked arms don't false-positive the gate.
var readOnlyPath = pathCheck{
	packages: map[string]bool{"db": true, "mvcc": true, "core": true},
	roots: []string{
		"BeginReadOnly", "EndReadOnly", "RunReadOnly", "RunReadOnlyWith",
		"SnapshotBackup", "snapshotGet", "snapshotScan", "snapshotScanIndex",
		"probePage",
	},
	stops:   []string{"Get", "Scan", "ScanPrefix", "ScanIndex", "ScanIndexRange"},
	finding: snapshotReaderCall,
	rule:    "the read-only snapshot path (via %s); snapshot readers take no locks and write no log",
}

// appendPath keeps the log append path free of exclusive mutexes: Append
// claims with one fetch-add and publishes under crashMu's shared side, so
// concurrent appenders never serialize. Force is where the flush pipeline
// (mutex-guarded by design) begins, so the walk stops there.
var appendPath = pathCheck{
	packages: map[string]bool{"wal": true},
	roots:    []string{"Append", "reserveFill"},
	stops:    []string{"Force"},
	finding:  exclusiveLockCall,
	rule:     "the log append path (via %s); appenders must never serialize",
}

// lint runs the check over the files of its packages among parsed. When
// every one of those packages is among them, a root or stop that names no
// function is a finding too: a renamed root would otherwise silently leave
// the gate.
func (c pathCheck) lint(parsed []parsedFile) int {
	decls := map[string][]parsedFile{}
	bodies := map[string][]*ast.FuncDecl{}
	linted := map[string]bool{}
	for _, pf := range parsed {
		if !c.packages[pf.file.Name.Name] {
			continue
		}
		linted[pf.file.Name.Name] = true
		for _, d := range pf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], pf)
				bodies[fd.Name.Name] = append(bodies[fd.Name.Name], fd)
			}
		}
	}
	n := 0
	if len(linted) == len(c.packages) {
		for _, name := range append(slices.Clone(c.roots), c.stops...) {
			if bodies[name] == nil {
				report(token.Position{Filename: "ariesim-lint"}, "path gate root or stop %q names no function in its packages", name)
				n++
			}
		}
	}
	reached := map[string]bool{}
	queue := append([]string(nil), c.roots...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if reached[name] || bodies[name] == nil || slices.Contains(c.stops, name) {
			reached[name] = true
			continue
		}
		reached[name] = true
		for _, fd := range bodies[name] {
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					queue = append(queue, fun.Name)
				case *ast.SelectorExpr:
					queue = append(queue, fun.Sel.Name)
				}
				return true
			})
		}
	}
	for name := range reached {
		if slices.Contains(c.stops, name) {
			continue
		}
		for i, fd := range bodies[name] {
			pf := decls[name][i]
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if bad, what := c.finding(call); bad {
					report(pf.fset.Position(call.Pos()), "%s reachable from "+c.rule, what, name)
					n++
				}
				return true
			})
		}
	}
	return n
}

// pageMutators are the storage.Page methods that change a page.
var pageMutators = []string{
	"Format", "SetFlags", "SetSMBit", "SetDeleteBit", "SetPrev", "SetNext", "SetRightmost",
	"InsertCellAt", "DeleteCellAt", "AddCell", "AddCellAt", "RemoveCell", "ReplaceCell", "SetLSN",
}

// redoOnlyPackages are the resource managers whose logged page actions
// must run through their ApplyRedo.
var redoOnlyPackages = map[string]bool{"core": true, "data": true, "space": true}

// lintFramePageMutations reports every page mutator called on a frame's
// page (x.Page.M(...)) in the non-test files of redoOnlyPackages among
// parsed. Such a call changes a page by hand beside the record that says
// how the page changes, so the two can disagree until a restart replays
// the record.
func lintFramePageMutations(parsed []parsedFile) int {
	n := 0
	for _, pf := range parsed {
		if !redoOnlyPackages[pf.file.Name.Name] {
			continue
		}
		ast.Inspect(pf.file, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(pageMutators, sel.Sel.Name) {
				return true
			}
			if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Page" {
				report(pf.fset.Position(call.Pos()), "Page.%s on a buffer frame's page; apply a logged page action with tx.ApplyUpdate / ApplyCLR and the resource manager's ApplyRedo", sel.Sel.Name)
				n++
			}
			return true
		})
	}
	return n
}

// exclusiveLockCall reports whether call acquires a mutex exclusively: a
// Lock with no arguments (RLock, the shared side, is allowed).
func exclusiveLockCall(call *ast.CallExpr) (bool, string) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" && len(call.Args) == 0 {
		return true, "exclusive mutex Lock"
	}
	return false, ""
}

// snapshotReaderCall reports whether call is something a snapshot reader
// must never do: lock-manager traffic, or a Commit — a reader has nothing
// to commit, so one on its path is a logging transaction begun inside a
// read.
func snapshotReaderCall(call *ast.CallExpr) (bool, string) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Commit" {
		return true, "transaction Commit"
	}
	return lockManagerCall(call)
}

// lockManagerCall reports whether call is lock-manager traffic: the
// locked read helper, a locked fetch variant, Lock/Unlock taking a lock
// name (mutexes take none), or any call through a `locks` receiver.
func lockManagerCall(call *ast.CallExpr) (bool, string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "fetchRow" {
			return true, "locked fetch helper fetchRow"
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "fetchRow" {
			return true, "locked fetch helper fetchRow"
		}
		if name == "Fetch" || name == "FetchNext" {
			// The locked index/data variants; FetchNoLock / FetchNextNoLock
			// are the sanctioned snapshot-path forms.
			return true, "locked fetch " + name
		}
		if (name == "Lock" || name == "Unlock") && len(call.Args) > 0 {
			return true, "lock-manager " + name + " call"
		}
		if receiverChainHas(fun.X, "locks") || receiverChainHas(fun.X, "lm") {
			return true, "lock.Manager method " + name
		}
	}
	return false, ""
}

// receiverChainHas reports whether the selector chain expr (x, x.y, x.y.z)
// contains an identifier or field with the given name.
func receiverChainHas(expr ast.Expr, name string) bool {
	for {
		switch x := expr.(type) {
		case *ast.Ident:
			return x.Name == name
		case *ast.SelectorExpr:
			if x.Sel.Name == name {
				return true
			}
			expr = x.X
		case *ast.CallExpr:
			expr = x.Fun
		default:
			return false
		}
	}
}

// sameIdentChain reports whether two expressions are the identical chain of
// plain identifiers and selectors (x, x.y, x.y.z) — the only forms where
// assignment to itself cannot have effects.
func sameIdentChain(a, b ast.Expr) bool {
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		return ok && av.Name == bv.Name
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok && av.Sel.Name == bv.Sel.Name && sameIdentChain(av.X, bv.X)
	}
	return false
}

func report(pos token.Position, fmtStr string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", pos, fmt.Sprintf(fmtStr, args...))
}

// Command ariesim-lint is the in-repo stand-in for staticcheck: a small
// std-lib-only linter so `make staticcheck` can block the CI gate even on
// machines where staticcheck itself is not installed. It checks:
//
//   - gofmt cleanliness (the file must equal its go/format rendering)
//   - comparisons of a value against the literals true/false
//   - self-assignment (x = x)
//   - time.Now().Sub(t), which should be time.Since(t)
//   - empty else branches (else {})
//   - lock-manager calls reachable from the snapshot read-only path in
//     package db and, through it, in package mvcc (the MVCC contract:
//     readers are zero-lock, so a locked fetch or lock.Manager request
//     anywhere the snapshot path can reach is a bug, not a style problem)
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
	var snapshotPkgs []parsedFile
	for _, path := range files {
		n, pf := lintFile(path)
		findings += n
		if pf.file != nil && readOnlyPathPackages[pf.file.Name.Name] && !strings.HasSuffix(path, "_test.go") {
			snapshotPkgs = append(snapshotPkgs, pf)
		}
	}
	findings += lintReadOnlyPath(snapshotPkgs)
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
	return n, parsedFile{path: path, fset: fset, file: f}
}

// readOnlyPathPackages are the packages the snapshot read path runs in:
// db holds its roots, and the version store's lookups (Read, RowsBetween
// and whatever cursor or index they walk) are reached from them by name,
// so a lock-manager call added there is flagged like one in db.
var readOnlyPathPackages = map[string]bool{"db": true, "mvcc": true}

// snapshotRoots are package db's read-only snapshot entry points and
// helpers. Everything reachable from them by name must stay zero-lock.
var snapshotRoots = []string{
	"BeginReadOnly", "EndReadOnly", "RunReadOnly", "RunReadOnlyWith",
	"SnapshotBackup", "snapshotGet", "snapshotRead", "snapshotScan",
	"snapshotScanPrefix", "snapshotScanIndex", "probePage",
	"snapCursorStart", "snapCursorNext",
}

// dispatchStops are dual-path dispatchers: they branch on tx.Snapshot()
// between the locked path (legitimate for ordinary transactions) and the
// snapshot path. The walk does not descend into them — their snapshot
// branches re-enter through the snapshot* helpers, which are roots — so
// their locked arms don't false-positive the gate.
var dispatchStops = map[string]bool{
	"Get": true, "Scan": true, "ScanPrefix": true,
	"ScanIndex": true, "ScanIndexRange": true, "ScanSecondary": true,
}

// lintReadOnlyPath walks a name-based call graph of the given files
// (packages db and mvcc) from the snapshot read-path roots and flags
// lock-manager traffic in any function the walk reaches: calls to the locked read helper fetchRow, to locked
// fetch variants (Fetch/FetchNext — the NoLock forms are the sanctioned
// ones), to Lock/Unlock with arguments (a lock.Manager name, unlike a
// mutex), or to anything through a receiver chain naming the lock
// manager. Name-based reachability over-approximates (any same-named
// method joins the walk), which is the safe direction for a gate.
func lintReadOnlyPath(pkg []parsedFile) int {
	decls := map[string][]parsedFile{}
	bodies := map[string][]*ast.FuncDecl{}
	for _, pf := range pkg {
		for _, d := range pf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], pf)
				bodies[fd.Name.Name] = append(bodies[fd.Name.Name], fd)
			}
		}
	}
	reached := map[string]bool{}
	queue := append([]string(nil), snapshotRoots...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if reached[name] || bodies[name] == nil || dispatchStops[name] {
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
	n := 0
	for name := range reached {
		if dispatchStops[name] {
			continue
		}
		for i, fd := range bodies[name] {
			pf := decls[name][i]
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if bad, what := lockManagerCall(call); bad {
					report(pf.fset.Position(call.Pos()),
						"%s reachable from the read-only snapshot path (via %s); snapshot readers must stay zero-lock", what, name)
					n++
				}
				return true
			})
		}
	}
	return n
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

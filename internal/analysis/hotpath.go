package analysis

import (
	"go/ast"
	"go/types"
)

// HotPath flags calls that do not belong on the monitoring hot path. A
// dispatch runs synchronously inside the engine's query thread for every
// monitored event, so reading the clock or formatting strings there turns
// into per-query overhead the embedder never asked for. Hot-path
// functions also must not acquire locks that lack a //sqlcm:lock class
// annotation: unclassed locks are invisible to the lockdep machinery
// (the lockorder analyzer and the sqlcmlockdep runtime build), so a
// latch the hot path takes must be part of the declared hierarchy.
// Functions opt in with //sqlcm:hotpath; a deliberate exception (e.g. a
// clock read gated behind an optional latency budget) is suppressed
// line-by-line with //sqlcm:allow <reason>.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid clock reads, fmt allocation and un-annotated locks in //sqlcm:hotpath functions",
	Run:  runHotPath,
}

// bannedCalls maps package import path -> function name -> short reason.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":   "reads the clock on every event",
		"Since": "reads the clock on every event",
		"Until": "reads the clock on every event",
	},
	"fmt": {
		"Sprintf":  "allocates per event",
		"Sprint":   "allocates per event",
		"Sprintln": "allocates per event",
		"Errorf":   "allocates per event",
		"Fprintf":  "formats per event",
		"Fprint":   "formats per event",
		"Fprintln": "formats per event",
		"Printf":   "writes to stdout from the hot path",
		"Print":    "writes to stdout from the hot path",
		"Println":  "writes to stdout from the hot path",
	},
}

// lockAcquireOps are the methods that take a latch when called through a
// selector.
var lockAcquireOps = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
}

func runHotPath(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		allowed := allowedLines(p.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn, "hotpath") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if allowed[p.Fset.Position(call.Pos()).Line] {
					return true
				}
				if lockAcquireOps[sel.Sel.Name] {
					if _, classed := lockClassOf(p.Prog, info, sel.X); !classed {
						name, _ := lockFieldName(sel.X)
						p.Reportf(call.Pos(),
							"acquiring un-annotated lock %s in hot-path function %s: unclassed locks are invisible to lockdep (annotate the field with //sqlcm:lock)",
							name, fn.Name.Name)
					}
					return true
				}
				pkgName, ok := packageQualifier(info, sel.X)
				if !ok {
					return true
				}
				reason, banned := bannedCalls[pkgName][sel.Sel.Name]
				if !banned {
					return true
				}
				p.Reportf(call.Pos(),
					"call to %s.%s in hot-path function %s: %s (suppress with //sqlcm:allow <reason>)",
					sel.X.(*ast.Ident).Name, sel.Sel.Name, fn.Name.Name, reason)
				return true
			})
		}
	}
}

// packageQualifier resolves the X of a selector call to the import path
// of the package it names, using type information when present and
// falling back to the identifier's spelling for unresolved trees.
func packageQualifier(info *types.Info, x ast.Expr) (string, bool) {
	id, ok := unparen(x).(*ast.Ident)
	if !ok {
		return "", false
	}
	switch obj := info.Uses[id].(type) {
	case *types.PkgName:
		return obj.Imported().Path(), true
	case nil:
		// No type info (partial tree): the identifier's name is the best
		// available guess, matching the pre-type-aware behavior.
		return id.Name, true
	}
	return "", false // a local variable, not a package
}

// lockFieldName extracts the field (or local variable) name a lock call
// is made on: the final selector segment, or the bare identifier.
func lockFieldName(recv ast.Expr) (string, bool) {
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name, true
	case *ast.Ident:
		return x.Name, true
	case *ast.ParenExpr:
		return lockFieldName(x.X)
	case *ast.StarExpr:
		return lockFieldName(x.X)
	}
	return "", false
}

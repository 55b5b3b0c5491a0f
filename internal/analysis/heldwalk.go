package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the flow-approximate held-set walk shared by the
// guardedby, cowpublish and lockorder analyzers. Branches are walked on
// cloned held-sets and merged with a maybe-held union, loops are walked
// once, function literals are analyzed inline at their syntactic
// position, goroutine bodies start with nothing held, and same-package
// calls apply a one-level interprocedural summary. Lock receivers and
// field accesses resolve through go/types, so a guarded field or a
// classified mutex is recognized no matter how the expression spells it.

// accessKind classifies one use of a struct field.
type accessKind int

const (
	accRead  accessKind = iota // value read (incl. map/index/element reads)
	accWrite                   // assignment target, IncDec, delete, compound assign
	accAddr                    // address taken (&x.f)
	accCall                    // method called on the field (x.f.Load(), x.wg.Wait())
)

func (k accessKind) String() string {
	switch k {
	case accWrite:
		return "write"
	case accAddr:
		return "address-of"
	case accCall:
		return "call"
	}
	return "read"
}

// heldEntry is how one lock class is held at a program point.
type heldEntry struct {
	pos        token.Pos // acquisition site (function entry when caller-held)
	write      bool      // held via Lock/TryLock, not just the read side
	maybe      bool      // held on only some merged control-flow paths
	fromCaller bool      // seeded by //sqlcm:lock-held or //sqlcm:lock-release, or inherited by an inline callback
	deferred   bool      // a deferred unlock releases it at return
}

// fieldUse is one access to a struct field, delivered to the analyzer
// callback together with the live held-set at that point. The held map
// must not be retained past the callback.
type fieldUse struct {
	obj       types.Object
	pos       token.Pos
	kind      accessKind
	call      string // method name when kind == accCall
	atomicArg bool   // the use is &x.f passed to a sync/atomic function
	fresh     bool   // receiver chain roots at an unpublished local
	held      map[string]*heldEntry
}

// heldSummary is the one-level interprocedural digest of a function,
// applied at same-package call sites.
type heldSummary struct {
	requires []string        // //sqlcm:lock-held classes
	releases []string        // //sqlcm:lock-release classes
	acquires []string        // classes the body itself acquires, sorted
	net      map[string]bool // class -> write-mode held at fall-off exit
}

// heldHooks observe the reporting pass of a package walk (never the
// summary pass). The field-access analyzers set onUse; lockorder sets
// the lock-event hooks, each called before the walk updates its held-set.
type heldHooks struct {
	onUse func(fieldUse)
	// acquire sees a Lock/RLock/TryLock/TryRLock of a classified mutex.
	acquire func(w *heldWalker, class string, pos token.Pos)
	// release sees an Unlock/RUnlock of a classified mutex.
	release func(w *heldWalker, class string, pos token.Pos)
	// unresolved sees a sync mutex operation whose class is unknown.
	unresolved func(w *heldWalker, call *ast.CallExpr, sel *ast.SelectorExpr)
	// call sees every call to a resolved function or method; s is the
	// same-package summary, nil for other callees.
	call func(w *heldWalker, call *ast.CallExpr, callee *types.Func, s *heldSummary)
	// send sees a channel send that can block (not in a select with a
	// default clause).
	send func(w *heldWalker, pos token.Pos)
	// exit sees every return, and the fall-off end of a declared
	// function's body.
	exit func(w *heldWalker, pos token.Pos)
}

// walkHeldPackage walks every function of the package, delivering field
// accesses and lock events to hooks with the held-set current at that
// point.
func walkHeldPackage(p *Pass, hooks *heldHooks) {
	sums := map[types.Object]*heldSummary{}
	// Pass 1: summaries, with the hooks disabled.
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj := p.Pkg.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			sums[obj] = walkHeldFunc(p, fn, sums, &heldHooks{})
		}
	}
	// Pass 2: re-walk with summaries applied and the hooks enabled.
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			walkHeldFunc(p, fn, sums, hooks)
		}
	}
}

// heldFunc is the per-function state every clone of a walker shares.
type heldFunc struct {
	releases map[string]bool       // //sqlcm:lock-release classes
	acquired map[string]bool       // classes acquired anywhere in the body
	fresh    map[types.Object]bool // locals holding unpublished values
}

// walkHeldFunc walks one function and returns its summary.
func walkHeldFunc(p *Pass, fn *ast.FuncDecl, sums map[types.Object]*heldSummary, hooks *heldHooks) *heldSummary {
	s := &heldSummary{
		requires: funcDirectiveArgs(fn, "lock-held"),
		releases: funcDirectiveArgs(fn, "lock-release"),
		net:      map[string]bool{},
	}
	w := &heldWalker{
		pass:  p,
		info:  p.Pkg.Info,
		sums:  sums,
		hooks: hooks,
		fn: &heldFunc{
			releases: map[string]bool{},
			acquired: map[string]bool{},
			fresh:    freshLocals(p.Pkg.Info, fn),
		},
		held: map[string]*heldEntry{},
	}
	for _, class := range s.requires {
		w.held[class] = &heldEntry{pos: fn.Pos(), write: true, fromCaller: true}
	}
	for _, class := range s.releases {
		w.fn.releases[class] = true
		w.held[class] = &heldEntry{pos: fn.Pos(), write: true, fromCaller: true}
	}
	if fn.Body == nil {
		return s
	}
	if !w.walkBlock(fn.Body.List) && hooks.exit != nil {
		hooks.exit(w, fn.Body.Rbrace)
	}
	for class, e := range w.held {
		if !e.fromCaller && !e.maybe && !e.deferred {
			s.net[class] = e.write
		}
	}
	for class := range w.fn.acquired {
		s.acquires = append(s.acquires, class)
	}
	sort.Strings(s.acquires)
	return s
}

// heldWalker tracks the held lock classes along one control-flow path.
// Branches run on clones; sums, fn and the hooks are shared.
type heldWalker struct {
	pass  *Pass
	info  *types.Info
	sums  map[types.Object]*heldSummary
	hooks *heldHooks
	fn    *heldFunc
	held  map[string]*heldEntry
}

func (w *heldWalker) clone() *heldWalker {
	nh := make(map[string]*heldEntry, len(w.held))
	for k, v := range w.held {
		c := *v
		nh[k] = &c
	}
	return &heldWalker{pass: w.pass, info: w.info, sums: w.sums, hooks: w.hooks, fn: w.fn, held: nh}
}

// inherit returns a clone for walking a function literal at its
// syntactic position: the held classes are the enclosing function's
// responsibility, so ordering inside the literal is checked against
// them but a return inside it is not a leak.
func (w *heldWalker) inherit() *heldWalker {
	lw := w.clone()
	for _, e := range lw.held {
		e.fromCaller = true
	}
	return lw
}

// unionInto merges o's held-set in: a class held on any incoming path
// stays held, downgraded to maybe when the paths disagree and to the
// read side when only one path holds the write lock.
func (w *heldWalker) unionInto(o *heldWalker) {
	for k, v := range o.held {
		if mine, ok := w.held[k]; ok {
			mine.maybe = mine.maybe || v.maybe
			mine.write = mine.write && v.write
			mine.deferred = mine.deferred || v.deferred
		} else {
			c := *v
			c.maybe = true
			w.held[k] = &c
		}
	}
	for k, mine := range w.held {
		if _, ok := o.held[k]; !ok {
			mine.maybe = true
		}
	}
}

func (w *heldWalker) walkBlock(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if w.walkStmt(st) {
			return true
		}
	}
	return false
}

// walkStmt analyzes one statement and reports whether it terminates the
// current path.
func (w *heldWalker) walkStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := unparen(st.X).(*ast.CallExpr); ok && isBuiltin(w.info, call.Fun, "panic") {
			// A panicking path dies (or is quarantined by a recover
			// upstream): the locks it holds are not a leak.
			for _, a := range call.Args {
				w.scanExpr(a, accRead)
			}
			return true
		}
		w.scanExpr(st.X, accRead)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.scanExpr(e, accRead)
		}
		for _, e := range st.Lhs {
			if _, ok := e.(*ast.Ident); ok {
				continue // plain local write
			}
			w.scanExpr(e, accWrite)
		}
	case *ast.IncDecStmt:
		w.scanExpr(st.X, accWrite)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, accRead)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scanExpr(e, accRead)
		}
		if w.hooks.exit != nil {
			w.hooks.exit(w, st.Pos())
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		w.handleDefer(st.Call)
	case *ast.GoStmt:
		// The goroutine starts with an empty held-set; its body is
		// checked independently.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			gw := w.clone()
			gw.held = map[string]*heldEntry{}
			gw.walkBlock(lit.Body.List)
		}
		for _, a := range st.Call.Args {
			w.scanExpr(a, accRead)
		}
	case *ast.SendStmt:
		if w.hooks.send != nil {
			w.hooks.send(w, st.Arrow)
		}
		w.scanExpr(st.Chan, accRead)
		w.scanExpr(st.Value, accRead)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond, accRead)
		thenW := w.clone()
		thenTerm := thenW.walkBlock(st.Body.List)
		elseW := w.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = elseW.walkStmt(st.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			w.held = elseW.held
		case elseTerm:
			w.held = thenW.held
		default:
			w.held = thenW.held
			w.unionInto(elseW)
		}
	case *ast.BlockStmt:
		return w.walkBlock(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond, accRead)
		body := w.clone()
		body.walkBlock(st.Body.List)
		if st.Post != nil {
			body.walkStmt(st.Post)
		}
		w.unionInto(body)
	case *ast.RangeStmt:
		w.scanExpr(st.X, accRead)
		body := w.clone()
		body.walkBlock(st.Body.List)
		w.unionInto(body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Tag, accRead)
		w.walkCases(st.Body)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Assign != nil {
			w.walkStmt(st.Assign)
		}
		w.walkCases(st.Body)
	case *ast.SelectStmt:
		w.walkSelect(st)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt)
	}
	return false
}

// walkCases walks switch case bodies on clones and unions the states of
// the paths that fall through.
func (w *heldWalker) walkCases(body *ast.BlockStmt) {
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.scanExpr(e, accRead)
		}
		cw := w.clone()
		if !cw.walkBlock(cc.Body) {
			w.unionInto(cw)
		}
	}
}

// walkSelect walks each communication clause on a clone. A send in a
// select with a default clause cannot block, so it is not reported to
// the send hook.
func (w *heldWalker) walkSelect(st *ast.SelectStmt) {
	hasDefault := false
	for _, cs := range st.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, cs := range st.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cw := w.clone()
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			if !hasDefault && w.hooks.send != nil {
				w.hooks.send(cw, send.Arrow)
			}
			cw.scanExpr(send.Chan, accRead)
			cw.scanExpr(send.Value, accRead)
		} else if cc.Comm != nil {
			cw.walkStmt(cc.Comm)
		}
		if !cw.walkBlock(cc.Body) {
			w.unionInto(cw)
		}
	}
}

// handleDefer processes a deferred call. A deferred unlock keeps the
// class held for the rest of the walk (exactly what the access checks
// want) but marks it deferred, so it is no leak at return. A deferred
// literal is walked like an inline callback, after marking the classes
// it unlocks; any other deferred call is scanned for accesses under the
// current held-set, which is the conservative approximation.
func (w *heldWalker) handleDefer(call *ast.CallExpr) {
	if class, ok := w.unlockClass(call); ok {
		if e := w.held[class]; e != nil {
			e.deferred = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if class, ok := w.unlockClass(c); ok && w.held[class] != nil {
					w.held[class].deferred = true
				}
			}
			return true
		})
		w.inherit().walkBlock(lit.Body.List)
		return
	}
	w.scanExpr(call.Fun, accRead)
	for _, a := range call.Args {
		w.scanExpr(a, accRead)
	}
}

// unlockClass resolves an Unlock/RUnlock call on a classified mutex to
// its class.
func (w *heldWalker) unlockClass(call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !lockReleaseOps[sel.Sel.Name] {
		return "", false
	}
	return lockClassOf(w.pass.Prog, w.info, sel.X)
}

// lockReleaseOps are the methods that release a latch when called
// through a selector.
var lockReleaseOps = map[string]bool{"Unlock": true, "RUnlock": true}

// scanExpr classifies field uses in an expression, applying lock
// operations and same-package call summaries along the way.
func (w *heldWalker) scanExpr(e ast.Expr, kind accessKind) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		w.scanExpr(x.X, kind)
	case *ast.SelectorExpr:
		if obj := fieldObjOf(w.info, x); obj != nil {
			w.emit(obj, x.Pos(), kind, "", false, w.isFresh(x.X))
		}
		w.scanExpr(x.X, accRead)
	case *ast.IndexExpr:
		// Writing through an index writes the container the field holds.
		w.scanExpr(x.X, kind)
		w.scanExpr(x.Index, accRead)
	case *ast.SliceExpr:
		w.scanExpr(x.X, kind)
		w.scanExpr(x.Low, accRead)
		w.scanExpr(x.High, accRead)
		w.scanExpr(x.Max, accRead)
	case *ast.StarExpr:
		w.scanExpr(x.X, kind)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			w.scanExpr(x.X, accAddr)
			return
		}
		w.scanExpr(x.X, accRead)
	case *ast.BinaryExpr:
		w.scanExpr(x.X, accRead)
		w.scanExpr(x.Y, accRead)
	case *ast.CallExpr:
		w.scanCall(x)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.scanExpr(kv.Value, accRead)
				continue
			}
			w.scanExpr(el, accRead)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(x.Key, accRead)
		w.scanExpr(x.Value, accRead)
	case *ast.TypeAssertExpr:
		w.scanExpr(x.X, accRead)
	case *ast.FuncLit:
		// Literals run synchronously at their syntactic position in this
		// codebase (scan callbacks): walk inline under the current held-set.
		w.inherit().walkBlock(x.Body.List)
	case *ast.IndexListExpr:
		w.scanExpr(x.X, kind)
	}
}

// scanCall handles one call expression: a lock operation, a raw
// sync/atomic call, a method on a field, a builtin, or a call to a
// resolved function (whose same-package summary is applied).
func (w *heldWalker) scanCall(call *ast.CallExpr) {
	if isBuiltin(w.info, call.Fun, "delete") {
		// builtin delete mutates the map argument.
		if len(call.Args) == 2 {
			w.scanExpr(call.Args[0], accWrite)
			w.scanExpr(call.Args[1], accRead)
		}
		return
	}
	if isRawAtomicCall(w.info, call) {
		for _, arg := range call.Args {
			if obj := addrOfFieldArg(w.info, arg); obj != nil {
				w.emit(obj, arg.Pos(), accAddr, "", true, w.isFreshAddr(arg))
				continue
			}
			w.scanExpr(arg, accRead)
		}
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		op := sel.Sel.Name
		if lockAcquireOps[op] || lockReleaseOps[op] {
			if class, ok := lockClassOf(w.pass.Prog, w.info, sel.X); ok {
				if lockAcquireOps[op] {
					w.acquire(class, op == "Lock" || op == "TryLock", call.Pos())
				} else {
					w.release(class, call.Pos())
				}
				for _, a := range call.Args {
					w.scanExpr(a, accRead)
				}
				return
			}
			if w.hooks.unresolved != nil && isSyncMethod(calleeOf(w.info, call)) {
				w.hooks.unresolved(w, call, sel)
			}
		}
		if obj := fieldObjOf(w.info, sel); obj != nil {
			// A field of function type invoked directly (x.fn(args)).
			w.emit(obj, sel.Pos(), accCall, op, false, w.isFresh(sel.X))
			w.scanExpr(sel.X, accRead)
			for _, a := range call.Args {
				w.scanExpr(a, accRead)
			}
			return
		}
		if inner, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
			if obj := fieldObjOf(w.info, inner); obj != nil {
				// A method invoked on the field itself (x.f.Load(),
				// x.wg.Wait()): sel selects the method, inner the field.
				w.emit(obj, inner.Pos(), accCall, op, false, w.isFresh(inner.X))
				w.scanExpr(inner.X, accRead)
				for _, a := range call.Args {
					w.scanExpr(a, accRead)
				}
				w.applyCall(call)
				return
			}
		}
	}
	w.scanExpr(call.Fun, accRead)
	for _, a := range call.Args {
		w.scanExpr(a, accRead)
	}
	w.applyCall(call)
}

// applyCall shows a resolved call to the call hook, then replays a
// same-package callee's net lock effects at the call site.
func (w *heldWalker) applyCall(call *ast.CallExpr) {
	callee, ok := calleeOf(w.info, call).(*types.Func)
	if !ok {
		return
	}
	s := w.sums[callee]
	if w.hooks.call != nil {
		w.hooks.call(w, call, callee, s)
	}
	if s == nil {
		return
	}
	for class, write := range s.net {
		if _, ok := w.held[class]; !ok {
			w.held[class] = &heldEntry{pos: call.Pos(), write: write}
		}
	}
	for _, class := range s.releases {
		delete(w.held, class)
	}
}

func (w *heldWalker) acquire(class string, write bool, pos token.Pos) {
	w.fn.acquired[class] = true
	if w.hooks.acquire != nil {
		w.hooks.acquire(w, class, pos)
	}
	if e, ok := w.held[class]; ok {
		// A re-acquire on a maybe-held path makes it definite (the
		// double-acquire of a definitely held class is lockorder's report).
		if e.maybe {
			e.pos = pos
		}
		e.maybe = false
		e.write = e.write || write
		e.fromCaller = false
		return
	}
	w.held[class] = &heldEntry{pos: pos, write: write}
}

func (w *heldWalker) release(class string, pos token.Pos) {
	if w.hooks.release != nil {
		w.hooks.release(w, class, pos)
	}
	delete(w.held, class)
}

// isBuiltin reports whether fun names the given predeclared function.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isSyncMethod reports whether obj is a sync.Mutex or sync.RWMutex
// method (possibly promoted through an embedding lockcheck wrapper).
func isSyncMethod(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// emit delivers one field use to the analyzer callback.
func (w *heldWalker) emit(obj types.Object, pos token.Pos, kind accessKind, call string, atomicArg, fresh bool) {
	if w.hooks.onUse == nil {
		return
	}
	w.hooks.onUse(fieldUse{
		obj:       obj,
		pos:       pos,
		kind:      kind,
		call:      call,
		atomicArg: atomicArg,
		fresh:     fresh,
		held:      w.held,
	})
}

// isFresh reports whether the receiver expression roots at a local that
// was freshly allocated in this function (init-before-publish: nobody
// else can see the value yet, so its fields need no lock).
func (w *heldWalker) isFresh(recv ast.Expr) bool {
	id := baseIdentOf(recv)
	if id == nil {
		return false
	}
	obj := w.info.Uses[id]
	if obj == nil {
		obj = w.info.Defs[id]
	}
	return obj != nil && w.fn.fresh[obj]
}

// isFreshAddr applies the freshness check to an &x.f argument.
func (w *heldWalker) isFreshAddr(arg ast.Expr) bool {
	un, ok := unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	sel, ok := unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return w.isFresh(sel.X)
}

// baseIdentOf walks a selector/index/star/paren chain to its root
// identifier, or nil when the chain roots at a call or literal.
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// freshLocals collects the locals of fn assigned (anywhere in the body,
// flow-insensitively) from a fresh allocation: a composite literal, its
// address, or new(T). Accesses through such locals are exempt from guard
// checks — the init-before-publish pattern.
func freshLocals(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	if fn.Body == nil {
		return fresh
	}
	mark := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || !isFreshAlloc(info, rhs) {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			fresh[obj] = true
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// isFreshAlloc reports whether the expression denotes a freshly
// allocated value: T{...}, &T{...}, or new(T).
func isFreshAlloc(info *types.Info, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := unparen(x.X).(*ast.CompositeLit)
		return x.Op == token.AND && ok
	case *ast.CallExpr:
		return isBuiltin(info, x.Fun, "new")
	}
	return false
}

// heldFor reports whether class is held (maybe-held counts — the walk
// merges conservatively) and whether the write side is held.
func heldFor(held map[string]*heldEntry, class string) (ok, write bool) {
	e, ok := held[class]
	if !ok {
		return false, false
	}
	return true, e.write
}

// heldList renders the held classes for diagnostics.
func heldList(held map[string]*heldEntry) string {
	if len(held) == 0 {
		return "no lock"
	}
	return strings.Join(sortedKeys(held), ", ")
}

// funcDirectiveArgs returns the whitespace-separated arguments of every
// //sqlcm:<name> directive line in the function's doc comment.
func funcDirectiveArgs(fn *ast.FuncDecl, name string) []string {
	if fn.Doc == nil {
		return nil
	}
	var args []string
	prefix := "//sqlcm:" + name
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(c.Text)
		if rest, ok := strings.CutPrefix(text, prefix+" "); ok {
			args = append(args, strings.Fields(rest)...)
		}
	}
	return args
}

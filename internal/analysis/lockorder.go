package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// LockOrder turns the //sqlcm:lock annotations into a checked latch
// hierarchy. Each annotation puts a mutex field in a lock class and may
// order it after other classes:
//
//	//sqlcm:lock lat.shard after lat.order
//	mu lockcheck.RWMutex
//
// The annotations of the whole program form one partial-order DAG
// ("lat.shard after lat.order" means lat.order may be held when
// acquiring lat.shard). The analyzer rides the shared held-set walk and
// reports under four tags:
//
//   - lockorder: an acquisition (direct, through a same-package callee's
//     summary, or through another package's LockClasses fact) with no
//     declared path from some held class; a same-class re-acquire; a
//     call to a //sqlcm:lock-held function without its class held.
//   - lockunlock: a Lock with no unlock or defer on some exit, an unlock
//     of a class that is not held, and a //sqlcm:lock-release function
//     still holding its class at a return.
//   - locksend: a channel send outside a select with a default clause,
//     or an Enqueue/TryEnqueue call, while any lock is held.
//   - lockclass: a mutex field without an annotation, a malformed
//     annotation, a lock site whose class cannot be resolved, and
//     unknown or cyclic classes.
//
// Function-level directives refine the walk: //sqlcm:lock-held <class>
// (callers hold the class on entry) and //sqlcm:lock-release <class>
// (the function releases the caller's class before returning, a lock
// handoff). The runtime half of the contract is the sqlcmlockdep build
// of internal/lockcheck.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "declared //sqlcm:lock order, unlock balance, and no blocking sends or outbox enqueues under a latch",
	Run:  runLockOrder,
}

// enqueueOps are outbox methods that must not be called under a lock.
var enqueueOps = map[string]bool{"Enqueue": true, "TryEnqueue": true}

func runLockOrder(p *Pass) {
	h := p.Prog.lockHierarchy()
	if p.Pkg == p.Prog.Packages[0] {
		h.validate(p) // program-wide findings, reported once
	}
	checkMutexFields(p)
	lo := &lockOrder{pass: p, h: h, allow: buildAllowIndex(p)}
	lo.checkDirectives()
	walkHeldPackage(p, &heldHooks{
		acquire:    lo.acquire,
		release:    lo.release,
		unresolved: lo.unresolved,
		call:       lo.call,
		send:       lo.send,
		exit:       lo.exit,
	})
}

// lockClass is one declared lock class, merged over every field naming
// it.
type lockClass struct {
	after  map[string]bool // classes that may be held when acquiring this one
	decl   token.Pos       // first //sqlcm:lock field; NoPos if only guarded fields name it
	fields []string        // pkg.Type.field of each //sqlcm:lock field
	guards []string        // pkg.Type.field of each field the class guards
}

// lockHierarchy is the program's declared lock-order DAG.
type lockHierarchy struct {
	classes map[string]*lockClass
	reach   map[[2]string]bool // reachable cache
}

// lockHierarchy builds (once) the program's lock classes from every
// package's facts, in package then source order.
func (p *Program) lockHierarchy() *lockHierarchy {
	if p.locks != nil {
		return p.locks
	}
	h := &lockHierarchy{classes: map[string]*lockClass{}, reach: map[[2]string]bool{}}
	class := func(name string) *lockClass {
		c := h.classes[name]
		if c == nil {
			c = &lockClass{after: map[string]bool{}}
			h.classes[name] = c
		}
		return c
	}
	for _, pkg := range p.Packages {
		f := pkg.Facts
		objs := make([]types.Object, 0, len(f.LockFields))
		for obj := range f.LockFields {
			objs = append(objs, obj)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
		for _, obj := range objs {
			c := class(f.LockFields[obj])
			if c.decl == token.NoPos {
				c.decl = obj.Pos()
			}
			for _, a := range f.LockAfter[obj] {
				c.after[a] = true
			}
			c.fields = append(c.fields, ownedFieldRef(f, obj))
		}
	}
	for _, pkg := range p.Packages {
		f := pkg.Facts
		for _, guarded := range []map[types.Object]string{f.GuardedBy, f.CowFields} {
			for obj, name := range guarded {
				c := class(name)
				ref := ownedFieldRef(f, obj)
				if !slices.Contains(c.guards, ref) {
					c.guards = append(c.guards, ref)
				}
			}
		}
	}
	p.locks = h
	return h
}

// ownedFieldRef renders an annotated field as pkg.Type.field.
func ownedFieldRef(f *Facts, obj types.Object) string {
	return obj.Pkg().Name() + "." + f.FieldOwner[obj] + "." + obj.Name()
}

// declared reports whether some //sqlcm:lock field declares class.
func (h *lockHierarchy) declared(class string) bool {
	c := h.classes[class]
	return c != nil && c.decl != token.NoPos
}

// reachable reports whether the declared order permits acquiring "to"
// while "from" is held: a transitive chain of after edges from "from"
// to "to".
func (h *lockHierarchy) reachable(from, to string) bool {
	if from == to {
		return false
	}
	key := [2]string{from, to}
	if ok, cached := h.reach[key]; cached {
		return ok
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for name, c := range h.classes {
			if seen[name] || !c.after[cur] {
				continue
			}
			if name == to {
				found = true
				break
			}
			seen[name] = true
			queue = append(queue, name)
		}
	}
	h.reach[key] = found
	return found
}

// validate reports classes ordered after an unknown class, and the
// first cycle in the declared DAG.
func (h *lockHierarchy) validate(p *Pass) {
	names := sortedKeys(h.classes)
	for _, n := range names {
		c := h.classes[n]
		for _, a := range sortedKeys(c.after) {
			if _, ok := h.classes[a]; !ok {
				p.reportTagged("lockclass", c.decl, "lock class %q is declared after unknown class %q", n, a)
			}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var path []string
	var visit func(n string) []string
	visit = func(n string) []string {
		color[n] = grey
		path = append(path, n)
		for _, succ := range names {
			if !h.classes[succ].after[n] {
				continue
			}
			switch color[succ] {
			case grey:
				// A back edge: slice out the cycle.
				for i, q := range path {
					if q == succ {
						return append(append([]string(nil), path[i:]...), succ)
					}
				}
			case white:
				if cyc := visit(succ); cyc != nil {
					return cyc
				}
			}
		}
		color[n] = black
		path = path[:len(path)-1]
		return nil
	}
	for _, n := range names {
		if color[n] != white {
			continue
		}
		path = path[:0]
		if cyc := visit(n); cyc != nil {
			p.reportTagged("lockclass", h.classes[cyc[0]].decl,
				"declared lock order contains a cycle: %s", strings.Join(cyc, " -> "))
			return
		}
	}
}

// checkMutexFields reports the package's named mutex fields that carry
// no (or a malformed) //sqlcm:lock annotation. Embedded mutexes are the
// lockcheck wrappers themselves, not independent locks.
func checkMutexFields(p *Pass) {
	pkgName := p.Pkg.Types.Name()
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 || !isMutexType(p.Pkg.Info.TypeOf(field.Type)) {
						continue
					}
					_, _, found, bad := lockDirective(field)
					switch {
					case bad != "":
						p.reportTagged("lockclass", field.Pos(), "malformed //sqlcm:lock annotation: %s", bad)
					case !found:
						for _, name := range field.Names {
							p.reportTagged("lockclass", field.Pos(),
								"mutex field %s.%s.%s has no //sqlcm:lock annotation", pkgName, ts.Name.Name, name.Name)
						}
					}
				}
			}
		}
	}
}

// isMutexType reports whether t is (a pointer to) sync.Mutex,
// sync.RWMutex or their lockcheck wrappers.
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg()
	name := named.Obj().Name()
	return (pkg.Path() == "sync" || pkg.Name() == "lockcheck") && (name == "Mutex" || name == "RWMutex")
}

// lockOrder carries one package's reporting state for the walk hooks.
type lockOrder struct {
	pass  *Pass
	h     *lockHierarchy
	allow allowIndex
}

func (lo *lockOrder) reportf(tag string, pos token.Pos, format string, args ...any) {
	if lo.allow.covers(lo.pass.Fset, pos) {
		return
	}
	lo.pass.reportTagged(tag, pos, format, args...)
}

// line renders a position as file:line for messages.
func (lo *lockOrder) line(pos token.Pos) string {
	p := lo.pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// checkDirectives reports //sqlcm:lock-held and //sqlcm:lock-release
// directives naming a class nobody declares.
func (lo *lockOrder) checkDirectives() {
	for _, file := range lo.pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, dir := range []string{"lock-held", "lock-release"} {
				for _, class := range funcDirectiveArgs(fn, dir) {
					if _, ok := lo.h.classes[class]; !ok {
						lo.reportf("lockclass", fn.Pos(), "//sqlcm:%s names unknown class %q", dir, class)
					}
				}
			}
		}
	}
}

func (lo *lockOrder) acquire(w *heldWalker, class string, pos token.Pos) {
	if e, ok := w.held[class]; ok {
		// Maybe-held: this acquire makes it definite, and the order
		// against the other classes held from the first acquisition.
		if !e.maybe {
			lo.reportf("lockorder", pos, "acquiring %q while already holding it (acquired at %s)", class, lo.line(e.pos))
		}
		return
	}
	lo.checkOrder(w, pos, fmt.Sprintf("acquiring %q", class), class)
}

// checkOrder reports every held class with no declared path to class;
// what describes the acquisition for the message.
func (lo *lockOrder) checkOrder(w *heldWalker, pos token.Pos, what, class string) {
	for _, held := range sortedKeys(w.held) {
		if !lo.h.reachable(held, class) {
			lo.reportf("lockorder", pos, "%s while holding %q: no declared order path %s -> %s (see docs/lock-order.md)",
				what, held, held, class)
		}
	}
}

func (lo *lockOrder) release(w *heldWalker, class string, pos token.Pos) {
	if _, ok := w.held[class]; !ok && !w.fn.releases[class] {
		lo.reportf("lockunlock", pos, "unlock of %q which is not held on this path", class)
	}
}

func (lo *lockOrder) unresolved(w *heldWalker, call *ast.CallExpr, sel *ast.SelectorExpr) {
	lo.reportf("lockclass", call.Pos(),
		"cannot resolve the lock class of %s.%s(); annotate the field with //sqlcm:lock or keep the receiver locally inferable",
		types.ExprString(sel.X), sel.Sel.Name)
}

// call checks a call made with locks held: outbox enqueues, a
// same-package callee's one-level summary (its required, acquired and
// released classes), and another package's callee's LockClasses fact.
// The held-set itself is updated by the walk afterwards.
func (lo *lockOrder) call(w *heldWalker, call *ast.CallExpr, callee *types.Func, s *heldSummary) {
	pos := call.Pos()
	if enqueueOps[callee.Name()] && len(w.held) > 0 {
		lo.reportf("locksend", pos, "outbox enqueue while holding %s; enqueue after unlocking", quotedList(sortedKeys(w.held)))
	}
	if s != nil {
		name := funcName(callee)
		for _, req := range s.requires {
			if _, ok := w.held[req]; !ok {
				lo.reportf("lockorder", pos, "call to %s requires %q to be held (//sqlcm:lock-held)", name, req)
			}
		}
		for _, class := range s.acquires {
			// A class the callee releases is a lock handoff: its
			// lifecycle is the callee's, validated by //sqlcm:lock-held.
			if !slices.Contains(s.releases, class) {
				lo.checkCallAcquire(w, pos, "call to "+name+" acquires", class)
			}
		}
		for _, class := range s.releases {
			if _, ok := w.held[class]; !ok && !w.fn.releases[class] {
				lo.reportf("lockunlock", pos, "call to %s releases %q which is not held", name, class)
			}
		}
		return
	}
	if callee.Pkg() == lo.pass.Pkg.Types || len(w.held) == 0 {
		return
	}
	if ff := lo.pass.FactsFor(callee); ff != nil {
		name := callee.Pkg().Name() + "." + funcName(callee)
		for _, class := range ff.LockClasses[callee] {
			lo.checkCallAcquire(w, pos, "call to "+name+" may acquire", class)
		}
	}
}

// checkCallAcquire order-checks one class a callee acquires.
func (lo *lockOrder) checkCallAcquire(w *heldWalker, pos token.Pos, what, class string) {
	if e, ok := w.held[class]; ok {
		if !e.maybe {
			lo.reportf("lockorder", pos, "%s %q which is already held", what, class)
		}
		return
	}
	lo.checkOrder(w, pos, fmt.Sprintf("%s %q", what, class), class)
}

func (lo *lockOrder) send(w *heldWalker, pos token.Pos) {
	if len(w.held) > 0 {
		lo.reportf("locksend", pos,
			"channel send while holding %s; move the send outside the critical section or use select with default",
			quotedList(sortedKeys(w.held)))
	}
}

// exit requires every lock acquired on this path to be released or
// covered by a defer, and every //sqlcm:lock-release class released.
func (lo *lockOrder) exit(w *heldWalker, pos token.Pos) {
	for _, class := range sortedKeys(w.held) {
		e := w.held[class]
		if e.deferred || e.fromCaller || e.maybe {
			continue
		}
		lo.reportf("lockunlock", pos, "lock %q acquired at %s may still be held at this return (missing unlock or defer)",
			class, lo.line(e.pos))
	}
	for _, class := range sortedKeys(w.fn.releases) {
		if e, ok := w.held[class]; ok && !e.deferred && !e.maybe {
			lo.reportf("lockunlock", pos, "//sqlcm:lock-release declares %q released, but it may still be held at this return", class)
		}
	}
}

// funcName renders a function as Type.Method or Func.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func quotedList(classes []string) string {
	quoted := make([]string, len(classes))
	for i, c := range classes {
		quoted[i] = fmt.Sprintf("%q", c)
	}
	return strings.Join(quoted, ", ")
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

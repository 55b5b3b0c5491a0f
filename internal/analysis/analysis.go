// Package analysis implements SQLCM's custom Go source analyzers and a
// small self-contained driver for them, in the spirit of
// golang.org/x/tools/go/analysis but using only the standard library
// (the build environment is offline): go/parser for syntax, go/types
// with the GOROOT source importer for type information, and per-package
// exported facts for cross-package reasoning.
//
// The analyzers are annotation driven. Source carries machine-readable
// directives in comments:
//
//	//sqlcm:hotpath      — this function runs on the monitoring hot
//	                       path: calls that read the clock or allocate
//	                       through fmt are flagged, as are acquisitions
//	                       of locks outside the declared hierarchy.
//	//sqlcm:callback     — this function runs user rule code (conditions
//	                       and actions): it may only be invoked from a
//	                       function marked //sqlcm:recovered (or another
//	                       callback already under that discipline).
//	//sqlcm:recovered    — this function is a sanctioned recover site;
//	                       the analyzer verifies it really defers a
//	                       recover().
//	//sqlcm:cancellable  — every loop in this function must reach a
//	                       cancellation check: ctx.Err()/ctx.Done(), a
//	                       stop-channel receive, or a callee summarized
//	                       as cancel-capable.
//	//sqlcm:cancelpoint  — calling this function (or interface method)
//	                       reaches a cancellation check; the summary
//	                       seed for cancelpoint analysis.
//	//sqlcm:ctx-root <reason>
//	                     — this function may mint a fresh context
//	                       (context.Background()/TODO()) even inside a
//	                       ctx-strict package.
//	//sqlcm:owned-by <owner>
//	                     — the goroutine started on (or right below)
//	                       this line is owned by the named mechanism.
//	//sqlcm:ctx-strict   — package-doc directive: apply the serving-path
//	                       context strictness to this package.
//	//sqlcm:lock <class> [after <class>...]
//	                     — on a mutex field: its lock class, and the
//	                       classes that may be held when acquiring it.
//	//sqlcm:lock-held <class>
//	                     — callers hold <class> on entry to this function.
//	//sqlcm:lock-release <class>
//	                     — this function releases the caller's <class>
//	                       before returning (a lock handoff).
//	//sqlcm:guards <field,...>
//	                     — on a //sqlcm:lock mutex field: the listed
//	                       sibling fields may only be read with the
//	                       mutex's class held and only written (or
//	                       escaped, or method-called) with its write
//	                       side held. The special value 'none' declares
//	                       that the mutex guards no plain fields.
//	//sqlcm:guarded-by <class>
//	                     — per-field spelling of the same contract, for
//	                       fields guarded by a lock class declared on
//	                       another struct.
//	//sqlcm:cow <writer-class>
//	                     — this field is a copy-on-write snapshot: it
//	                       must be an atomic.Pointer[T] or atomic.Value,
//	                       Store/Swap/CompareAndSwap need the writer
//	                       class's write side held, and values obtained
//	                       from Load are never mutated in place.
//	//sqlcm:allow <reason>
//	                     — on (or immediately above) an offending line:
//	                       suppress the finding. The reason is
//	                       mandatory; a bare allow is itself a finding.
//
// The directives live with the code they constrain, so the checks keep
// holding as the hot path evolves without a central configuration file.
package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding from a source analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass gives an analyzer one type-checked package, plus the surrounding
// program for cross-package fact lookups.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	Prog *Program

	name   string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportTagged(p.name, pos, format, args...)
}

// reportTagged records a finding under an explicit tag, for analyzers
// that report several kinds of finding.
func (p *Pass) reportTagged(tag string, pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: tag,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FactsFor resolves the facts of the package defining obj (nil outside
// the loaded module).
func (p *Pass) FactsFor(obj types.Object) *Facts { return p.Prog.FactsFor(obj) }

// Analyzer is one source check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every registered analyzer.
func All() []*Analyzer {
	return []*Analyzer{HotPath, Recovered, CtxProp, CancelPoint, GoOwnership, ErrCode, GuardedBy, AtomicField, CowPublish, LockOrder}
}

// RunTree loads, type-checks and analyzes every package under root.
// Findings come back sorted by position.
func RunTree(root string) ([]Diagnostic, error) {
	prog, err := LoadTree(root)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog), nil
}

// RunProgram runs every analyzer over every package of an already-loaded
// program. Soft type-check errors surface as findings of a synthetic
// "typecheck" analyzer: an unresolvable tree must not silently pass with
// analyzers degraded.
func RunProgram(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range prog.Packages {
		for _, err := range pkg.TypeErrors {
			d := Diagnostic{Analyzer: "typecheck", Message: err.Error()}
			if terr, ok := err.(types.Error); ok {
				d.Pos = terr.Fset.Position(terr.Pos)
				d.Message = terr.Msg
			}
			report(d)
		}
		for _, a := range All() {
			a.Run(&Pass{
				Fset:   prog.Fset,
				Pkg:    pkg,
				Prog:   prog,
				name:   a.Name,
				report: report,
			})
		}
	}
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

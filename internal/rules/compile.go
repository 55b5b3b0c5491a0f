package rules

import (
	"fmt"
	"strings"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Conditions are compiled once at rule-registration time into a tree of
// closures; per-event evaluation then involves no AST traversal. This is
// what keeps rule evaluation cheap enough to run hundreds of times per
// query (§2.1: "ECA rules are amenable to implementation with low CPU and
// memory overheads").

// evalState is the evaluation scratch: the rule context plus the LAT-row
// lookups memoized within one evaluation. It lives in the Ctx, so
// evaluating a condition allocates no state of its own.
type evalState struct {
	eng     *Engine
	ctx     *Ctx
	latRows map[string][]sqltypes.Value
}

// condFn evaluates one compiled node: value, missing-LAT-row flag, error.
type condFn func(st *evalState) (sqltypes.Value, bool, error)

// compileCond compiles a condition expression. Returns nil for a nil
// expression (always-true rules).
func compileCond(e sqlparser.Expr) (condFn, error) {
	if e == nil {
		return nil, nil
	}
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return func(*evalState) (sqltypes.Value, bool, error) { return v, false, nil }, nil

	case *sqlparser.Param:
		return nil, fmt.Errorf("rules: parameters not allowed in conditions")

	case *sqlparser.ColumnRef:
		return compileRef(x), nil

	case *sqlparser.Arith:
		l, err := compileCond(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileCond(x.Right)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(st *evalState) (sqltypes.Value, bool, error) {
			lv, m, err := l(st)
			if err != nil || m {
				return sqltypes.Null, m, err
			}
			rv, m, err := r(st)
			if err != nil || m {
				return sqltypes.Null, m, err
			}
			v, err := sqltypes.Arith(op, lv, rv)
			return v, false, err
		}, nil

	case *sqlparser.Comparison:
		l, err := compileCond(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileCond(x.Right)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(st *evalState) (sqltypes.Value, bool, error) {
			lv, m, err := l(st)
			if err != nil || m {
				return sqltypes.Null, m, err
			}
			rv, m, err := r(st)
			if err != nil || m {
				return sqltypes.Null, m, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, false, nil
			}
			c := sqltypes.Compare(lv, rv)
			var out bool
			switch op {
			case sqlparser.CmpEq:
				out = c == 0
			case sqlparser.CmpNe:
				out = c != 0
			case sqlparser.CmpLt:
				out = c < 0
			case sqlparser.CmpLe:
				out = c <= 0
			case sqlparser.CmpGt:
				out = c > 0
			case sqlparser.CmpGe:
				out = c >= 0
			}
			return sqltypes.NewBool(out), false, nil
		}, nil

	case *sqlparser.Logic:
		l, err := compileCond(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := compileCond(x.Right)
		if err != nil {
			return nil, err
		}
		and := x.Op == sqlparser.LogicAnd
		return func(st *evalState) (sqltypes.Value, bool, error) {
			lv, m1, err := l(st)
			if err != nil {
				return sqltypes.Null, false, err
			}
			lTrue := !m1 && !lv.IsNull() && truthy(lv)
			lFalse := m1 || (!lv.IsNull() && !truthy(lv))
			if and && lFalse {
				return sqltypes.NewBool(false), false, nil
			}
			if !and && lTrue {
				return sqltypes.NewBool(true), false, nil
			}
			rv, m2, err := r(st)
			if err != nil {
				return sqltypes.Null, false, err
			}
			rTrue := !m2 && !rv.IsNull() && truthy(rv)
			if and {
				return sqltypes.NewBool(lTrue && rTrue), false, nil
			}
			return sqltypes.NewBool(lTrue || rTrue), false, nil
		}, nil

	case *sqlparser.Not:
		inner, err := compileCond(x.Expr)
		if err != nil {
			return nil, err
		}
		return func(st *evalState) (sqltypes.Value, bool, error) {
			v, m, err := inner(st)
			if err != nil {
				return sqltypes.Null, false, err
			}
			in := !m && !v.IsNull() && truthy(v)
			return sqltypes.NewBool(!in), false, nil
		}, nil

	case *sqlparser.Neg:
		inner, err := compileCond(x.Expr)
		if err != nil {
			return nil, err
		}
		return func(st *evalState) (sqltypes.Value, bool, error) {
			v, m, err := inner(st)
			if err != nil || m {
				return sqltypes.Null, m, err
			}
			out, err := sqltypes.Negate(v)
			return out, false, err
		}, nil

	case *sqlparser.IsNull:
		inner, err := compileCond(x.Expr)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(st *evalState) (sqltypes.Value, bool, error) {
			v, m, err := inner(st)
			if err != nil {
				return sqltypes.Null, false, err
			}
			isNull := m || v.IsNull()
			return sqltypes.NewBool(isNull != negate), false, nil
		}, nil

	default:
		return nil, fmt.Errorf("rules: unsupported condition node %T", e)
	}
}

// compileRef compiles an attribute or LAT-column reference. Whether the
// qualifier names a monitored class or a LAT is decided per evaluation
// (the object may be bound by the event, and LATs can be defined after the
// rule), but the reference pieces are pre-split.
func compileRef(c *sqlparser.ColumnRef) condFn {
	qual, col := c.Table, c.Column
	if qual == "" {
		return func(st *evalState) (sqltypes.Value, bool, error) {
			if st.ctx.Primary == nil {
				return sqltypes.Null, false, fmt.Errorf("rules: unqualified attribute %q with no primary object", col)
			}
			v, ok := st.ctx.Primary.Get(col)
			if !ok {
				return sqltypes.Null, false, fmt.Errorf("rules: %s has no attribute %q", st.ctx.Primary.Class(), col)
			}
			return v, false, nil
		}
	}
	isClass := knownClasses[qual]
	return func(st *evalState) (sqltypes.Value, bool, error) {
		if obj, ok := st.ctx.Objects[qual]; ok {
			v, found := obj.Get(col)
			if !found {
				return sqltypes.Null, false, fmt.Errorf("rules: %s has no attribute %q", qual, col)
			}
			return v, false, nil
		}
		if isClass {
			return sqltypes.Null, false, fmt.Errorf("rules: no %s object in context", qual)
		}
		// LAT reference: memoized ∃-quantified row lookup.
		table, ok := st.eng.env.LAT(qual)
		if !ok {
			return sqltypes.Null, false, fmt.Errorf("rules: unknown object or LAT %q", qual)
		}
		row, cached := st.latRows[qual]
		if !cached {
			var found bool
			row, found = table.LookupByGetter(st.ctx.Attr)
			if !found {
				return sqltypes.Null, true, nil
			}
			if st.latRows == nil {
				st.latRows = make(map[string][]sqltypes.Value, 2)
			}
			st.latRows[qual] = row
		}
		idx := table.ColumnIndex(col)
		if idx < 0 {
			return sqltypes.Null, false, fmt.Errorf("rules: LAT %s has no column %q", qual, col)
		}
		return row[idx], false, nil
	}
}

// describeActions renders a rule's action list for diagnostics.
func describeActions(actions []Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}

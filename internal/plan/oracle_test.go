package plan

import (
	"regexp"
	"strings"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
	"hyperfile/internal/query"
)

// oracleTuple is the retired closure kernel for one selection: each field
// pattern compiled to its own func value, with the operator dispatch
// resolved when the closure is built. Op.Match replaced it on the hot path;
// it survives here as the reference Op.Match is differentially checked
// against. It is written only against pattern.P's exported fields, so it
// shares no code with the switch it checks.
func oracleTuple(sel query.Select) func(t object.Tuple, env pattern.Env) bool {
	key, data := oracleField(sel.Key), oracleField(sel.Data)
	return func(t object.Tuple, env pattern.Env) bool {
		return sel.Type.Matches(t.Type) && key(t.Key, env) && data(t.Data, env)
	}
}

func oracleField(p pattern.P) func(v object.Value, env pattern.Env) bool {
	text := func(v object.Value) bool { return v.Kind == object.KindString || v.Kind == object.KindKeyword }
	switch p.Op {
	case pattern.OpAny, pattern.OpBind, pattern.OpFetch:
		return func(object.Value, pattern.Env) bool { return true }
	case pattern.OpLiteral:
		lit := p.Lit
		switch {
		case text(lit):
			return func(v object.Value, _ pattern.Env) bool { return text(v) && v.Str == lit.Str }
		case lit.IsNumeric():
			return func(v object.Value, _ pattern.Env) bool { return v.IsNumeric() && v.AsFloat() == lit.AsFloat() }
		default:
			return func(v object.Value, _ pattern.Env) bool { return v.Equal(lit) }
		}
	case pattern.OpSubstring:
		want := p.Lit.Str
		return func(v object.Value, _ pattern.Env) bool { return text(v) && strings.Contains(v.Str, want) }
	case pattern.OpRegex:
		// A regex pattern keeps its source in Lit.
		re := regexp.MustCompile(p.Lit.Str)
		return func(v object.Value, _ pattern.Env) bool { return text(v) && re.MatchString(v.Str) }
	case pattern.OpRange:
		lo, hi := p.Lo, p.Hi
		return func(v object.Value, _ pattern.Env) bool {
			return v.IsNumeric() && v.AsFloat() >= lo && v.AsFloat() <= hi
		}
	case pattern.OpUse:
		name := p.Var
		return func(v object.Value, env pattern.Env) bool {
			for _, b := range env.Lookup(name) {
				if b.Equal(v) {
					return true
				}
			}
			return false
		}
	default:
		return func(object.Value, pattern.Env) bool { return false }
	}
}

// checkAgainstOracle asserts that op.Match and op.MatchTuple agree with the
// closure oracle on t under env, and that neither touches env.
func checkAgainstOracle(t *testing.T, op *Op, tu object.Tuple, env pattern.Env) {
	t.Helper()
	vars, bound := len(env), len(env.Lookup("X"))
	want := oracleTuple(op.F.Sel)(tu, env)
	if got := op.Match(&tu, env); got != want {
		t.Fatalf("%v: Match(%v) = %v, oracle %v", op.F.Sel, tu, got, want)
	}
	if got := op.MatchTuple(tu, env); got != want {
		t.Fatalf("%v: MatchTuple(%v) = %v, oracle %v", op.F.Sel, tu, got, want)
	}
	if len(env) != vars || len(env.Lookup("X")) != bound {
		t.Fatalf("%v: matching %v changed the environment", op.F.Sel, tu)
	}
}

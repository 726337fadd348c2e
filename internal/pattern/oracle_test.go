package pattern

import (
	"strings"

	"hyperfile/internal/object"
)

// oracle is the retired closure kernel: one func value per field pattern
// with the operator dispatch resolved when it is built. The engine now
// matches through (*P).Match instead, and this form survives as the
// reference that Match is differentially checked against.
func oracle(p P) func(v object.Value, env Env) bool {
	switch p.Op {
	case OpAny, OpBind, OpFetch:
		return func(object.Value, Env) bool { return true }
	case OpLiteral:
		if p.Lit.Kind == object.KindString || p.Lit.Kind == object.KindKeyword {
			want := p.Lit.Str
			return func(v object.Value, _ Env) bool { return isText(&v) && v.Str == want }
		}
		if p.Lit.IsNumeric() {
			want := p.Lit.AsFloat()
			return func(v object.Value, _ Env) bool { return v.IsNumeric() && v.AsFloat() == want }
		}
		lit := p.Lit
		return func(v object.Value, _ Env) bool { return v.Equal(lit) }
	case OpSubstring:
		want := p.Lit.Str
		return func(v object.Value, _ Env) bool { return isText(&v) && strings.Contains(v.Str, want) }
	case OpRegex:
		re := p.re
		if re == nil {
			return func(object.Value, Env) bool { return false }
		}
		return func(v object.Value, _ Env) bool { return isText(&v) && re.MatchString(v.Str) }
	case OpRange:
		lo, hi := p.Lo, p.Hi
		return func(v object.Value, _ Env) bool {
			if !v.IsNumeric() {
				return false
			}
			f := v.AsFloat()
			return f >= lo && f <= hi
		}
	case OpUse:
		name := p.Var
		return func(v object.Value, env Env) bool {
			for _, b := range env.Lookup(name) {
				if b.Equal(v) {
					return true
				}
			}
			return false
		}
	default:
		return func(object.Value, Env) bool { return false }
	}
}

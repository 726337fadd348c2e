// Package pattern implements the pattern language used in HyperFile tuple
// selection filters (paper section 3): literals, wildcards, substring match,
// numeric ranges, and matching variables that bind or test against per-object
// binding environments.
package pattern

import (
	"fmt"
	"regexp"
	"strings"

	"hyperfile/internal/object"
)

// Env is a per-object matching-variable environment: the paper's O.mvars,
// the set of values bound so far to each variable. A query names a handful
// of variables, so the environment is a short list of (variable, values)
// pairs searched by name. A nil Env is valid and empty.
type Env []binding

// binding is one variable's binding set.
type binding struct {
	name string
	vals []object.Value
}

// Bind appends v to the binding set for name, skipping exact duplicates. A
// variable new to the environment takes the first unused pair past its end,
// with that pair's value array, so binding into a Reset environment
// allocates nothing once the storage has grown to fit.
func (e *Env) Bind(name string, v object.Value) {
	env := *e
	for i := range env {
		b := &env[i]
		if b.name != name {
			continue
		}
		for _, old := range b.vals {
			if old.Equal(v) {
				return
			}
		}
		b.vals = append(b.vals, v)
		return
	}
	if n := len(env); n < cap(env) {
		env = env[:n+1]
		env[n].name = name
		env[n].vals = append(env[n].vals[:0], v)
	} else {
		env = append(env, binding{name: name, vals: []object.Value{v}})
	}
	*e = env
}

// Lookup returns the values bound to name (nil if none).
func (e Env) Lookup(name string) []object.Value {
	for i := range e {
		if e[i].name == name {
			return e[i].vals
		}
	}
	return nil
}

// Reset empties the environment for the next object. The storage stays
// behind the slice's end for later Binds to reuse.
func (e *Env) Reset() { *e = (*e)[:0] }

// Clone returns a deep-enough copy: the per-variable slices are copied so
// that later binds on the clone do not alias the original.
func (e Env) Clone() Env {
	if e == nil {
		return nil
	}
	c := make(Env, len(e))
	for i, b := range e {
		c[i] = binding{name: b.name, vals: append([]object.Value(nil), b.vals...)}
	}
	return c
}

// Op identifies the pattern operator.
type Op uint8

const (
	// OpAny matches any value ("?").
	OpAny Op = iota
	// OpLiteral matches a value equal to Lit.
	OpLiteral
	// OpSubstring matches string/keyword values containing Lit.Str.
	OpSubstring
	// OpRegex matches string/keyword values against a regular expression
	// (the paper names regular expressions as a string comparison form).
	OpRegex
	// OpRange matches numeric values in [Lo, Hi] (inclusive).
	OpRange
	// OpBind matches any value and binds it to Var ("?X").
	OpBind
	// OpUse matches a value equal to any current binding of Var ("$X").
	OpUse
	// OpFetch matches any value and marks it for retrieval into the client
	// binding named Var (the paper's "->title" operator).
	OpFetch
)

var opNames = [...]string{
	OpAny:       "any",
	OpLiteral:   "literal",
	OpSubstring: "substring",
	OpRegex:     "regex",
	OpRange:     "range",
	OpBind:      "bind",
	OpUse:       "use",
	OpFetch:     "fetch",
}

// String returns the operator name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// P is one field pattern. The zero P is OpAny.
type P struct {
	Op     Op
	Lit    object.Value // OpLiteral, OpSubstring; OpRegex keeps the source
	Lo, Hi float64      // OpRange
	Var    string       // OpBind, OpUse, OpFetch
	re     *regexp.Regexp
}

// Any returns the wildcard pattern.
func Any() P { return P{Op: OpAny} }

// Lit returns an exact-equality pattern.
func Lit(v object.Value) P { return P{Op: OpLiteral, Lit: v} }

// Str is shorthand for Lit(object.String(s)).
func Str(s string) P { return Lit(object.String(s)) }

// Substr returns a substring pattern over string/keyword values.
func Substr(s string) P { return P{Op: OpSubstring, Lit: object.String(s)} }

// Regex compiles a regular-expression pattern over string/keyword values.
func Regex(src string) (P, error) {
	re, err := regexp.Compile(src)
	if err != nil {
		return P{}, fmt.Errorf("pattern: bad regex: %w", err)
	}
	return P{Op: OpRegex, Lit: object.String(src), re: re}, nil
}

// MustRegex is Regex for known-good expressions; it panics on error.
func MustRegex(src string) P {
	p, err := Regex(src)
	if err != nil {
		panic(err)
	}
	return p
}

// Range returns an inclusive numeric range pattern.
func Range(lo, hi float64) P { return P{Op: OpRange, Lo: lo, Hi: hi} }

// Bind returns a matching-variable binding pattern ("?X").
func Bind(name string) P { return P{Op: OpBind, Var: name} }

// Use returns a matching-variable test pattern ("$X").
func Use(name string) P { return P{Op: OpUse, Var: name} }

// Fetch returns a retrieval pattern ("->name").
func Fetch(name string) P { return P{Op: OpFetch, Var: name} }

// Match reports whether *v satisfies the pattern under env. Match is
// side-effect free: OpBind and OpFetch match like OpAny here; the caller
// applies bindings/fetches only after the whole tuple matches, per the paper
// ("the ?X adds the field value to the bindings for X if the tuple otherwise
// matches").
//
// Both the pattern and the value are taken by pointer, and the operator is
// dispatched by a switch rather than through a func value: a pointer handed
// to a func value escapes, so a tuple matched through one would move to the
// heap. This is the engine's per-tuple kernel.
func (p *P) Match(v *object.Value, env Env) bool {
	switch p.Op {
	case OpAny, OpBind, OpFetch:
		return true
	case OpLiteral:
		switch {
		case isText(&p.Lit):
			// Text literals match both strings and keywords: queries should
			// not care which of the two text kinds an application stored.
			return isText(v) && v.Str == p.Lit.Str
		case p.Lit.IsNumeric():
			return v.IsNumeric() && v.AsFloat() == p.Lit.AsFloat()
		default:
			return v.Equal(p.Lit)
		}
	case OpSubstring:
		return isText(v) && strings.Contains(v.Str, p.Lit.Str)
	case OpRegex:
		return isText(v) && p.re != nil && p.re.MatchString(v.Str)
	case OpRange:
		if !v.IsNumeric() {
			return false
		}
		f := v.AsFloat()
		return f >= p.Lo && f <= p.Hi
	case OpUse:
		for _, b := range env.Lookup(p.Var) {
			if b.Equal(*v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Matches is Match for a value held by value.
func (p P) Matches(v object.Value, env Env) bool { return p.Match(&v, env) }

func isText(v *object.Value) bool {
	return v.Kind == object.KindString || v.Kind == object.KindKeyword
}

// BindsVar reports whether a successful tuple match should bind v to a
// matching variable, returning the variable name.
func (p P) BindsVar() (string, bool) {
	if p.Op == OpBind {
		return p.Var, true
	}
	return "", false
}

// FetchesVar reports whether a successful tuple match should retrieve v into
// a client binding, returning the binding name.
func (p P) FetchesVar() (string, bool) {
	if p.Op == OpFetch {
		return p.Var, true
	}
	return "", false
}

// UsesVar reports whether the pattern tests against a matching variable's
// current bindings ("$X"), returning the variable name. Such a pattern is
// environment-dependent: its outcome can differ between tuples of the same
// object as earlier tuples add bindings.
func (p P) UsesVar() (string, bool) {
	if p.Op == OpUse {
		return p.Var, true
	}
	return "", false
}

// EffectFree reports whether matching the pattern has no side effects: it
// neither binds a matching variable nor fetches a field value. A selection
// whose field patterns are all effect-free can stop scanning tuples at the
// first match.
func (p P) EffectFree() bool {
	return p.Op != OpBind && p.Op != OpFetch
}

// String renders the pattern in query syntax.
func (p P) String() string {
	switch p.Op {
	case OpAny:
		return "?"
	case OpLiteral:
		switch p.Lit.Kind {
		case object.KindPointer:
			// Query syntax for pointer literals ("@s3:114"); the value's
			// own rendering ("->s3:114") would collide with retrieval.
			return "@" + p.Lit.Ptr.String()
		case object.KindKeyword:
			// Keywords print quoted; literal text matching is
			// kind-insensitive so the reparse is semantically identical.
			return fmt.Sprintf("%q", p.Lit.Str)
		default:
			return p.Lit.String()
		}
	case OpSubstring:
		return "~" + p.Lit.String()
	case OpRegex:
		return "/" + strings.ReplaceAll(p.Lit.Str, "/", `\/`) + "/"
	case OpRange:
		return fmt.Sprintf("%g..%g", p.Lo, p.Hi)
	case OpBind:
		return "?" + p.Var
	case OpUse:
		return "$" + p.Var
	case OpFetch:
		return "->" + p.Var
	default:
		return "<badpat>"
	}
}

// TypePattern matches the tuple type tag: either a literal tag or the
// wildcard "?" (empty Name with Wild set).
type TypePattern struct {
	Wild bool
	Name string
}

// AnyType is the wildcard type pattern.
var AnyType = TypePattern{Wild: true}

// Type returns a literal type pattern.
func Type(name string) TypePattern { return TypePattern{Name: name} }

// Matches reports whether tag satisfies the type pattern.
func (tp TypePattern) Matches(tag string) bool { return tp.Wild || tp.Name == tag }

// String renders the type pattern in query syntax, quoting names that are
// not plain identifiers.
func (tp TypePattern) String() string {
	if tp.Wild {
		return "?"
	}
	if isPlainIdent(tp.Name) {
		return tp.Name
	}
	return fmt.Sprintf("%q", tp.Name)
}

// isPlainIdent reports whether s lexes as a bare identifier.
func isPlainIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_',
			r >= 'a' && r <= 'z',
			r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

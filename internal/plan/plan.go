// Package plan is the physical-plan layer between query.Compiled and the
// engine: plan.Build lowers the flat filter list F_1..F_n into an array of
// executable operators, deciding once, at plan time, what each selection
// needs at run time.
//
// Two lowerings happen here:
//
//   - Selection classing: each selection is recorded as literal, glob
//     (substring/regex/range), binding or env-dependent (hf_plan_ops_*), and
//     effect-free selections are marked so the engine can stop scanning an
//     object's tuples at the first match. Matching itself is one switch per
//     field pattern, run on the tuple by pointer (Op.Match); there are no
//     per-pattern closures, because a pointer handed to a func value escapes
//     and would move every matched tuple to the heap.
//
//   - Select→deref fusion: a selection that binds a variable immediately
//     dereferenced by the next filter fuses with it into one kernel, so only
//     pointers surviving the predicate are dereferenced, without a working-
//     set round trip between the two filters.
//
// The operator array stays exactly 1:1 with the compiled filter list: filter
// indices are wire-visible (Deref.Start), key the mark table, and are
// iterator loop-back targets, so the plan may specialize what each slot does
// but never how the slots are numbered. Fusion therefore never removes the
// fused dereference operator — it stays executable standalone — and is only
// applied where the dereference slot cannot be an independent entry point.
package plan

import (
	"hyperfile/internal/index"
	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
	"hyperfile/internal/query"
	"hyperfile/internal/store"
)

// MatchClass labels the specialization a selection compiled to.
type MatchClass uint8

const (
	// ClassLiteral: every field is a wildcard or an exact literal.
	ClassLiteral MatchClass = iota
	// ClassGlob: effect-free with at least one substring/regex/range test.
	ClassGlob
	// ClassBinding: binds or fetches a matching variable (effects present).
	ClassBinding
	// ClassEnv: tests against prior bindings ("$X") — environment-dependent.
	ClassEnv
)

var classNames = [...]string{
	ClassLiteral: "literal",
	ClassGlob:    "glob",
	ClassBinding: "binding",
	ClassEnv:     "env",
}

// String names the class.
func (c MatchClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(?)"
}

// Op is one physical operator. Ops[i] executes compiled filter i; Kind
// mirrors the filter kind and F carries the filter's own fields (Sel, Var,
// Keep, BodyStart, K, Depth).
type Op struct {
	Kind query.FilterKind
	F    query.Filter

	// Selection fields (Kind == query.FSelect).

	// Class records which specialization the selection compiled to.
	Class MatchClass
	// HasEffects reports that a matching tuple binds or fetches; without
	// effects the engine stops scanning at the first matching tuple.
	HasEffects bool
	// FuseDeref reports that this selection and the dereference at the next
	// slot execute as one fused kernel: the engine runs both in a single
	// dispatch, dereferencing only pointers bound by tuples that survived
	// this predicate. The next slot remains a complete standalone operator.
	FuseDeref bool
}

// Match reports whether tuple *t satisfies the selection under env. The
// tuple is matched in place: nothing is copied, and t does not escape.
func (op *Op) Match(t *object.Tuple, env pattern.Env) bool {
	sel := &op.F.Sel
	return sel.Type.Matches(t.Type) && sel.Key.Match(&t.Key, env) && sel.Data.Match(&t.Data, env)
}

// MatchTuple is Match for a tuple held by value.
func (op *Op) MatchTuple(t object.Tuple, env pattern.Env) bool { return op.Match(&t, env) }

// Counts aggregates what a plan compiled to, for observability.
type Counts struct {
	Selects, Derefs, Iters int
	// Fused counts the select→deref pairs running as one kernel.
	Fused int
	// Classes[c] counts selections per specialization class.
	Classes [len(classNames)]int
}

// Plan is the executable physical plan for one compiled query.
type Plan struct {
	// Compiled is the underlying flat filter list; Ops is index-aligned
	// with Compiled.Filters.
	Compiled *query.Compiled
	Ops      []Op

	counts Counts
}

// Counts returns the plan's operator statistics.
func (p *Plan) Counts() Counts { return p.counts }

// Len returns the number of operators (equal to the compiled filter count).
func (p *Plan) Len() int { return len(p.Ops) }

// Build lowers a compiled query into a physical plan. The plan is immutable
// after Build and safe for concurrent readers, which is what lets a site
// cache one plan and share it across query contexts.
//
// st and ix are unused and may be nil: no planning decision reads the store
// or an index. They stay in the signature because perf/layers.go calls
// Build with three arguments (ROADMAP item 19).
func Build(c *query.Compiled, st *store.Store, ix *index.Keyword) *Plan {
	p := &Plan{Compiled: c, Ops: make([]Op, len(c.Filters))}
	bodyStarts := c.BodyStarts()

	for i, f := range c.Filters {
		op := Op{Kind: f.Kind, F: f}
		switch f.Kind {
		case query.FSelect:
			op.HasEffects = !f.Sel.Key.EffectFree() || !f.Sel.Data.EffectFree()
			op.Class = classify(f.Sel)
			p.counts.Selects++
			p.counts.Classes[op.Class]++
		case query.FDeref:
			p.counts.Derefs++
		case query.FIter:
			p.counts.Iters++
		}
		p.Ops[i] = op
	}

	// Select→deref fusion. Legality: the selection must bind exactly the
	// variable the next filter dereferences, and the dereference slot must
	// not be an iterator body start — a looped-back item entering there must
	// execute the dereference standalone, which fusion preserves but the
	// fused fast path would bypass.
	for i := 0; i+1 < len(p.Ops); i++ {
		sel := &p.Ops[i]
		next := &p.Ops[i+1]
		if sel.Kind != query.FSelect || next.Kind != query.FDeref {
			continue
		}
		if bodyStarts[i+1] {
			continue
		}
		if bindsVar(sel.F.Sel, next.F.Var) {
			sel.FuseDeref = true
			p.counts.Fused++
		}
	}
	return p
}

// classify buckets a selection into its specialization class.
func classify(sel query.Select) MatchClass {
	if usesEnv(sel.Key) || usesEnv(sel.Data) {
		return ClassEnv
	}
	if !sel.Key.EffectFree() || !sel.Data.EffectFree() {
		return ClassBinding
	}
	if isGlob(sel.Key) || isGlob(sel.Data) {
		return ClassGlob
	}
	return ClassLiteral
}

func usesEnv(p pattern.P) bool {
	_, ok := p.UsesVar()
	return ok
}

func isGlob(p pattern.P) bool {
	switch p.Op {
	case pattern.OpSubstring, pattern.OpRegex, pattern.OpRange:
		return true
	}
	return false
}

// bindsVar reports whether the selection binds the named variable.
func bindsVar(sel query.Select, name string) bool {
	if v, ok := sel.Key.BindsVar(); ok && v == name {
		return true
	}
	if v, ok := sel.Data.BindsVar(); ok && v == name {
		return true
	}
	return false
}

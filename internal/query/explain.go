package query

import (
	"fmt"
	"strings"
)

// Explain renders a compiled query as a human-readable execution plan: the
// flat filter list with positions, iterator spans and exits, depths, the
// variables each filter binds or uses, and the client bindings it
// retrieves. It backs
// `hfquery -explain` and is handy when a closure query silently drops
// objects (see docs/QUERYLANG.md).
func (c *Compiled) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", c.Source.String())
	fmt.Fprintf(&b, "filters: %d", len(c.Filters))
	if len(c.FetchVars) > 0 {
		fmt.Fprintf(&b, ", retrieves: %s", strings.Join(c.FetchVars, ", "))
	}
	b.WriteByte('\n')
	for i, f := range c.Filters {
		indent := strings.Repeat("  ", f.Depth)
		switch f.Kind {
		case FSelect:
			fmt.Fprintf(&b, "F%-2d %sselect %s%s\n", i, indent, f.Sel.String(), selectNotes(f.Sel))
		case FDeref:
			op := "dereference ^" + f.Var + " (consume source)"
			if f.Keep {
				op = "dereference ^^" + f.Var + " (keep source)"
			}
			fmt.Fprintf(&b, "F%-2d %s%s -> items start at F%d\n", i, indent, op, f.Child)
		case FIter:
			bound := "transitive closure"
			if f.K != Closure {
				bound = fmt.Sprintf("up to %d pointer levels", f.K)
				if f.Final {
					bound += ", last copy"
				}
			}
			fmt.Fprintf(&b, "F%-2d %siterate body F%d..F%d, %s, exit F%d\n", i, indent, f.BodyStart, i-1, bound, f.Exit)
		}
	}
	if warn := c.warnings(); len(warn) > 0 {
		b.WriteString("notes:\n")
		for _, w := range warn {
			fmt.Fprintf(&b, "  - %s\n", w)
		}
	}
	return b.String()
}

func selectNotes(s Select) string {
	var notes []string
	if v, ok := s.Key.BindsVar(); ok {
		notes = append(notes, "binds "+v+" from key")
	}
	if v, ok := s.Data.BindsVar(); ok {
		notes = append(notes, "binds "+v+" from data")
	}
	if v, ok := s.Key.FetchesVar(); ok {
		notes = append(notes, "retrieves "+v)
	}
	if v, ok := s.Data.FetchesVar(); ok {
		notes = append(notes, "retrieves "+v)
	}
	if len(notes) == 0 {
		return ""
	}
	return "  [" + strings.Join(notes, "; ") + "]"
}

// warnings reports static hazards of the literal Figure-3 semantics.
func (c *Compiled) warnings() []string {
	var out []string
	for i, f := range c.Filters {
		if f.Kind != FIter || f.K != Closure {
			continue
		}
		// A consuming dereference inside a closure body consumes every
		// object it touches (docs/QUERYLANG.md, subtlety 2).
		for j := f.BodyStart; j < i; j++ {
			if c.Filters[j].Kind == FDeref && !c.Filters[j].Keep {
				out = append(out,
					fmt.Sprintf("F%d: consuming dereference ^%s inside a closure body drops every object it processes; use ^^%s",
						j, c.Filters[j].Var, c.Filters[j].Var))
			}
		}
		// Selections inside the body gate re-entry: objects without a
		// matching tuple never reach filters after the iterator.
		for j := f.BodyStart; j < i; j++ {
			if c.Filters[j].Kind == FSelect {
				out = append(out, fmt.Sprintf(
					"F%d: objects must re-match this selection on every closure pass; objects without matching tuples (e.g. leaves without pointers) drop out before F%d",
					j, i+1))
				break
			}
		}
	}
	return out
}

package query

// Plan-friendly accessors over the compiled filter list. The planner needs
// structural facts — where items can (re)enter the list — without
// re-walking the AST.

// BodyStarts returns the set of iterator body-start indices: the positions an
// in-flight item can jump back to when an FIter loops. Together with index 0
// and every position immediately after an FDeref, these are the only entry
// points at which an item can begin processing.
func (c *Compiled) BodyStarts() map[int]bool {
	starts := make(map[int]bool)
	for _, f := range c.Filters {
		if f.Kind == FIter {
			starts[f.BodyStart] = true
		}
	}
	return starts
}

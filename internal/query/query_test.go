package query

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
)

func TestParseSimpleSelection(t *testing.T) {
	q, err := Parse(`S (String, "Author", "Joe Programmer") -> T`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Initial != "S" || q.Result != "T" {
		t.Errorf("sets = %q -> %q", q.Initial, q.Result)
	}
	if len(q.Body) != 1 {
		t.Fatalf("body = %d nodes", len(q.Body))
	}
	sel, ok := q.Body[0].(Select)
	if !ok {
		t.Fatalf("node = %T", q.Body[0])
	}
	if sel.Type != pattern.Type("String") {
		t.Errorf("type pattern = %v", sel.Type)
	}
	if sel.Key.Op != pattern.OpLiteral || sel.Key.Lit.Str != "Author" {
		t.Errorf("key = %v", sel.Key)
	}
	if sel.Data.Lit.Str != "Joe Programmer" {
		t.Errorf("data = %v", sel.Data)
	}
}

func TestParsePaperClosureQuery(t *testing.T) {
	// The running example of section 3.
	q, err := Parse(`S [ (pointer, "Reference", ?X) ^^X ]** (keyword, "Distributed", ?) -> T`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 2 {
		t.Fatalf("body = %d nodes, want 2", len(q.Body))
	}
	blk, ok := q.Body[0].(Block)
	if !ok || blk.K != Closure {
		t.Fatalf("first node = %#v, want closure block", q.Body[0])
	}
	if len(blk.Body) != 2 {
		t.Fatalf("block body = %d nodes", len(blk.Body))
	}
	d, ok := blk.Body[1].(Deref)
	if !ok || d.Var != "X" || !d.Keep {
		t.Errorf("deref = %#v, want ^^X", blk.Body[1])
	}
	sel, ok := q.Body[1].(Select)
	if !ok || sel.Type != pattern.Type("keyword") || sel.Data.Op != pattern.OpAny {
		t.Errorf("trailing selection = %#v", q.Body[1])
	}
}

func TestParsePatternVariety(t *testing.T) {
	q, err := Parse(`S (n, 1..10, ?) (m, 5, 2.5) (p, ~"ob", $X) (f, "Title", ->title) (g, ?, @s3:17) -> T`)
	if err != nil {
		t.Fatal(err)
	}
	sels := make([]Select, len(q.Body))
	for i, n := range q.Body {
		sels[i] = n.(Select)
	}
	if sels[0].Key.Op != pattern.OpRange || sels[0].Key.Lo != 1 || sels[0].Key.Hi != 10 {
		t.Errorf("range = %v", sels[0].Key)
	}
	if sels[1].Key.Lit.Kind != object.KindInt || sels[1].Key.Lit.Int != 5 {
		t.Errorf("int literal = %v", sels[1].Key.Lit)
	}
	if sels[1].Data.Lit.Kind != object.KindFloat || sels[1].Data.Lit.Float != 2.5 {
		t.Errorf("float literal = %v", sels[1].Data.Lit)
	}
	if sels[2].Key.Op != pattern.OpSubstring || sels[2].Key.Lit.Str != "ob" {
		t.Errorf("substring = %v", sels[2].Key)
	}
	if sels[2].Data.Op != pattern.OpUse || sels[2].Data.Var != "X" {
		t.Errorf("use = %v", sels[2].Data)
	}
	if sels[3].Data.Op != pattern.OpFetch || sels[3].Data.Var != "title" {
		t.Errorf("fetch = %v", sels[3].Data)
	}
	want := object.ID{Birth: 3, Seq: 17}
	if sels[4].Data.Lit.Kind != object.KindPointer || sels[4].Data.Lit.Ptr != want {
		t.Errorf("pointer literal = %v", sels[4].Data.Lit)
	}
	if sels[4].Key.Op != pattern.OpAny {
		t.Errorf("wildcard key = %v", sels[4].Key)
	}
}

func TestParseRegexPattern(t *testing.T) {
	q, err := Parse(`S (String, "Title", /^Hyper.*File$/) (p, /a\/b/, ?) -> T`)
	if err != nil {
		t.Fatal(err)
	}
	s0 := q.Body[0].(Select)
	if s0.Data.Op != pattern.OpRegex || s0.Data.Lit.Str != "^Hyper.*File$" {
		t.Errorf("regex pattern = %v", s0.Data)
	}
	if !s0.Data.Matches(object.String("HyperFile"), nil) {
		t.Errorf("parsed regex does not match")
	}
	s1 := q.Body[1].(Select)
	if s1.Key.Lit.Str != "a/b" {
		t.Errorf("escaped slash = %q", s1.Key.Lit.Str)
	}
	// Round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Errorf("round trip: %q vs %q", q.String(), q2.String())
	}
	// Errors.
	for _, bad := range []string{`S (a, /unterminated, ?) -> T`, `S (a, /(/, ?) -> T`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseFixedIteration(t *testing.T) {
	q, err := Parse(`S [ (pointer, "Reference", ?X) ^X ]*3 -> T`)
	if err != nil {
		t.Fatal(err)
	}
	blk := q.Body[0].(Block)
	if blk.K != 3 {
		t.Errorf("K = %d", blk.K)
	}
	d := blk.Body[1].(Deref)
	if d.Keep {
		t.Errorf("^X must not keep the dereferencing object")
	}
}

func TestParseNestedIterators(t *testing.T) {
	q, err := Parse(`S [ (p, "a", ?X) [ (p, "b", ?Y) ^Y ]*2 ^X ]*3 -> T`)
	if err != nil {
		t.Fatal(err)
	}
	outer := q.Body[0].(Block)
	inner := outer.Body[1].(Block)
	if outer.K != 3 || inner.K != 2 {
		t.Errorf("K outer=%d inner=%d", outer.K, inner.K)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`S -> `,
		`-> T`,
		`S (a, b) -> T`,           // two-field tuple
		`S (a, b, c, d) -> T`,     // four-field tuple
		`S [ ]*3 -> T`,            // empty iterator
		`S [ (a, ?, ?) ] -> T`,    // missing '*k'
		`S [ (a, ?, ?) ]*0 -> T`,  // zero iterations
		`S [ (a, ?, ?) ]*-2 -> T`, // negative iterations
		`S ^ -> T`,                // deref without variable
		`S (a, "unterminated, ?) -> T`,
		`S (a, 5..1, ?) -> T`,    // empty range
		`S (a, ?, @s1) -> T`,     // bad pointer literal
		`S (a, ?, ?) -> T extra`, // trailing tokens
		`S (a, ., ?) -> T`,       // stray dot
		`S (a, $, ?) -> T`,       // '$' without name
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q): error %v is not ErrSyntax", src, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`S (String, "Author", "Joe Programmer") -> T`,
		`S [ (pointer, "Reference", ?X) ^^X ]** (keyword, "Distributed", ?) -> T`,
		`S [ (p, "a", ?X) [ (p, "b", ?Y) ^Y ]*2 ^X ]*3 -> T`,
		`Root [ (Pointer, "Tree", ?X) ^^X ]** (Rand10, 5, ?) -> T`,
		`S (n, 1..10, ?) (f, "Title", ->title) -> T`,
		`S (?, ~"frag", $X) -> Out`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip unstable:\n first: %s\nsecond: %s", q1.String(), q2.String())
		}
	}
}

func TestCompileFlattening(t *testing.T) {
	c := MustCompile(`S [ (pointer, "Reference", ?X) ^^X ]*3 (keyword, "Distributed", ?) -> T`)
	// *3 unrolls into three copies of the body, one per chain length.
	kinds := make([]FilterKind, len(c.Filters))
	for i, f := range c.Filters {
		kinds[i] = f.Kind
	}
	want := []FilterKind{FSelect, FDeref, FIter, FSelect, FDeref, FIter, FSelect, FDeref, FIter, FSelect}
	if !slices.Equal(kinds, want) {
		t.Fatalf("filter kinds = %v, want %v (all: %v)", kinds, want, c.Filters)
	}
	for j, start := range []int{0, 3, 6} {
		iter := c.Filters[start+2]
		if iter.BodyStart != start || iter.Exit != 9 || iter.K != 3 || iter.Final != (j == 2) || iter.Depth != 0 {
			t.Errorf("copy %d iter = %+v", j+1, iter)
		}
		if c.Filters[start].Depth != 1 || c.Filters[start+1].Depth != 1 {
			t.Errorf("copy %d depths wrong: %+v", j+1, c.Filters)
		}
	}
	// A pointer followed in copy j leads into copy j+1; the last copy's
	// children stay in it.
	for deref, child := range map[int]int{1: 5, 4: 8, 7: 8} {
		if got := c.Filters[deref].Child; got != child {
			t.Errorf("F%d child = F%d, want F%d", deref, got, child)
		}
	}
	if c.Filters[9].Depth != 0 {
		t.Errorf("depths wrong: %+v", c.Filters)
	}
	// A closure stays one copy that loops back.
	cl := MustCompile(`S [ (pointer, "Reference", ?X) ^^X ]** -> T`)
	if len(cl.Filters) != 3 || cl.Filters[1].Child != 2 || cl.Filters[2].Exit != 3 || cl.Filters[2].Final {
		t.Errorf("closure filters = %+v", cl.Filters)
	}
	// *1 unrolls like *2: an initial object's direct children always exist.
	if one, two := MustCompile(`S [ (p, ?, ?X) ^^X ]*1 -> T`), MustCompile(`S [ (p, ?, ?X) ^^X ]*2 -> T`); len(one.Filters) != 6 || len(two.Filters) != 6 {
		t.Errorf("*1 lowers to %d filters, *2 to %d, want 6", len(one.Filters), len(two.Filters))
	}
}

func TestCompileNestedDepths(t *testing.T) {
	c := MustCompile(`S [ (p, "a", ?X) [ (p, "b", ?Y) ^Y ]*2 ^X ]*3 -> T`)
	// One outer copy: 0 sel(a) d1, 1 sel(b) d2, 2 deref Y d2, 3 iter(inner)
	// d1, 4 sel(b) d2, 5 deref Y d2, 6 iter(inner, last) d1, 7 deref X d1,
	// 8 iter(outer) d0. Each of the three outer copies holds both inner ones.
	const copyLen = 9
	wantDepth := []int{1, 2, 2, 1, 2, 2, 1, 1, 0}
	if len(c.Filters) != 3*copyLen {
		t.Fatalf("filters = %v", c.Filters)
	}
	for i, f := range c.Filters {
		if d := wantDepth[i%copyLen]; f.Depth != d {
			t.Errorf("filter %d depth = %d, want %d", i, f.Depth, d)
		}
	}
	for j := 0; j < 3; j++ {
		o := j * copyLen
		inner1, inner2, outer := c.Filters[o+3], c.Filters[o+6], c.Filters[o+8]
		if inner1.BodyStart != o+1 || inner2.BodyStart != o+4 || inner1.Exit != o+7 || inner2.Exit != o+7 || inner1.Final || !inner2.Final {
			t.Errorf("outer copy %d: inner iters %+v, %+v", j+1, inner1, inner2)
		}
		if outer.BodyStart != o || outer.Exit != 3*copyLen || outer.Final != (j == 2) {
			t.Errorf("outer copy %d: outer iter %+v", j+1, outer)
		}
		// ^Y leads into the next inner copy of the same outer copy; ^X into
		// the next outer copy, until the last.
		if c.Filters[o+2].Child != o+6 || c.Filters[o+5].Child != o+6 {
			t.Errorf("outer copy %d: ^Y children start at F%d, F%d", j+1, c.Filters[o+2].Child, c.Filters[o+5].Child)
		}
		if want := min(o+copyLen, 2*copyLen) + 8; c.Filters[o+7].Child != want {
			t.Errorf("outer copy %d: ^X children start at F%d, want F%d", j+1, c.Filters[o+7].Child, want)
		}
	}
}

// TestCompileCapsUnrolling: a bound from any client must not allocate a
// plan of its size. Compile fails once the unrolled list passes MaxFilters,
// nested bounds included, and a list at the cap compiles.
func TestCompileCapsUnrolling(t *testing.T) {
	for _, src := range []string{
		`S [ (p, ?, ?X) ^^X ]*1000000000 -> T`,
		`S [ [ [ (p, ?, ?X) ^^X ]*1000 ]*1000 ]*1000 -> T`,
		`S [ (p, ?, ?X) ^^X ]*342 -> T`, // 342 copies of 3 filters: 1026
	} {
		if _, err := Compile(MustParse(src)); !errors.Is(err, ErrCompile) {
			t.Errorf("%s: Compile = %v, want ErrCompile", src, err)
		}
	}
	c := MustCompile(`S [ (p, ?, ?X) ^^X ]*341 -> T`) // 1023 filters
	if len(c.Filters) != 1023 || c.Filters[1].Child != 5 || c.Filters[1022].Exit != 1023 {
		t.Errorf("*341 lowers to %d filters", len(c.Filters))
	}
	big := MustCompile(`S [ (p, ?, ?X) ^^X ]*341 (k, ?, ?) -> T`)
	if len(big.Filters) != MaxFilters {
		t.Errorf("*341 plus one selection lowers to %d filters, want %d", len(big.Filters), MaxFilters)
	}
}

func TestCompileFetchVars(t *testing.T) {
	c := MustCompile(`S (f, "Title", ->title) (f, "Author", ->author) (g, ->title, ?) -> T`)
	if len(c.FetchVars) != 2 || c.FetchVars[0] != "title" || c.FetchVars[1] != "author" {
		t.Errorf("FetchVars = %v", c.FetchVars)
	}
	if !c.HasFetch() {
		t.Errorf("HasFetch = false")
	}
	c2 := MustCompile(`S (a, ?, ?) -> T`)
	if c2.HasFetch() {
		t.Errorf("HasFetch = true for fetch-free query")
	}
}

func TestCompileRejectsUnboundDeref(t *testing.T) {
	q := MustParse(`S ^X -> T`)
	if _, err := Compile(q); !errors.Is(err, ErrCompile) {
		t.Errorf("Compile = %v, want ErrCompile", err)
	}
	// Binding later in the body is accepted: iteration can make it visible.
	q2 := MustParse(`S [ ^X (p, ?, ?X) ]*2 -> T`)
	if _, err := Compile(q2); err != nil {
		t.Errorf("Compile with later bind: %v", err)
	}
}

func TestCompiledFilterStrings(t *testing.T) {
	c := MustCompile(`S [ (pointer, "Reference", ?X) ^^X ]** -> T`)
	joined := ""
	for _, f := range c.Filters {
		joined += f.String() + ";"
	}
	for _, want := range []string{"^^X", "iter[0..]*", `(pointer, "Reference", ?X)`} {
		if !strings.Contains(joined, want) {
			t.Errorf("filter strings %q missing %q", joined, want)
		}
	}
}

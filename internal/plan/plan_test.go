package plan

import (
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
	"hyperfile/internal/query"
)

func TestBuildKeepsOpsAlignedWithFilters(t *testing.T) {
	c := query.MustCompile(`S [ (pointer, "Ref", ?X) ^^X ]*3 (keyword, "hot", ?) -> T`)
	p := Build(c, nil, nil)
	if p.Len() != len(c.Filters) {
		t.Fatalf("plan has %d ops for %d filters", p.Len(), len(c.Filters))
	}
	for i, op := range p.Ops {
		if op.Kind != c.Filters[i].Kind {
			t.Errorf("op %d kind %v, filter kind %v", i, op.Kind, c.Filters[i].Kind)
		}
	}
	cnt := p.Counts()
	// *3 unrolls into three copies of the body.
	if cnt.Selects != 4 || cnt.Derefs != 3 || cnt.Iters != 3 {
		t.Errorf("counts = %+v, want 4 selects / 3 derefs / 3 iters", cnt)
	}
}

func TestBuildClassifiesSelections(t *testing.T) {
	cases := []struct {
		body    string
		slot    int
		class   MatchClass
		effects bool
	}{
		{`S (keyword, "hot", ?) -> T`, 0, ClassLiteral, false},
		{`S (n, 1..10, ?) -> T`, 0, ClassGlob, false},
		{`S (a, ~"frag", ?) -> T`, 0, ClassGlob, false},
		{`S (a, /^Hyper/, ?) -> T`, 0, ClassGlob, false},
		{`S (pointer, "Ref", ?X) ^^X -> T`, 0, ClassBinding, true},
		{`S (f, "Title", ->title) -> T`, 0, ClassBinding, true},
		// $X tests against a prior binding: environment-dependent even though
		// the tuple also passes a glob test.
		{`S (p, "a", ?X) (b, ~"f", $X) -> T`, 1, ClassEnv, false},
	}
	for _, tc := range cases {
		c := query.MustCompile(tc.body)
		p := Build(c, nil, nil)
		op := p.Ops[tc.slot]
		if op.Class != tc.class {
			t.Errorf("%s: slot %d class %v, want %v", tc.body, tc.slot, op.Class, tc.class)
		}
		if op.HasEffects != tc.effects {
			t.Errorf("%s: slot %d effects %v, want %v", tc.body, tc.slot, op.HasEffects, tc.effects)
		}
	}
}

// classBodies holds selections of every MatchClass, covering each field
// operator; slot is the selection's filter index.
var classBodies = []struct {
	body  string
	slot  int
	class MatchClass
}{
	{`S (keyword, "hot", ?) -> T`, 0, ClassLiteral},
	{`S (Rand10, 5, 5.0) -> T`, 0, ClassLiteral},
	{`S (Pointer, @s2:7, ?) -> T`, 0, ClassLiteral},
	{`S (?, "hot", ?) -> T`, 0, ClassLiteral},
	{`S (keyword, ~"ot", "x") -> T`, 0, ClassGlob},
	{`S (?, ~"", ?) -> T`, 0, ClassGlob}, // any text key, and no other kind
	{`S (keyword, /^h.t$/, ?) -> T`, 0, ClassGlob},
	{`S (Rand10, 1..6, ?) -> T`, 0, ClassGlob},
	{`S (Pointer, "Tree", ?X) ^^X -> T`, 0, ClassBinding},
	{`S (String, "Title", ->title) -> T`, 0, ClassBinding},
	{`S (Pointer, "Tree", ?X) (keyword, $X, ?) -> T`, 1, ClassEnv},
	{`S (Pointer, "Tree", ?X) (Pointer, ?, $X) -> T`, 1, ClassEnv},
}

// oracleTuples mixes kinds so that every class above both matches and
// misses somewhere.
var oracleTuples = []object.Tuple{
	{Type: "keyword", Key: object.String("hot"), Data: object.String("x")},
	{Type: "keyword", Key: object.Keyword("hot"), Data: object.Value{}},
	{Type: "keyword", Key: object.String("cold"), Data: object.String("x")},
	{Type: "keyword", Key: object.String("hot"), Data: object.Int(7)},
	{Type: "keyword", Key: object.String("hit"), Data: object.Int(7)},
	{Type: "other", Key: object.String("hot"), Data: object.String("x")},
	{Type: "Rand10", Key: object.Int(5), Data: object.Float(5)},
	{Type: "Rand10", Key: object.Float(5.5), Data: object.Int(5)},
	{Type: "Rand10", Key: object.String("5"), Data: object.Int(9)},
	{Type: "Pointer", Key: object.String("Tree"), Data: object.Pointer(object.ID{Birth: 2, Seq: 7})},
	{Type: "Pointer", Key: object.Pointer(object.ID{Birth: 2, Seq: 7}), Data: object.Pointer(object.ID{Birth: 2, Seq: 7})},
	{Type: "String", Key: object.String("Title"), Data: object.String("HyperFile")},
	{Type: "Bytes", Key: object.Bytes([]byte("hot")), Data: object.Bytes(nil)},
}

// TestMatchAgreesWithOracle runs every class of selection over a mixed set
// of tuples, under an empty environment and one binding X to values some
// tuples carry, and checks Op.Match against the closure oracle.
func TestMatchAgreesWithOracle(t *testing.T) {
	var bound pattern.Env
	bound.Bind("X", object.Keyword("hot"))
	bound.Bind("X", object.Pointer(object.ID{Birth: 2, Seq: 7}))
	envs := []pattern.Env{{}, bound}
	var seen [len(classNames)]int
	for _, cb := range classBodies {
		op := &Build(query.MustCompile(cb.body), nil, nil).Ops[cb.slot]
		if op.Class != cb.class {
			t.Fatalf("%s: slot %d class %v, want %v", cb.body, cb.slot, op.Class, cb.class)
		}
		seen[op.Class]++
		for _, env := range envs {
			for _, tu := range oracleTuples {
				checkAgainstOracle(t, op, tu, env)
			}
		}
	}
	for c, n := range seen {
		if n == 0 {
			t.Errorf("no selection of class %v checked", MatchClass(c))
		}
	}
}

// TestMatchDoesNotAllocate guards the in-place kernel: matching must keep
// the tuple on the caller's stack, whether it is handed over by pointer or
// by value. A matcher that passes the tuple (or a field of it) through a
// func value makes it escape, and both calls below then allocate once.
func TestMatchDoesNotAllocate(t *testing.T) {
	var env pattern.Env
	env.Bind("X", object.Keyword("hot"))
	for _, cb := range classBodies {
		op := &Build(query.MustCompile(cb.body), nil, nil).Ops[cb.slot]
		for i := range oracleTuples {
			if n := testing.AllocsPerRun(100, func() {
				tu := oracleTuples[i]
				op.Match(&tu, env)
			}); n != 0 {
				t.Errorf("%s: Match(%v) allocates %.0f times per call", cb.body, oracleTuples[i], n)
			}
			if n := testing.AllocsPerRun(100, func() {
				op.MatchTuple(oracleTuples[i], env)
			}); n != 0 {
				t.Errorf("%s: MatchTuple(%v) allocates %.0f times per call", cb.body, oracleTuples[i], n)
			}
		}
	}
}

func TestBuildFusesSelectDeref(t *testing.T) {
	c := query.MustCompile(`S [ (pointer, "Cites", ?X) ^^X ]** -> T`)
	p := Build(c, nil, nil)
	if !p.Ops[0].FuseDeref {
		t.Fatal("selection binding ?X followed by ^^X did not fuse")
	}
	if p.Counts().Fused != 1 {
		t.Errorf("Fused = %d, want 1", p.Counts().Fused)
	}
	// The deref slot must remain a complete standalone operator: remote
	// continuations enter at that index directly.
	if p.Ops[1].Kind != query.FDeref || p.Ops[1].F.Var != "X" {
		t.Errorf("fused deref slot is not standalone: %+v", p.Ops[1])
	}
}

func TestBuildDoesNotFuseUnrelatedVar(t *testing.T) {
	c := query.MustCompile(`S (pointer, "a", ?X) (pointer, "b", ?Y) ^^X -> T`)
	p := Build(c, nil, nil)
	for i, op := range p.Ops {
		if op.FuseDeref {
			t.Errorf("op %d fused, but the adjacent select binds Y while the deref follows X", i)
		}
	}
}

func TestBuildDoesNotFuseAcrossIterBodyStart(t *testing.T) {
	// The deref is the iterator's body start: items looping back enter at
	// that slot standalone, so the preceding selection must not fuse with it.
	c, err := query.Compile(mustParse(t, `S (pointer, "seed", ?X) [ ^^X (pointer, "next", ?X) ]*2 -> T`))
	if err != nil {
		t.Skipf("grammar rejects deref-led iterator body: %v", err)
	}
	p := Build(c, nil, nil)
	starts := c.BodyStarts()
	for i, op := range p.Ops {
		if op.FuseDeref && starts[i+1] {
			t.Fatalf("op %d fused into a deref that is an iterator body start", i)
		}
	}
}

func mustParse(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	return q
}

func TestBuildCountsClasses(t *testing.T) {
	c := query.MustCompile(`S (keyword, "hot", ?) (n, 1..10, ?) (pointer, "Ref", ?X) ^^X -> T`)
	p := Build(c, nil, nil)
	cnt := p.Counts()
	if cnt.Classes[ClassLiteral] != 1 || cnt.Classes[ClassGlob] != 1 || cnt.Classes[ClassBinding] != 1 {
		t.Errorf("class counts = %v", cnt.Classes)
	}
	if cnt.Fused != 1 {
		t.Errorf("fused = %d, want 1", cnt.Fused)
	}
}

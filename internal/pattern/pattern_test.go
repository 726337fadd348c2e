package pattern

import (
	"math"
	"testing"
	"testing/quick"

	"hyperfile/internal/object"
)

func TestEnvBindDedup(t *testing.T) {
	env := Env{}
	env.Bind("X", object.String("a"))
	env.Bind("X", object.String("a"))
	env.Bind("X", object.String("b"))
	if got := len(env.Lookup("X")); got != 2 {
		t.Errorf("Lookup(X) = %d values, want 2 (dedup)", got)
	}
	if got := env.Lookup("Y"); got != nil {
		t.Errorf("Lookup(Y) = %v, want nil", got)
	}
}

func TestEnvCloneIndependence(t *testing.T) {
	env := Env{}
	env.Bind("X", object.Int(1))
	c := env.Clone()
	c.Bind("X", object.Int(2))
	c.Bind("Y", object.Int(3))
	if len(env.Lookup("X")) != 1 || len(env.Lookup("Y")) != 0 {
		t.Errorf("Clone aliases original: %v", env)
	}
	// Rebinding the original's reused storage must not reach the clone.
	env.Reset()
	env.Bind("Y", object.Int(4))
	if got := c.Lookup("X"); len(got) != 2 || !got[0].Equal(object.Int(1)) {
		t.Errorf("Reset and Bind on the original changed the clone's X: %v", got)
	}
	if got := c.Lookup("Y"); len(got) != 1 || !got[0].Equal(object.Int(3)) {
		t.Errorf("Reset and Bind on the original changed the clone's Y: %v", got)
	}
	var nilEnv Env
	if nilEnv.Clone() != nil {
		t.Errorf("nil env clone should be nil")
	}
}

// TestEnvResetKeepsStorage: after Reset every binding set reads empty, and
// once the storage has grown to fit, a Reset, Bind, Lookup cycle allocates
// nothing — the engine runs one per object.
func TestEnvResetKeepsStorage(t *testing.T) {
	var env Env
	cycle := func() {
		env.Reset()
		if env.Lookup("X") != nil || env.Lookup("Y") != nil {
			t.Fatal("Reset left a binding set")
		}
		env.Bind("X", object.String("a"))
		env.Bind("Y", object.Int(1))
		env.Bind("X", object.String("b"))
		env.Bind("X", object.String("a"))
		if len(env.Lookup("X")) != 2 || len(env.Lookup("Y")) != 1 {
			t.Fatalf("bindings %v, want X twice and Y once", env)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("Reset/Bind/Lookup cycle allocates %.0f times", n)
	}
}

func TestPatternMatches(t *testing.T) {
	id := object.ID{Birth: 2, Seq: 7}
	var env Env
	env.Bind("X", object.String("bound"))
	env.Bind("X", object.Int(4))
	tests := []struct {
		name string
		p    P
		v    object.Value
		want bool
	}{
		{"any matches string", Any(), object.String("x"), true},
		{"any matches nil", Any(), object.Value{}, true},
		{"literal string eq", Str("abc"), object.String("abc"), true},
		{"literal string ne", Str("abc"), object.String("abd"), false},
		{"literal text cross-kind", Str("abc"), object.Keyword("abc"), true},
		{"literal text vs bytes", Str("abc"), object.Bytes([]byte("abc")), false},
		{"literal numeric cross-kind", Lit(object.Int(3)), object.Float(3), true},
		{"literal pointer", Lit(object.Pointer(id)), object.Pointer(id), true},
		{"substring hit", Substr("gram"), object.String("Programmer"), true},
		{"substring keyword hit", Substr("gram"), object.Keyword("Programmer"), true},
		{"substring miss", Substr("xyz"), object.String("Programmer"), false},
		{"substring non-string", Substr("1"), object.Int(1), false},
		{"range inside", Range(1, 10), object.Int(5), true},
		{"range low edge", Range(1, 10), object.Int(1), true},
		{"range high edge", Range(1, 10), object.Float(10), true},
		{"range outside", Range(1, 10), object.Int(11), false},
		{"range non-numeric", Range(1, 10), object.String("5"), false},
		{"bind matches anything", Bind("Z"), object.Pointer(id), true},
		{"fetch matches anything", Fetch("out"), object.Bytes([]byte{1}), true},
		{"use hit", Use("X"), object.String("bound"), true},
		{"use numeric hit", Use("X"), object.Float(4), true},
		{"use miss", Use("X"), object.String("unbound"), false},
		{"use unbound var", Use("W"), object.String("x"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Matches(tt.v, env); got != tt.want {
				t.Errorf("%v.Matches(%v) = %v, want %v", tt.p, tt.v, got, tt.want)
			}
		})
	}
}

func TestMatchesIsPure(t *testing.T) {
	env := Env{}
	Bind("X").Matches(object.String("v"), env)
	Fetch("F").Matches(object.String("v"), env)
	if len(env) != 0 {
		t.Errorf("Matches must not mutate env; got %v", env)
	}
}

func TestBindsAndFetches(t *testing.T) {
	if v, ok := Bind("X").BindsVar(); !ok || v != "X" {
		t.Errorf("Bind.BindsVar = %q, %v", v, ok)
	}
	if _, ok := Any().BindsVar(); ok {
		t.Errorf("Any should not bind")
	}
	if v, ok := Fetch("out").FetchesVar(); !ok || v != "out" {
		t.Errorf("Fetch.FetchesVar = %q, %v", v, ok)
	}
	if _, ok := Bind("X").FetchesVar(); ok {
		t.Errorf("Bind should not fetch")
	}
}

func TestTypePattern(t *testing.T) {
	if !AnyType.Matches("whatever") {
		t.Errorf("AnyType should match all tags")
	}
	tp := Type("Pointer")
	if !tp.Matches("Pointer") || tp.Matches("pointer") {
		t.Errorf("literal type pattern is case-sensitive exact match")
	}
	if AnyType.String() != "?" || tp.String() != "Pointer" {
		t.Errorf("type pattern rendering wrong")
	}
}

func TestPatternStrings(t *testing.T) {
	tests := []struct {
		p    P
		want string
	}{
		{Any(), "?"},
		{Str("a"), `"a"`},
		{Substr("a"), `~"a"`},
		{Range(1, 2), "1..2"},
		{Bind("X"), "?X"},
		{Use("X"), "$X"},
		{Fetch("f"), "->f"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// Property: a literal pattern built from any numeric value matches that value.
func TestQuickLiteralReflexive(t *testing.T) {
	f := func(n int64) bool {
		return Lit(object.Int(n)).Matches(object.Int(n), nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: range [lo, hi] matches v iff lo <= v <= hi for finite floats.
func TestQuickRangeSemantics(t *testing.T) {
	f := func(a, b, v float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(v) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		want := v >= lo && v <= hi
		return Range(lo, hi).Matches(object.Float(v), nil) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Use matches exactly the values previously bound.
func TestQuickBindUseConsistent(t *testing.T) {
	f := func(vals []int64, probe int64) bool {
		env := Env{}
		want := false
		for _, v := range vals {
			env.Bind("X", object.Int(v))
			if v == probe {
				want = true
			}
		}
		return Use("X").Matches(object.Int(probe), env) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package pattern

import (
	"testing"

	"hyperfile/internal/object"
)

// FuzzPattern throws arbitrary operators, literals, and values at the
// matcher: Match, String, BindsVar, and FetchesVar must never panic, and
// Match must agree with the closure oracle, be deterministic, and leave the
// environment untouched.
func FuzzPattern(f *testing.F) {
	f.Add(uint8(0), uint8(1), "hello", int64(0), 0.0, 1.0, "X", uint8(1), "hello world", int64(0), 0.5)
	f.Add(uint8(1), uint8(2), "hot", int64(7), -1.0, 1.0, "Y", uint8(2), "hot", int64(7), 0.0)
	f.Add(uint8(2), uint8(1), "ell", int64(0), 0.0, 0.0, "", uint8(1), "hello", int64(0), 0.0)
	f.Add(uint8(3), uint8(1), "h.*o", int64(0), 0.0, 0.0, "re", uint8(2), "hallo", int64(0), 0.0)
	f.Add(uint8(4), uint8(3), "", int64(0), 2.5, 7.5, "", uint8(3), "", int64(5), 0.0)
	f.Add(uint8(5), uint8(1), "", int64(0), 0.0, 0.0, "X", uint8(4), "", int64(0), 3.25)
	f.Add(uint8(6), uint8(1), "bound", int64(0), 0.0, 0.0, "X", uint8(1), "bound", int64(0), 0.0)
	f.Add(uint8(7), uint8(0), "", int64(0), 0.0, 0.0, "title", uint8(0), "", int64(0), 0.0)
	f.Add(uint8(200), uint8(200), "\x00\xff", int64(-1), 2.0, -2.0, "\xf0", uint8(200), "\x00", int64(-1), -0.0)

	f.Fuzz(func(t *testing.T, op, litKind uint8, litStr string, litInt int64,
		lo, hi float64, varName string, valKind uint8, valStr string, valInt int64, valFloat float64) {

		mkValue := func(kind uint8, s string, n int64, fl float64) object.Value {
			switch kind % 6 {
			case 0:
				return object.Value{}
			case 1:
				return object.String(s)
			case 2:
				return object.Keyword(s)
			case 3:
				return object.Int(n)
			case 4:
				return object.Float(fl)
			default:
				return object.Pointer(object.ID{Birth: object.SiteID(n), Seq: uint64(n)})
			}
		}
		lit := mkValue(litKind, litStr, litInt, lo)
		val := mkValue(valKind, valStr, valInt, valFloat)

		var p P
		switch op % 8 {
		case 0:
			p = Any()
		case 1:
			p = Lit(lit)
		case 2:
			p = Substr(litStr)
		case 3:
			var err error
			if p, err = Regex(litStr); err != nil {
				p = Any() // invalid regex source: rejected at compile, nothing to match
			}
		case 4:
			p = Range(lo, hi)
		case 5:
			p = Bind(varName)
		case 6:
			p = Use(varName)
		case 7:
			p = Fetch(varName)
		}
		// An operator byte outside the known range must not panic either.
		if op >= 8 {
			p.Op = Op(op)
		}

		var env Env
		env.Bind(varName, lit)
		before := len(env.Lookup(varName))

		m1 := p.Match(&val, env)
		if want := oracle(p)(val, env); m1 != want {
			t.Fatalf("Match = %v, closure oracle = %v for %v on %v", m1, want, p, val)
		}
		if m2 := p.Matches(val, env.Clone()); m1 != m2 {
			t.Fatalf("Match not deterministic: %v then %v for %v on %v", m1, m2, p, val)
		}
		if got := len(env.Lookup(varName)); len(env) != 1 || got != before {
			t.Fatalf("Match mutated the environment: %d vars / %d bindings, had 1 / %d", len(env), got, before)
		}
		_ = p.String()
		if name, ok := p.BindsVar(); ok && name != varName {
			t.Fatalf("BindsVar = %q, want %q", name, varName)
		}
		if name, ok := p.FetchesVar(); ok && name != varName {
			t.Fatalf("FetchesVar = %q, want %q", name, varName)
		}
		_ = Type(litStr).Matches(valStr)
	})
}

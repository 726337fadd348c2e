package plan

import (
	"testing"

	"hyperfile/internal/object"
	"hyperfile/internal/pattern"
	"hyperfile/internal/query"
)

// fuzzPattern builds one field pattern from fuzz bytes: every operator, with
// text, numeric and pointer literals.
func fuzzPattern(op uint8, s string, n int64) pattern.P {
	switch op % 10 {
	case 1:
		return pattern.Str(s)
	case 2:
		return pattern.Lit(object.Int(n))
	case 3:
		return pattern.Lit(object.Pointer(object.ID{Birth: object.SiteID(n % 4), Seq: uint64(n % 8)}))
	case 4:
		return pattern.Substr(s)
	case 5:
		if p, err := pattern.Regex(s); err == nil {
			return p
		}
	case 6:
		return pattern.Range(float64(n)-1.5, float64(n)+1.5)
	case 7:
		return pattern.Bind("X")
	case 8:
		return pattern.Use("X")
	case 9:
		return pattern.Fetch("F")
	}
	return pattern.Any()
}

// fuzzValue builds one tuple field from fuzz bytes, over every value kind.
func fuzzValue(kind uint8, s string, n int64) object.Value {
	switch kind % 7 {
	case 1:
		return object.String(s)
	case 2:
		return object.Keyword(s)
	case 3:
		return object.Int(n)
	case 4:
		return object.Float(float64(n) / 2)
	case 5:
		return object.Pointer(object.ID{Birth: object.SiteID(n % 4), Seq: uint64(n % 8)})
	case 6:
		return object.Bytes([]byte(s))
	}
	return object.Value{}
}

// FuzzMatchTuple generates selections and tuples and checks the plan's
// in-place kernel, Op.Match (and its by-value MatchTuple), against the
// closure oracle, under an environment that binds X to values the tuple
// generator can produce.
func FuzzMatchTuple(f *testing.F) {
	f.Add("keyword", false, uint8(1), uint8(0), "hot", int64(0), "keyword", uint8(1), uint8(0), "hot", int64(0))
	f.Add("Rand10", false, uint8(2), uint8(6), "", int64(5), "Rand10", uint8(3), uint8(4), "", int64(5))
	f.Add("Pointer", false, uint8(1), uint8(7), "Tree", int64(3), "Pointer", uint8(1), uint8(5), "Tree", int64(3))
	f.Add("", true, uint8(4), uint8(5), "ot", int64(0), "keyword", uint8(2), uint8(1), "hot", int64(0))
	f.Add("b", false, uint8(8), uint8(9), "hot", int64(2), "b", uint8(2), uint8(6), "hot", int64(2))
	f.Fuzz(func(t *testing.T, typ string, wild bool, keyOp, dataOp uint8, lit string, n int64,
		tupType string, keyKind, dataKind uint8, val string, m int64) {

		sel := query.Select{
			Type: pattern.TypePattern{Wild: wild, Name: typ},
			Key:  fuzzPattern(keyOp, lit, n),
			Data: fuzzPattern(dataOp, lit, n),
		}
		c := &query.Compiled{Filters: []query.Filter{{Kind: query.FSelect, Sel: sel}}}
		op := &Build(c, nil, nil).Ops[0]
		tu := object.Tuple{Type: tupType, Key: fuzzValue(keyKind, val, m), Data: fuzzValue(dataKind, val, m)}
		var env pattern.Env
		env.Bind("X", object.Keyword(lit))
		env.Bind("X", object.Int(n))
		checkAgainstOracle(t, op, tu, env)
	})
}

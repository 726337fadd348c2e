package termination

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"hyperfile/internal/object"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden credit tokens under testdata/fuzz/FuzzCreditToken")

func pow2(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }

// goldenCredits are the values whose token bytes are pinned under testdata:
// a change of layout has to rewrite them on purpose. They are also the seed
// corpus of FuzzCreditToken (the files are in go test's corpus format).
func goldenCredits() map[string]*credit {
	return map[string]*credit{
		"one":             creditOf(big.NewInt(1), 0),
		"half":            creditOf(big.NewInt(1), 1),
		"3_over_1024":     creditOf(big.NewInt(3), 10),
		"2_pow_minus_300": creditOf(big.NewInt(1), 300),
		// What the originator of a 270-hop chain has recovered before the
		// last return: the widest mantissa a benchmark workload produces.
		"1_minus_2_pow_minus_270": creditOf(new(big.Int).Sub(pow2(270), big.NewInt(1)), 270),
	}
}

func TestGoldenTokens(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCreditToken")
	for name, c := range goldenCredits() {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", c.encode())
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-golden if the layout change is intended)", err)
		}
		if string(got) != want {
			t.Errorf("%s: token is now\n%sgolden\n%s", name, want, got)
		}
		var back credit
		if err := back.decode(c.encode()); err != nil {
			t.Errorf("%s: does not decode: %v", name, err)
		} else if back.rat().Cmp(c.rat()) != 0 {
			t.Errorf("%s: decodes to %v, want %v", name, &back, c)
		}
	}
	// The layout, spelt out once: uvarint exponent, big-endian odd mantissa.
	if got := creditOf(big.NewInt(3), 10).encode(); !bytes.Equal(got, []byte{10, 3}) {
		t.Errorf("3/1024 = %x, want 0a03", got)
	}
	if got := creditOf(big.NewInt(1), 300).encode(); !bytes.Equal(got, []byte{0xAC, 0x02, 1}) {
		t.Errorf("2^-300 = %x, want ac0201", got)
	}
}

// malformedTokens are rejected by the one decode function both entry points
// share, whatever the detector holds.
func malformedTokens() map[string][]byte {
	return map[string][]byte{
		"empty":                  nil,
		"exponent only":          {1},
		"zero share":             {1, 0},
		"zero share, no bytes":   {0},
		"share above 1":          {0, 3},
		"share above 1, 3/2":     {1, 3},
		"two":                    {0, 2},
		"even mantissa":          {3, 2},
		"leading-zero mantissa":  {3, 0, 1},
		"truncated varint":       {0x80},
		"overlong varint":        {0x81, 0x00, 1},
		"varint past 64 bits":    {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1},
		"exponent 2^40":          append(binary.AppendUvarint(nil, 1<<40), 1),
		"exponent past the cap":  append(binary.AppendUvarint(nil, maxExp+1), 1),
		"mantissa wider than it": append([]byte{8}, 1, 1), // 257/256
		// The mantissa runs to the end of the token (the wire layer frames
		// it), so a trailing byte is a wider mantissa: even, or worth more.
		"1/2 and a trailing 0": {1, 1, 0},
		"1/2 and a trailing 1": {1, 1, 1},
	}
}

func TestMalformedTokensRejectedAtBothEntryPoints(t *testing.T) {
	for name, tok := range malformedTokens() {
		origin := newWeighted(1, 1, Metrics{})
		if _, err := origin.OnSend(2); err != nil { // origin holds 1/2, recovered 0
			t.Fatal(err)
		}
		part := newWeighted(2, 1, Metrics{})
		if _, err := part.OnWorkReceived(1, tok); !errors.Is(err, ErrToken) {
			t.Errorf("OnWorkReceived(%s %x) = %v, want ErrToken", name, tok, err)
		}
		if err := origin.OnControl(2, tok); !errors.Is(err, ErrToken) {
			t.Errorf("OnControl(%s %x) = %v, want ErrToken", name, tok, err)
		}
		if !part.held.isZero() || !origin.recovered.isZero() || origin.held.rat().Cmp(big.NewRat(1, 2)) != 0 {
			t.Errorf("%s: a refused token changed the ledgers: held %v / %v, recovered %v",
				name, &part.held, &origin.held, &origin.recovered)
		}
		// A hostile token costs its own few bytes: nothing is built, shifted
		// or even formatted before it is refused.
		allocs := testing.AllocsPerRun(20, func() {
			_, _ = part.OnWorkReceived(1, tok)
			_ = origin.OnControl(2, tok)
		})
		if allocs != 0 {
			t.Errorf("%s: refusing it allocated %.0f times", name, allocs)
		}
	}
	// A trailing byte that happens to leave a valid share has made a
	// different value: the forged token Audit's outstanding ledger is for.
	a := NewAudit()
	origin := a.Wrap("q", New(Weighted, 1, 1))
	part := a.Wrap("q", New(Weighted, 2, 1))
	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ { // 2^-10: room for a byte under the exponent
		if tok, err = origin.OnSend(2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := part.OnWorkReceived(1, append(tok, 1)); err != nil || a.Err() == nil {
		t.Errorf("257/1024 passed off as 1/1024: err %v, audit %v", err, a.Err())
	}
}

func TestOverRecoveryStillRejected(t *testing.T) {
	origin := newWeighted(1, 1, Metrics{})
	tok, err := origin.OnSend(2)
	if err != nil {
		t.Fatal(err)
	}
	origin.OnIdle()
	if err := origin.OnControl(2, tok); err != nil || !origin.Done() {
		t.Fatalf("first return: %v, done %v", err, origin.Done())
	}
	if err := origin.OnControl(2, tok); !errors.Is(err, ErrToken) {
		t.Errorf("second return of the same half: %v, want ErrToken", err)
	}
}

// TestSplitRefusedAtExponentBound: the old layout silently truncated a chunk
// of 64 KiB and had already subtracted the share. Now a split that would take
// the exponent past what decode accepts is refused before held changes, and
// the query's credit still sums to 1.
func TestSplitRefusedAtExponentBound(t *testing.T) {
	// The bound is met by halving alone: the last token emitted still decodes.
	w := newWeighted(1, 1, Metrics{})
	var last []byte
	for i := 0; i < maxExp; i++ {
		tok, err := w.OnSend(2)
		if err != nil {
			t.Fatalf("split %d: %v", i, err)
		}
		last = tok
	}
	if err := new(credit).decode(last); err != nil {
		t.Fatalf("the deepest token a site emits is refused by its peers: %v", err)
	}
	if _, err := w.OnSend(2); !errors.Is(err, ErrToken) {
		t.Fatalf("split past the bound: %v, want ErrToken", err)
	}

	// Under Audit: the participant holds 2^-maxExp, the originator the rest.
	a := NewAudit()
	ow, pw := newWeighted(1, 1, Metrics{}), newWeighted(2, 1, Metrics{})
	ow.held = *creditOf(new(big.Int).Sub(pow2(maxExp), big.NewInt(1)), maxExp)
	pw.held = *creditOf(big.NewInt(1), maxExp)
	origin, part := a.Wrap("q", ow), a.Wrap("q", pw)
	if _, err := part.OnSend(3); !errors.Is(err, ErrToken) {
		t.Fatalf("split past the bound: %v, want ErrToken", err)
	}
	if pw.held.rat().Cmp(creditOf(big.NewInt(1), maxExp).rat()) != 0 {
		t.Fatalf("the refused split changed held to %v", &pw.held)
	}
	for _, cm := range part.OnIdle() {
		if err := origin.OnControl(2, cm.Token); err != nil {
			t.Fatal(err)
		}
	}
	origin.OnIdle()
	if err := a.Err(); err != nil {
		t.Fatalf("credit not conserved around a refused split: %v", err)
	}
	if !origin.Done() {
		t.Error("not done after the refused split's credit came home")
	}
}

// TestHeldAboveOneStaysCanonical: only a duplicated token takes held past 1,
// but a site in that state must still emit tokens with one encoding each (its
// peers then refuse them as worth more than 1).
func TestHeldAboveOneStaysCanonical(t *testing.T) {
	w := newWeighted(2, 1, Metrics{})
	one := creditOf(big.NewInt(1), 0).encode()
	for i := 0; i < 4; i++ {
		if _, err := w.OnWorkReceived(1, one); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []int64{2, 1} { // 4 halves to 2, then to 1
		tok, err := w.OnSend(3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tok, []byte{0, byte(want)}) {
			t.Errorf("token %x, want 00%02x", tok, want)
		}
	}
	if err := new(credit).decode([]byte{0, 2}); !errors.Is(err, ErrToken) {
		t.Errorf("a share of 2 decoded: %v", err)
	}
}

func diffMaker(t testing.TB) detectorMaker {
	return func(self, origin object.SiteID) Detector { return newDiff(t, self, origin) }
}

// The differential tests run every schedule the package has against the
// dyadic detector and the big.Rat oracle at once (see diffDetector), with
// hand-offs on a seeded share of drains.
func TestDifferentialRandomSchedules(t *testing.T) {
	handedOff := 0
	for seed := int64(0); seed < 64; seed++ {
		handedOff += execution(t, "dyadic vs big.Rat", diffMaker(t), seed, 2+int(seed)%8, 0.5)
	}
	if handedOff == 0 {
		t.Fatal("no schedule handed credit off")
	}
	t.Logf("%d hand-offs across the schedules", handedOff)
}

func TestDifferentialSerialChain(t *testing.T) { serialChain(t, diffMaker(t), 270, 0.5) }

func TestDifferentialWideFanout(t *testing.T) { wideFanout(t, diffMaker(t), 200) }

// TestSteadyStateAllocations is the allocation gate: a split allocates its
// token and nothing else; an ingest, at either entry point, nothing at all.
func TestSteadyStateAllocations(t *testing.T) {
	origin, part := newWeighted(1, 1, Metrics{}), newWeighted(2, 1, Metrics{})
	var tok []byte
	round := func() {
		tok, _ = origin.OnSend(2)
		_, _ = part.OnWorkReceived(1, tok)
		tok = part.OnIdle()[0].Token
		_ = origin.OnControl(2, tok)
	}
	round() // size the mantissas once
	if n := testing.AllocsPerRun(100, func() { tok, _ = origin.OnSend(2) }); n > 1 {
		t.Errorf("a split allocated %.0f times, want at most 1 (the token)", n)
	}
	sent := tok
	if n := testing.AllocsPerRun(100, func() { _, _ = part.OnWorkReceived(1, sent) }); n != 0 {
		t.Errorf("ingesting work allocated %.0f times, want 0", n)
	}
	back := part.OnIdle()[0].Token
	o := newWeighted(1, 1, Metrics{})
	if n := testing.AllocsPerRun(100, func() {
		o.recovered.reset()
		_ = o.OnControl(2, back)
	}); n != 0 {
		t.Errorf("banking a return allocated %.0f times, want 0", n)
	}
}

func BenchmarkWeightedFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wideFanout(b, ofMode(Weighted), 200)
	}
}

func BenchmarkWeightedChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serialChain(b, ofMode(Weighted), 270, 0)
	}
}

// FuzzCreditToken: decode never panics, what it accepts is a share in (0, 1]
// that encodes back to the identical bytes, and the value built is no larger
// than the input.
func FuzzCreditToken(f *testing.F) {
	for _, tok := range malformedTokens() {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		var c credit
		if err := c.decode(tok); err != nil {
			if !errors.Is(err, ErrToken) {
				t.Fatalf("decode(%x): %v is not an ErrToken", tok, err)
			}
			return
		}
		if got := c.encode(); !bytes.Equal(got, tok) {
			t.Fatalf("decode(%x) re-encodes to %x", tok, got)
		}
		if c.isZero() || c.exceedsOne() || c.exp > maxExp {
			t.Fatalf("decode(%x) accepted %v", tok, &c)
		}
		if words := len(c.mant.Bits()); words > len(tok)/8+1 {
			t.Fatalf("decode(%x) built %d words from %d bytes", tok, words, len(tok))
		}
		// An accepted share can always be banked by a fresh originator.
		o := newWeighted(1, 1, Metrics{})
		if err := o.OnControl(2, tok); err != nil {
			t.Fatalf("OnControl(%x): %v", tok, err)
		}
	})
}

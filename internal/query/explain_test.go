package query

import (
	"strings"
	"testing"
)

func TestExplainRendersPlan(t *testing.T) {
	c := MustCompile(`S [ (pointer, "Reference", ?X) ^^X ]*3 (keyword, "Distributed", ?) (String, "Title", ->title) -> T`)
	got := c.Explain()
	for _, want := range []string{
		"filters: 11",
		"retrieves: title",
		"binds X from data",
		"dereference ^^X (keep source) -> items start at F5",
		"iterate body F0..F1, up to 3 pointer levels, exit F9",
		"iterate body F6..F7, up to 3 pointer levels, last copy, exit F9",
		"retrieves title",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain missing %q in:\n%s", want, got)
		}
	}
}

func TestExplainClosureWarnings(t *testing.T) {
	c := MustCompile(`S [ (pointer, "Cites", ?X) ^X ]** -> T`)
	got := c.Explain()
	if !strings.Contains(got, "consuming dereference ^X inside a closure body") {
		t.Errorf("missing consume warning:\n%s", got)
	}
	if !strings.Contains(got, "re-match this selection") {
		t.Errorf("missing selection warning:\n%s", got)
	}
	// Bounded iterators don't warn.
	c2 := MustCompile(`S [ (pointer, "Cites", ?X) ^X ]*3 -> T`)
	if strings.Contains(c2.Explain(), "notes:") {
		t.Errorf("bounded iterator should not warn:\n%s", c2.Explain())
	}
}

func TestExplainTransitiveClosureLabel(t *testing.T) {
	c := MustCompile(`S [ (p, ?, ?X) ^^X ]** -> T`)
	if !strings.Contains(c.Explain(), "transitive closure") {
		t.Errorf("closure label missing:\n%s", c.Explain())
	}
}

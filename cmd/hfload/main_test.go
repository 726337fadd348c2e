package main

import (
	"testing"

	"hyperfile/internal/leaktest"
)

// TestMain fails the package if any test strands a goroutine; see
// internal/leaktest.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}

func TestParseMultipliers(t *testing.T) {
	got, err := parseMultipliers("0.5, 1,2")
	if err != nil || len(got) != 3 || got[0] != 0.5 || got[2] != 2 {
		t.Fatalf("multipliers = %v, err %v", got, err)
	}
	for _, bad := range []string{"", "x", "1,-2", "0", "1,,2"} {
		if _, err := parseMultipliers(bad); err == nil {
			t.Errorf("parseMultipliers(%q): expected error", bad)
		}
	}
}

func TestUSRendering(t *testing.T) {
	if s := us(2048); s != "2.05ms" {
		t.Errorf("us(2048) = %q", s)
	}
	if s := us(0); s != "0s" {
		t.Errorf("us(0) = %q", s)
	}
}

// TestRunRejectsBadTuning: an out-of-range knob stops hfload before it
// builds a cluster.
func TestRunRejectsBadTuning(t *testing.T) {
	for _, args := range [][]string{
		{"-max-inflight", "-1"},
		{"-max-inflight", "0"}, // the default admission queue needs a bound
	} {
		if code := run(args); code != 1 {
			t.Errorf("hfload %q: exit %d, want 1", args, code)
		}
	}
}

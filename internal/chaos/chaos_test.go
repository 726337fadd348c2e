package chaos

import (
	"testing"
	"time"

	"hyperfile/internal/object"
)

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.3, DupRate: 0.2, DelayRate: 0.5, MaxDelay: time.Millisecond}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 200; i++ {
		d1, c1, l1 := a.Judge(1, 2)
		d2, c2, l2 := b.Judge(1, 2)
		if d1 != d2 || c1 != c2 || l1 != l2 {
			t.Fatalf("decision %d diverged: (%v,%d,%v) vs (%v,%d,%v)", i, d1, c1, l1, d2, c2, l2)
		}
	}
}

func TestInjectorPartitionAndHeal(t *testing.T) {
	in := NewInjector(Config{Seed: 1})
	in.Partition(1, 2)
	if drop, _, _ := in.Judge(1, 2); !drop {
		t.Error("severed 1->2 link delivered")
	}
	if drop, _, _ := in.Judge(2, 1); !drop {
		t.Error("severed 2->1 link delivered")
	}
	if drop, _, _ := in.Judge(1, 3); drop {
		t.Error("unrelated link dropped")
	}
	in.Heal(1, 2)
	if drop, _, _ := in.Judge(1, 2); drop {
		t.Error("healed link still drops")
	}
	in.Isolate(3, []object.SiteID{1, 2})
	if drop, _, _ := in.Judge(2, 3); !drop {
		t.Error("isolated site reachable")
	}
	in.HealAll()
	if drop, _, _ := in.Judge(2, 3); drop {
		t.Error("HealAll left link severed")
	}
}

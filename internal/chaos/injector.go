// Package chaos provides deterministic fault injection for the HyperFile
// networking stack. An Injector decides, per message, whether to drop,
// duplicate, delay, or partition traffic between sites. It plugs into
// transport.TCP as its Fault hook, below the reliability layer, so the same
// faults drive hyperfiled's -chaos-* flags and the in-process cluster's
// loopback servers. All randomness flows from a single seed so a failing run
// can be replayed exactly.
package chaos

import (
	"math/rand"
	"sync"
	"time"

	"hyperfile/internal/object"
)

// Config sets the fault rates an Injector applies. Zero value = no faults.
type Config struct {
	// Seed initialises the RNG; runs with the same seed and message order
	// make identical decisions. Zero means "pick from the clock".
	Seed int64
	// DropRate is the probability in [0,1] a message is silently discarded.
	DropRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// DelayRate is the probability a message is held for a random duration
	// in [MinDelay, MaxDelay] before delivery.
	DelayRate float64
	MinDelay  time.Duration
	MaxDelay  time.Duration
	// ReorderRate is the probability a message is delayed just long enough
	// to overtake later traffic (an extra random delay up to MaxDelay, or
	// 10ms when MaxDelay is unset). Distinct from DelayRate so tests can
	// force reordering without long stalls.
	ReorderRate float64
}

// Injector makes per-message fault decisions. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	cfg  Config
	rng  *rand.Rand
	cuts map[[2]object.SiteID]bool // directed severed links
}

// NewInjector builds an Injector from cfg.
func NewInjector(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Injector{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		cuts: make(map[[2]object.SiteID]bool),
	}
}

// Partition severs both directions between a and b until Heal. Messages on
// a severed link are dropped regardless of DropRate.
func (in *Injector) Partition(a, b object.SiteID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cuts[[2]object.SiteID{a, b}] = true
	in.cuts[[2]object.SiteID{b, a}] = true
}

// Isolate severs every link to and from s (a crashed or unreachable site).
func (in *Injector) Isolate(s object.SiteID, peers []object.SiteID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range peers {
		in.cuts[[2]object.SiteID{s, p}] = true
		in.cuts[[2]object.SiteID{p, s}] = true
	}
}

// Heal restores the link between a and b in both directions.
func (in *Injector) Heal(a, b object.SiteID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.cuts, [2]object.SiteID{a, b})
	delete(in.cuts, [2]object.SiteID{b, a})
}

// HealAll removes every partition.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	clear(in.cuts)
}

// Judge decides the fate of one message from -> to. It returns drop=true to
// discard the message, otherwise copies >= 1 deliveries (2 when duplicated)
// each after the returned delay. The signature is structural: transport.TCP
// declares a matching Fault interface so neither package imports the other.
func (in *Injector) Judge(from, to object.SiteID) (drop bool, copies int, delay time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cuts[[2]object.SiteID{from, to}] {
		return true, 0, 0
	}
	if in.cfg.DropRate > 0 && in.rng.Float64() < in.cfg.DropRate {
		return true, 0, 0
	}
	copies = 1
	if in.cfg.DupRate > 0 && in.rng.Float64() < in.cfg.DupRate {
		copies = 2
	}
	if in.cfg.DelayRate > 0 && in.rng.Float64() < in.cfg.DelayRate {
		delay += in.randDelay(in.cfg.MinDelay, in.cfg.MaxDelay)
	}
	if in.cfg.ReorderRate > 0 && in.rng.Float64() < in.cfg.ReorderRate {
		max := in.cfg.MaxDelay
		if max <= 0 {
			max = 10 * time.Millisecond
		}
		delay += in.randDelay(0, max)
	}
	return false, copies, delay
}

// randDelay picks a duration in [min, max]; callers hold in.mu.
func (in *Injector) randDelay(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(in.rng.Int63n(int64(max-min)+1))
}

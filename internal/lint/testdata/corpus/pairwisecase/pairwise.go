// Package pairwisecase exercises pairwise's path rules: plan-pin discharge
// and the finished funnel.
package pairwisecase

import "hyperfile/internal/plan"

type holder struct {
	cache *plan.Cache
	plan  *plan.Plan
}

// dropsPin acquires a pin and then neither releases, returns, nor stores it.
func (h *holder) dropsPin(key string) int {
	if p, ok := h.cache.Acquire(key); ok { // want "neither Released, returned, nor stored"
		_ = p
		return 1
	}
	return 0
}

// returnsPin transfers ownership to the caller (the planFor shape).
func (h *holder) returnsPin(key string) *plan.Plan {
	if p, ok := h.cache.Acquire(key); ok {
		return p
	}
	return nil
}

// storesPin keeps the pin in a field the owner releases later.
func (h *holder) storesPin(key string) {
	if p, ok := h.cache.Acquire(key); ok {
		h.plan = p
	}
}

// releasesPin pairs the acquire with a release on the same path.
func (h *holder) releasesPin(key string) {
	if _, ok := h.cache.Acquire(key); ok {
		h.cache.Release(key)
	}
}

// ---- finished funnel ----

type task struct{ finished bool }

func finishA(t *task) {
	t.finished = true // want "funnel every transition"
}

func finishB(t *task) {
	t.finished = true // want "funnel every transition"
}

type job struct{ finished bool }

// finishJob is the only finished-writer for job: a proper funnel.
func finishJob(j *job) {
	if !j.finished {
		j.finished = true
	}
}

// Package engine is a corpus stub of the real engine: a stepper whose Step
// acquires the engine-internal mutex, mirroring the import path lockorder's
// Engine.Step rule keys on.
package engine

import "sync"

type Engine struct {
	mu sync.Mutex
	n  int
}

// Step advances the engine by one quantum under its internal lock.
func (e *Engine) Step() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	return e.n < 10
}

// StepN advances the engine by up to limit quanta under one lock.
func (e *Engine) StepN(limit int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n += limit
	return limit
}

// Package site is a corpus stub of the real site package: a Site with the
// site lock and an engine, exercising lockorder's Engine.Step-under-site-lock
// rule both directly and through a same-package helper.
package site

import (
	"sync"

	"hyperfile/internal/engine"
)

type Site struct {
	mu  sync.Mutex
	eng *engine.Engine
}

// stepUnderLock violates the worker-pool contract directly.
func (s *Site) stepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.Step() // want "engine.Engine.Step runs on this call path while the site lock"
}

// stepViaHelper violates it transitively through a helper.
func (s *Site) stepViaHelper() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runEngine() // want "engine.Engine.Step runs on this call path while the site lock"
}

func (s *Site) runEngine() { s.eng.Step() }

// runUnderLock violates it with a run of steps.
func (s *Site) runUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eng.StepN(16) // want "engine.Engine.Step runs on this call path while the site lock"
}

// stepOutsideLock is the correct shape: the site lock is released around the
// engine step.
func (s *Site) stepOutsideLock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.eng.Step()
}

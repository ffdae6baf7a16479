// Package conc poses as repro/node to exercise the lockguard analyzer:
// fields whose writes mostly happen under the struct's mutex are
// inferred guarded, and every lock-free access is flagged.
package conc

import "sync"

// Registry guards hits with mu; done is a channel and synchronizes
// itself.
type Registry struct {
	mu   sync.Mutex
	hits int
	done chan struct{}
}

// NewRegistry writes fields through a freshly built local: constructor
// writes are exempt from both the tallies and the findings.
func NewRegistry() *Registry {
	r := &Registry{done: make(chan struct{})}
	r.hits = 0
	return r
}

// Add and Reset are the majority: locked writes that establish the
// guard relation mu -> hits.
func (r *Registry) Add() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits++
}

func (r *Registry) Reset() {
	r.mu.Lock()
	r.hits = 0
	r.mu.Unlock()
}

// Peek reads the guarded field without the lock: the "it's just a
// read" drift.
func (r *Registry) Peek() int {
	return r.hits // want `field Registry.hits is read without the lock that guards it`
}

// Bump writes the guarded field without the lock.
func (r *Registry) Bump() {
	r.hits++ // want `field Registry.hits is written without the lock that guards it`
}

// Flush locks and delegates to a helper that inherits the locked
// context (the xxxLocked convention): the helper's write is not
// flagged.
func (r *Registry) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
}

func (r *Registry) flushLocked() {
	r.hits = 0
}

// TryReset releases early in an error branch; the linear tracker must
// keep the lock held on the fallthrough path (control flow never
// reaches it through the early return).
func (r *Registry) TryReset(ok bool) bool {
	r.mu.Lock()
	if !ok {
		r.mu.Unlock()
		return false
	}
	r.hits = 0
	r.mu.Unlock()
	return true
}

// Spawn writes from a closure: a literal may run on another goroutine
// after the critical section ended, so no lock state carries in.
func (r *Registry) Spawn() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.hits++ // want `field Registry.hits is written without the lock that guards it`
	}()
}

// Report carries a reasoned suppression.
func (r *Registry) Report() int {
	//lint:lockguard-ok caller snapshots after all writers have joined
	return r.hits
}

// Stop closes the channel field: channels synchronize themselves and
// are never inferred guarded.
func (r *Registry) Stop() {
	close(r.done)
}

// Plain has no mutex: its fields are never candidates.
type Plain struct {
	n int
}

func (p *Plain) Inc() {
	p.n++
}

// lock spells the mutex through a type alias, which go/types keeps as
// *types.Alias: the struct still carries a mutex.
type lock = sync.Mutex

// Aliased guards n with a mutex named through the alias.
type Aliased struct {
	mu lock
	n  int
}

func (a *Aliased) Add() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *Aliased) Reset() {
	a.mu.Lock()
	a.n = 0
	a.mu.Unlock()
}

// Peek reads the guarded field without the lock.
func (a *Aliased) Peek() int {
	return a.n // want `field Aliased.n is read without the lock that guards it`
}

package abt

import "sync"

// Eventual is a single-assignment synchronization object, the analogue of
// ABT_eventual: ULTs (or plain goroutines) wait until some other party
// sets a value. Waiting from a ULT is cooperative — the XStream is
// released while the ULT is parked — which is how Margo turns Mercury's
// callback completion model into blocking calls.
type Eventual struct {
	mu      sync.Mutex
	isSet   bool
	val     any
	waiters []*ULT
	extCh   chan struct{} // lazily created for non-ULT waiters
}

// NewEventual returns an unset eventual.
func NewEventual() *Eventual { return &Eventual{} }

// Set stores the value and wakes all waiters. Setting an already-set
// eventual panics, matching the single-assignment contract.
func (e *Eventual) Set(v any) {
	e.mu.Lock()
	if e.isSet {
		e.mu.Unlock()
		panic("abt: Eventual set twice")
	}
	e.isSet = true
	e.val = v
	waiters := e.waiters
	e.waiters = nil
	ext := e.extCh
	e.mu.Unlock()
	if ext != nil {
		close(ext)
	}
	for _, w := range waiters {
		w.ready()
	}
}

// IsSet reports whether the eventual has been set.
func (e *Eventual) IsSet() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.isSet
}

// Wait blocks until the eventual is set and returns its value. When
// called from a ULT, self must be that ULT so the wait parks
// cooperatively; from a plain goroutine pass self == nil.
func (e *Eventual) Wait(self *ULT) any {
	e.mu.Lock()
	if e.isSet {
		v := e.val
		e.mu.Unlock()
		return v
	}
	if self == nil {
		if e.extCh == nil {
			e.extCh = make(chan struct{})
		}
		ch := e.extCh
		e.mu.Unlock()
		<-ch
	} else {
		e.waiters = append(e.waiters, self)
		self.pool.blocked.Add(1)
		e.mu.Unlock()
		self.park()
	}
	e.mu.Lock()
	v := e.val
	e.mu.Unlock()
	return v
}

package core

import (
	"runtime"
	"sync"
	"time"
)

// SysSampler provides cheap OS/runtime statistics for trace-event
// annotation. Reading runtime memory statistics is too expensive to do
// per event, so samples are cached and refreshed at a bounded rate.
type SysSampler struct {
	mu        sync.Mutex
	last      time.Time
	cached    SysSample
	refresh   time.Duration
	refreshes uint64
}

// NewSysSampler returns a sampler refreshing at most every refresh
// interval (default 10ms when zero).
func NewSysSampler(refresh time.Duration) *SysSampler {
	if refresh <= 0 {
		refresh = 10 * time.Millisecond
	}
	return &SysSampler{refresh: refresh}
}

// Refreshes reports how many times the cached sample has actually been
// recomputed — the telemetry plane exposes it so the cost of system
// sampling is itself observable (and tests assert the caching bound).
func (s *SysSampler) Refreshes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refreshes
}

// Sample returns the current (possibly cached) runtime statistics. Pool
// counters are filled in by the caller, which knows its Argobots pools.
func (s *SysSampler) Sample() SysSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refreshes == 0 || time.Since(s.last) >= s.refresh {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.cached = SysSample{
			HeapBytes:  ms.HeapAlloc,
			Goroutines: runtime.NumGoroutine(),
		}
		s.last = time.Now()
		s.refreshes++
	}
	return s.cached
}

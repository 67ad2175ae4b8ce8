// Package policy implements the dynamic-reconfiguration engine the
// paper sketches as future work (§VII): "policy-driven mechanisms
// whereby rules governing response to poor performance behavior can be
// formulated and applied based on performance monitoring". An Engine
// consumes the instance's live telemetry sampler — the same monitoring
// path that feeds /metrics — turning each fresh sampler tick into a
// Snapshot, evaluates user-formulated Rules against it, and applies the
// matching remediations live — e.g. growing the handler pool when the
// target ULT handler time dominates (the C1→C2 move) or raising
// OFI_max_events when the progress loop keeps reading at its budget
// (the C5→C6 move).
package policy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"symbiosys/internal/margo"
)

// Snapshot is one monitoring sample of an instance's health, derived
// from the same SYMBIOSYS data the offline analyses use. Fractions are
// computed over the window since the previous evaluation.
type Snapshot struct {
	At     time.Time
	Entity string

	// HandlerFraction is the target-handler share of cumulative target
	// execution accumulated during the window (Figure 9's diagnosis).
	HandlerFraction float64
	// WindowTargetExec is the cumulative target execution observed in
	// the window (to gate decisions on having enough signal).
	WindowTargetExec time.Duration

	// OFIAtCap reports whether the most recent progress pass read the
	// full OFI_max_events budget; OFIAtCapFraction is the share of
	// buffered sampler ticks at the budget since it last changed
	// (Figure 12).
	OFIAtCap         bool
	OFIAtCapFraction float64

	// Pool pressure.
	HandlerRunnable int64
	HandlerBlocked  int64

	// Library pressure.
	CompletionQueueLen int
	NetworkPending     int
	InFlight           int64

	HandlerStreams int
	OFIMaxEvents   int
}

// Condition decides whether a rule matches a snapshot.
type Condition func(Snapshot) bool

// And combines conditions conjunctively.
func And(cs ...Condition) Condition {
	return func(s Snapshot) bool {
		for _, c := range cs {
			if !c(s) {
				return false
			}
		}
		return true
	}
}

// Or combines conditions disjunctively.
func Or(cs ...Condition) Condition {
	return func(s Snapshot) bool {
		for _, c := range cs {
			if c(s) {
				return true
			}
		}
		return false
	}
}

// HandlerSaturated matches when the handler-wait share of target
// execution exceeds frac with meaningful signal in the window.
func HandlerSaturated(frac float64, minSignal time.Duration) Condition {
	return func(s Snapshot) bool {
		return s.WindowTargetExec >= minSignal && s.HandlerFraction > frac
	}
}

// ProgressStarved matches when the progress loop keeps draining its
// full event budget (the clogged-OFI-queue signal).
func ProgressStarved(atCapFrac float64) Condition {
	return func(s Snapshot) bool { return s.OFIAtCapFraction >= atCapFrac }
}

// QueueBacklog matches when network events await beyond n.
func QueueBacklog(n int) Condition {
	return func(s Snapshot) bool { return s.NetworkPending > n || s.CompletionQueueLen > n }
}

// Action is one remediation applied to the instance.
type Action interface {
	Apply(inst *margo.Instance) error
	String() string
}

// AddHandlerStreams grows the handler pool by N, up to Max total.
type AddHandlerStreams struct {
	N   int
	Max int
}

// Apply implements Action.
func (a AddHandlerStreams) Apply(inst *margo.Instance) error {
	if a.Max > 0 && inst.HandlerStreams() >= a.Max {
		return fmt.Errorf("policy: handler streams already at limit %d", a.Max)
	}
	n := a.N
	if a.Max > 0 && inst.HandlerStreams()+n > a.Max {
		n = a.Max - inst.HandlerStreams()
	}
	return inst.AddHandlerStreams(n)
}

func (a AddHandlerStreams) String() string {
	return fmt.Sprintf("add %d handler streams (max %d)", a.N, a.Max)
}

// RaiseOFIMaxEvents multiplies the progress read budget, up to Max.
type RaiseOFIMaxEvents struct {
	Factor int
	Max    int
}

// Apply implements Action.
func (a RaiseOFIMaxEvents) Apply(inst *margo.Instance) error {
	cur := inst.OFIMaxEvents()
	f := a.Factor
	if f < 2 {
		f = 2
	}
	next := cur * f
	if a.Max > 0 && next > a.Max {
		next = a.Max
	}
	if next <= cur {
		return fmt.Errorf("policy: OFI_max_events already at limit %d", cur)
	}
	inst.SetOFIMaxEvents(next)
	return nil
}

func (a RaiseOFIMaxEvents) String() string {
	return fmt.Sprintf("raise OFI_max_events x%d (max %d)", a.Factor, a.Max)
}

// Rule binds a named condition to a remediation with a cooldown.
type Rule struct {
	Name     string
	When     Condition
	Do       Action
	Cooldown time.Duration

	lastFired time.Time
}

// Decision records one engine action for the audit log.
type Decision struct {
	At       time.Time
	Rule     string
	Action   string
	Err      error
	Snapshot Snapshot
}

// Engine monitors one instance and applies rules.
type Engine struct {
	inst     *margo.Instance
	feed     func() (Snapshot, bool)
	interval time.Duration

	mu        sync.Mutex
	rules     []*Rule
	decisions []Decision

	stop chan struct{}
	done chan struct{}
}

// NewEngine creates an engine fed by inst's telemetry sampler (see
// TelemetryFeed), ticking at the sampler's interval: ticking faster
// would only find no fresh sample. It fails when inst was built without
// Options.Telemetry: the engine would have no monitoring input.
func NewEngine(inst *margo.Instance) (*Engine, error) {
	s := inst.Sampler()
	if s == nil {
		return nil, errors.New("policy: instance has no telemetry sampler")
	}
	return &Engine{inst: inst, feed: TelemetryFeed(s), interval: s.Interval()}, nil
}

// AddRule installs a rule.
func (e *Engine) AddRule(name string, when Condition, do Action, cooldown time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, &Rule{Name: name, When: when, Do: do, Cooldown: cooldown})
}

// Decisions returns the audit log of applied (or failed) remediations.
func (e *Engine) Decisions() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Decision, len(e.decisions))
	copy(out, e.decisions)
	return out
}

// Tick evaluates all rules against the sampler's newest tick, applying
// at most one action per rule whose cooldown has passed. It returns the
// decisions made this tick; without a fresh sampler tick it makes none.
func (e *Engine) Tick() []Decision {
	e.mu.Lock()
	rules := e.rules
	e.mu.Unlock()
	snap, ok := e.feed()
	if !ok {
		return nil // no fresh telemetry yet; don't act on stale data
	}
	var made []Decision
	for _, r := range rules {
		if r.Cooldown > 0 && !r.lastFired.IsZero() && time.Since(r.lastFired) < r.Cooldown {
			continue
		}
		if !r.When(snap) {
			continue
		}
		err := r.Do.Apply(e.inst)
		r.lastFired = time.Now()
		d := Decision{At: r.lastFired, Rule: r.Name, Action: r.Do.String(), Err: err, Snapshot: snap}
		made = append(made, d)
		e.mu.Lock()
		e.decisions = append(e.decisions, d)
		e.mu.Unlock()
	}
	return made
}

// Start runs the engine loop until Stop. The loop runs out-of-band (a
// plain goroutine): monitoring must not occupy the instance's streams.
func (e *Engine) Start() {
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the engine loop.
func (e *Engine) Stop() {
	if e.stop == nil {
		return
	}
	close(e.stop)
	<-e.done
	e.stop = nil
}

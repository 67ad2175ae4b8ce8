package policy

import (
	"testing"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/core"
	"symbiosys/internal/margo"
	"symbiosys/internal/mercury"
	"symbiosys/internal/na"
	"symbiosys/internal/telemetry"
)

type env struct {
	srv, cli *margo.Instance
}

// newTelemetryEnv builds a server with a telemetry sampler ticking every
// interval (time.Hour: the test drives SampleOnce explicitly) and a
// client without one. It returns once the sampler's initial tick has
// been taken, so tick counts in the tests are deterministic.
func newTelemetryEnv(t *testing.T, streams int, interval time.Duration) *env {
	t.Helper()
	f := na.NewFabric(na.DefaultConfig())
	srv, err := margo.New(margo.Options{
		Mode: margo.ModeServer, Node: "n1", Name: "srv", Fabric: f,
		HandlerStreams: streams, Stage: core.StageFull,
		Telemetry: &telemetry.Options{Interval: interval},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := margo.New(margo.Options{
		Mode: margo.ModeClient, Node: "n0", Name: "cli", Fabric: f, Stage: core.StageFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Shutdown(); srv.Shutdown() })
	srv.Register("work_rpc", func(ctx *margo.Context) {
		ctx.Compute(2 * time.Millisecond)
		ctx.Respond(mercury.Void{})
	})
	cli.RegisterClient("work_rpc")
	if srv.Sampler() == nil {
		t.Fatal("no sampler attached despite Options.Telemetry")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Sampler().Ticks() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("sampler took no initial tick")
		}
		time.Sleep(time.Millisecond)
	}
	return &env{srv: srv, cli: cli}
}

// newEngine builds an engine over the server's sampler.
func (e *env) newEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := NewEngine(e.srv)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// burst issues n concurrent RPCs and waits for them.
func (e *env) burst(t *testing.T, n int) {
	t.Helper()
	ults := make([]*abt.ULT, n)
	for i := range ults {
		ults[i] = e.cli.Run("w", func(self *abt.ULT) {
			e.cli.Forward(self, e.srv.Addr(), "work_rpc", &mercury.Void{}, nil)
		})
	}
	for _, u := range ults {
		u.Join(nil)
	}
	time.Sleep(20 * time.Millisecond) // let t13 callbacks land
}

func TestHandlerSaturationRuleFiresAndRemediates(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	s := e.srv.Sampler()
	eng := e.newEngine(t)
	eng.AddRule("grow-handlers",
		HandlerSaturated(0.3, time.Millisecond),
		AddHandlerStreams{N: 8, Max: 16},
		0)
	// An independent feed over the same sampler measures the windows
	// without ticking the engine.
	probe := TelemetryFeed(s)

	// Saturate: 16 concurrent 2ms requests on one stream.
	e.burst(t, 16)
	s.SampleOnce()
	decisions := eng.Tick()
	if len(decisions) != 1 {
		t.Fatalf("decisions = %+v", decisions)
	}
	d := decisions[0]
	if d.Rule != "grow-handlers" || d.Err != nil {
		t.Fatalf("decision = %+v", d)
	}
	if d.Snapshot.HandlerFraction <= 0.3 {
		t.Fatalf("snapshot fraction = %f", d.Snapshot.HandlerFraction)
	}
	if e.srv.HandlerStreams() != 9 {
		t.Fatalf("handler streams = %d, want 9", e.srv.HandlerStreams())
	}
	if _, ok := probe(); !ok {
		t.Fatal("probe stale")
	}

	// After remediation the same burst must show far less handler wait.
	e.burst(t, 16)
	s.SampleOnce()
	snap, ok := probe()
	if !ok {
		t.Fatal("probe stale after remediation")
	}
	if snap.HandlerFraction >= d.Snapshot.HandlerFraction/2 {
		t.Fatalf("post-remediation fraction %f not well below %f",
			snap.HandlerFraction, d.Snapshot.HandlerFraction)
	}
	if len(eng.Decisions()) != 1 {
		t.Fatalf("audit log = %+v", eng.Decisions())
	}
}

func TestRuleCooldownPreventsRefiring(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	s := e.srv.Sampler()
	eng := e.newEngine(t)
	eng.AddRule("grow", HandlerSaturated(0.1, time.Microsecond),
		AddHandlerStreams{N: 1, Max: 64}, time.Hour)
	e.burst(t, 8)
	s.SampleOnce()
	if n := len(eng.Tick()); n != 1 {
		t.Fatalf("first tick decisions = %d", n)
	}
	e.burst(t, 8)
	s.SampleOnce()
	if n := len(eng.Tick()); n != 0 {
		t.Fatalf("cooldown violated: %d decisions", n)
	}
}

func TestAddHandlerStreamsRespectsMax(t *testing.T) {
	e := newTelemetryEnv(t, 4, time.Hour)
	a := AddHandlerStreams{N: 8, Max: 6}
	if err := a.Apply(e.srv); err != nil {
		t.Fatal(err)
	}
	if e.srv.HandlerStreams() != 6 {
		t.Fatalf("streams = %d, want clamped 6", e.srv.HandlerStreams())
	}
	if err := a.Apply(e.srv); err == nil {
		t.Fatal("apply beyond max accepted")
	}
}

func TestRaiseOFIMaxEvents(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	a := RaiseOFIMaxEvents{Factor: 4, Max: 64}
	if err := a.Apply(e.cli); err != nil {
		t.Fatal(err)
	}
	if e.cli.OFIMaxEvents() != 64 {
		t.Fatalf("OFI_max_events = %d, want 64", e.cli.OFIMaxEvents())
	}
	if err := a.Apply(e.cli); err == nil {
		t.Fatal("apply at limit accepted")
	}
}

func TestConditionCombinators(t *testing.T) {
	yes := func(Snapshot) bool { return true }
	no := func(Snapshot) bool { return false }
	if !And(yes, yes)(Snapshot{}) || And(yes, no)(Snapshot{}) {
		t.Fatal("And wrong")
	}
	if !Or(no, yes)(Snapshot{}) || Or(no, no)(Snapshot{}) {
		t.Fatal("Or wrong")
	}
	if !QueueBacklog(5)(Snapshot{NetworkPending: 6}) ||
		QueueBacklog(5)(Snapshot{NetworkPending: 2}) {
		t.Fatal("QueueBacklog wrong")
	}
	if !ProgressStarved(0.5)(Snapshot{OFIAtCapFraction: 0.9}) {
		t.Fatal("ProgressStarved wrong")
	}
}

func TestEngineStartStop(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Millisecond)
	eng := e.newEngine(t)
	if eng.interval != time.Millisecond {
		t.Fatalf("engine interval = %v, want the sampler's 1ms", eng.interval)
	}
	eng.AddRule("grow", HandlerSaturated(0.2, time.Microsecond),
		AddHandlerStreams{N: 2, Max: 8}, 5*time.Millisecond)
	eng.Start()
	e.burst(t, 12)
	time.Sleep(30 * time.Millisecond)
	eng.Stop()
	eng.Stop() // idempotent
	if len(eng.Decisions()) == 0 {
		t.Fatal("engine loop made no decisions under saturation")
	}
	if e.srv.HandlerStreams() <= 1 {
		t.Fatal("no streams added")
	}
}

func TestAddHandlerStreamsOnClientRejected(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	if err := e.cli.AddHandlerStreams(2); err == nil {
		t.Fatal("AddHandlerStreams on client accepted")
	}
	if err := e.srv.AddHandlerStreams(0); err == nil {
		t.Fatal("AddHandlerStreams(0) accepted")
	}
}

func TestNewEngineRequiresTelemetry(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	if eng, err := NewEngine(e.cli); err == nil || eng != nil {
		t.Fatalf("NewEngine on an instance without a sampler = %v, %v", eng, err)
	}
}

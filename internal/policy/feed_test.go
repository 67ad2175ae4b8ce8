package policy

import (
	"testing"
	"time"

	"symbiosys/internal/mercury"
	"symbiosys/internal/telemetry"
)

// scriptedSource replays (events read, OFI budget) pairs, one per tick.
type scriptedSource struct {
	ticks [][2]uint64
	next  int
}

func (f *scriptedSource) Addr() string { return "scripted" }

func (f *scriptedSource) TelemetrySample() telemetry.Sample {
	tk := f.ticks[f.next]
	f.next++
	return telemetry.Sample{
		UnixNanos:    int64(f.next),
		PVars:        []telemetry.PVarValue{{Name: mercury.PVarNumOFIEventsRead, Value: tk[0]}},
		OFIMaxEvents: int(tk[1]),
	}
}

func (f *scriptedSource) CallpathStats() []telemetry.CallpathStat { return nil }

func TestTelemetryFeedFreshness(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	s := e.srv.Sampler()
	if s == nil {
		t.Fatal("no sampler attached despite Options.Telemetry")
	}
	feed := TelemetryFeed(s)

	// Wait for the sampler goroutine's initial sample so tick counts
	// below are deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for s.Ticks() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// One tick is not enough for deltas.
	if _, ok := feed(); ok {
		t.Fatal("feed reported fresh with fewer than two ticks")
	}
	s.SampleOnce()
	if _, ok := feed(); !ok {
		t.Fatal("feed stale after two ticks")
	}
	// Same tick again: no new sample, so the feed must decline.
	if _, ok := feed(); ok {
		t.Fatal("feed re-served an already-evaluated tick")
	}
	s.SampleOnce()
	if _, ok := feed(); !ok {
		t.Fatal("feed stale after a new tick")
	}
}

func TestEngineLiveFeedRemediates(t *testing.T) {
	e := newTelemetryEnv(t, 1, time.Hour)
	s := e.srv.Sampler()
	eng := e.newEngine(t)
	eng.AddRule("grow-handlers",
		HandlerSaturated(0.3, time.Millisecond),
		AddHandlerStreams{N: 8, Max: 16},
		0)

	// Without a fresh telemetry tick the engine must not act.
	if d := eng.Tick(); len(d) != 0 {
		t.Fatalf("decisions without telemetry = %+v", d)
	}

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
	if d.Snapshot.Entity != e.srv.Addr() {
		t.Fatalf("snapshot entity = %q", d.Snapshot.Entity)
	}
	if e.srv.HandlerStreams() != 9 {
		t.Fatalf("handler streams = %d, want 9", e.srv.HandlerStreams())
	}
	// The next sampler tick must see the remediation in the gauge.
	sm := s.SampleOnce()
	if sm.HandlerStreams != 9 {
		t.Fatalf("telemetry handler_streams = %d, want 9", sm.HandlerStreams)
	}
}

func TestTelemetryFeedPoolAndKnobFields(t *testing.T) {
	e := newTelemetryEnv(t, 2, time.Hour)
	s := e.srv.Sampler()
	e.burst(t, 4)
	s.SampleOnce()
	s.SampleOnce()
	feed := TelemetryFeed(s)
	snap, ok := feed()
	if !ok {
		t.Fatal("feed stale")
	}
	if snap.HandlerStreams != 2 {
		t.Fatalf("HandlerStreams = %d, want 2", snap.HandlerStreams)
	}
	if snap.OFIMaxEvents != e.srv.OFIMaxEvents() {
		t.Fatalf("OFIMaxEvents = %d, want %d", snap.OFIMaxEvents, e.srv.OFIMaxEvents())
	}
	if snap.WindowTargetExec <= 0 {
		t.Fatal("WindowTargetExec empty despite burst")
	}
}

// TestTelemetryFeedOFIWindowRestartsOnRaise: the at-cap fraction only
// counts ticks read under the current budget, so a raise is not judged
// by reads taken under the old one.
func TestTelemetryFeedOFIWindowRestartsOnRaise(t *testing.T) {
	src := &scriptedSource{ticks: [][2]uint64{{4, 4}, {4, 4}, {1, 4}, {4, 4}, {4, 16}, {16, 16}}}
	s := telemetry.NewSampler(src, telemetry.Options{})
	feed := TelemetryFeed(s)
	for i := 0; i < 4; i++ {
		s.SampleOnce()
	}
	snap, ok := feed()
	if !ok {
		t.Fatal("feed stale")
	}
	if snap.OFIAtCapFraction != 0.75 || !snap.OFIAtCap {
		t.Fatalf("before raise: fraction %v at-cap %v, want 0.75 true", snap.OFIAtCapFraction, snap.OFIAtCap)
	}
	s.SampleOnce()
	if snap, _ = feed(); snap.OFIAtCapFraction != 0 || snap.OFIAtCap {
		t.Fatalf("after raise: fraction %v at-cap %v, want 0 false", snap.OFIAtCapFraction, snap.OFIAtCap)
	}
	s.SampleOnce()
	if snap, _ = feed(); snap.OFIAtCapFraction != 0.5 || !snap.OFIAtCap {
		t.Fatalf("under new budget: fraction %v at-cap %v, want 0.5 true", snap.OFIAtCapFraction, snap.OFIAtCap)
	}
}

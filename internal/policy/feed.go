package policy

import (
	"time"

	"symbiosys/internal/mercury"
	"symbiosys/internal/telemetry"
)

// TelemetryFeed adapts a live telemetry sampler into the engine's
// snapshot source: the windowed fractions are derived from the
// sampler's series, so monitoring cost is paid once per telemetry tick
// no matter how many consumers watch. The returned function reports
// ok=false until the sampler has produced a new tick since the last
// evaluation (and at least two ticks overall, so deltas exist).
func TelemetryFeed(s *telemetry.Sampler) func() (Snapshot, bool) {
	var lastSeen uint64
	var prevHandler, prevExec float64
	return func() (Snapshot, bool) {
		ticks := s.Ticks()
		if ticks < 2 || ticks == lastSeen {
			return Snapshot{}, false
		}
		lastSeen = ticks
		last, _ := s.Last()

		snap := Snapshot{
			At:             time.Unix(0, last.UnixNanos),
			Entity:         s.Source().Addr(),
			HandlerStreams: last.HandlerStreams,
			OFIMaxEvents:   last.OFIMaxEvents,
			InFlight:       last.RPCsInFlight,
			NetworkPending: last.CQDepth,
		}
		snap.CompletionQueueLen = int(pvarValue(last, mercury.PVarCompletionQueueSize))

		for _, p := range last.Pools {
			if p.Name == "handlers" {
				snap.HandlerRunnable = p.Runnable
				snap.HandlerBlocked = p.Blocked
				break
			}
		}

		// Windowed handler fraction from cumulative-counter deltas since
		// the previous evaluation (Figure 9's diagnosis).
		handler, exec := float64(last.TargetHandlerNanos), float64(last.TargetTotalNanos)
		dh, de := handler-prevHandler, exec-prevExec
		prevHandler, prevExec = handler, exec
		snap.WindowTargetExec = time.Duration(de)
		if de > 0 {
			snap.HandlerFraction = dh / de
		}

		// OFI budget pressure: pointwise over the buffered ticks since
		// the budget last changed, comparing the events-read PVAR against
		// the budget. Ticks read under an earlier budget are no evidence
		// against the current one, so a raise restarts the window.
		_, reads, okR := s.SeriesSnapshot("pvar/" + mercury.PVarNumOFIEventsRead)
		_, caps, okC := s.SeriesSnapshot("ofi_max_events")
		if okR && okC && len(reads) > 0 && len(caps) > 0 {
			budget := caps[len(caps)-1].Value
			n, atCap := 0, 0
			for n < len(reads) && n < len(caps) && caps[len(caps)-1-n].Value == budget {
				if reads[len(reads)-1-n].Value >= budget {
					atCap++
				}
				n++
			}
			snap.OFIAtCapFraction = float64(atCap) / float64(n)
			snap.OFIAtCap = reads[len(reads)-1].Value >= budget
		}
		return snap, true
	}
}

// pvarValue extracts one PVAR from a sample by name (zero if absent).
func pvarValue(s telemetry.Sample, name string) uint64 {
	for _, pv := range s.PVars {
		if pv.Name == name {
			return pv.Value
		}
	}
	return 0
}

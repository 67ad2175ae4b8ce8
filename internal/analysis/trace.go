package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"symbiosys/internal/core"
)

// TraceSet is the merged view over all per-process trace dumps.
type TraceSet struct {
	Events  []core.Event
	Dropped uint64
	// DroppedBy attributes dropped events to the process that dropped
	// them, so truncated traces are flagged per entity.
	DroppedBy map[string]uint64
}

// MergeTraces combines trace dumps from every process.
func MergeTraces(dumps []*core.TraceDump) *TraceSet {
	ts := &TraceSet{DroppedBy: make(map[string]uint64)}
	n := 0
	for _, d := range dumps {
		n += len(d.Events)
	}
	if n > 0 {
		ts.Events = make([]core.Event, 0, n)
	}
	for _, d := range dumps {
		ts.Events = append(ts.Events, d.Events...)
		ts.Dropped += d.Dropped
		if d.Dropped > 0 {
			ts.DroppedBy[d.Entity] += d.Dropped
		}
	}
	return ts
}

// requestKey places one event in the grouped-request order.
type requestKey struct {
	req, order uint64
	pos        int32
}

// groupRequests returns the positions of ts.Events ordered by request
// ID, then Lamport order, then position, plus the number of distinct
// request IDs. Only these small keys are sorted; the events stay put.
func (ts *TraceSet) groupRequests() ([]int32, int) {
	keys := make([]requestKey, len(ts.Events))
	for i := range ts.Events {
		e := &ts.Events[i]
		keys[i] = requestKey{req: e.RequestID, order: e.Order, pos: int32(i)}
	}
	slices.SortFunc(keys, func(a, b requestKey) int {
		switch {
		case a.req != b.req:
			return cmp.Compare(a.req, b.req)
		case a.order != b.order:
			return cmp.Compare(a.order, b.order)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	pos := make([]int32, len(keys))
	n := 0
	for i, k := range keys {
		pos[i] = k.pos
		if i == 0 || k.req != keys[i-1].req {
			n++
		}
	}
	return pos, n
}

// walkRequests calls fn for each request group of pos (groupRequests
// output), rebuilding its spans into one reused buffer.
func (ts *TraceSet) walkRequests(pos []int32, fn func(id uint64, events []int32, spans []Span)) {
	var sb spanBuilder
	for lo := 0; lo < len(pos); {
		id := ts.Events[pos[lo]].RequestID
		hi := lo + 1
		for hi < len(pos) && ts.Events[pos[hi]].RequestID == id {
			hi++
		}
		evs := pos[lo:hi:hi]
		fn(id, evs, sb.build(id, ts.Events, evs))
		lo = hi
	}
}

// ForEachRequest walks the trace set grouped by request: fn runs once
// per request ID, in ascending order, with the positions in ts.Events
// of the request's events in Lamport order (the clock-skew-tolerant
// ordering of the paper §IV-A2; ties keep their ts.Events order) and
// the spans SpansOf reconstructs from them. No event is copied, and
// both slices are scratch reused across calls: fn must copy what it
// keeps.
func (ts *TraceSet) ForEachRequest(fn func(id uint64, events []int32, spans []Span)) {
	pos, _ := ts.groupRequests()
	ts.walkRequests(pos, fn)
}

// RequestIDs returns all request IDs, sorted.
func (ts *TraceSet) RequestIDs() []uint64 {
	seen := make(map[uint64]bool)
	var ids []uint64
	for _, e := range ts.Events {
		if !seen[e.RequestID] {
			seen[e.RequestID] = true
			ids = append(ids, e.RequestID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Span is one reconstructed call interval within a distributed request.
type Span struct {
	RequestID  uint64
	Breadcrumb core.Breadcrumb
	RPCName    string
	Entity     string
	Kind       string // "CLIENT" (origin view) or "SERVER" (target view)
	StartNanos int64
	DurNanos   int64
	StartOrder uint64
	// Failed marks a span closed by an error terminal event (canceled
	// or failed origin attempt, error response / handler panic on the
	// target) — closed, but not a successful execution.
	Failed bool
	// QueueNanos is the handler-pool wait (t4→t5) carried on SERVER
	// spans; WindowNanos the coalescer window wait carried on batched
	// CLIENT spans. BatchID groups members of one vectored forward.
	QueueNanos  int64
	WindowNanos int64
	BatchID     uint64
	Sys         core.SysSample
	PVars       *core.PVarSample
}

// Spans reconstructs the call intervals of one request. Prefer
// ForEachRequest when iterating many requests.
func (ts *TraceSet) Spans(requestID uint64) []Span {
	var pos []int32
	for i := range ts.Events {
		if ts.Events[i].RequestID == requestID {
			pos = append(pos, int32(i))
		}
	}
	if len(pos) == 0 {
		return nil // a nil pos would select every event
	}
	slices.SortStableFunc(pos, func(a, b int32) int {
		return cmp.Compare(ts.Events[a].Order, ts.Events[b].Order)
	})
	var sb spanBuilder
	return sb.build(requestID, ts.Events, pos)
}

// SpansOf reconstructs the call intervals of one request from its
// Lamport-ordered events by pairing start and end events per (entity,
// breadcrumb, side): each end event closes the oldest unmatched start
// (calls from one ULT are sequential, so FIFO pairing is exact there
// and a close approximation for concurrent same-callpath calls).
func SpansOf(requestID uint64, evs []core.Event) []Span {
	var sb spanBuilder
	return sb.build(requestID, evs, nil)
}

// spanBuilder is SpansOf's reusable state: the span buffer and the
// queue of unmatched start events.
type spanBuilder struct {
	spans []Span
	// open holds the positions of unmatched start events, oldest
	// first. A request has few calls in flight at once, so a linear
	// scan of it beats a map keyed by (entity, breadcrumb, side).
	open []int32
}

// build reconstructs one request's spans from evs[i] for each i in pos
// (all of evs, in order, when pos is nil). The result aliases the
// builder's buffer and is overwritten by the next build.
func (sb *spanBuilder) build(requestID uint64, evs []core.Event, pos []int32) []Span {
	sb.spans, sb.open = sb.spans[:0], sb.open[:0]
	n := len(pos)
	if pos == nil {
		n = len(evs)
	}
	for k := 0; k < n; k++ {
		i := int32(k)
		if pos != nil {
			i = pos[k]
		}
		e := &evs[i]
		switch e.Kind {
		case core.EvOriginStart, core.EvTargetStart:
			sb.open = append(sb.open, i)
			continue
		case core.EvOriginEnd, core.EvTargetEnd:
		default:
			continue
		}
		startKind := core.EvTargetStart
		kind := "SERVER"
		if e.Kind == core.EvOriginEnd {
			startKind, kind = core.EvOriginStart, "CLIENT"
		}
		j := slices.IndexFunc(sb.open, func(o int32) bool {
			s := &evs[o]
			return s.Kind == startKind && s.Breadcrumb == e.Breadcrumb && s.Entity == e.Entity
		})
		if j < 0 {
			continue // unmatched end (dropped start)
		}
		start := &evs[sb.open[j]]
		sb.open = slices.Delete(sb.open, j, j+1)
		dur := e.Duration
		if dur == 0 {
			dur = e.Timestamp - start.Timestamp
		}
		sb.spans = append(sb.spans, Span{
			RequestID:  requestID,
			Breadcrumb: core.Breadcrumb(e.Breadcrumb),
			RPCName:    e.RPCName,
			Entity:     e.Entity,
			Kind:       kind,
			StartNanos: start.Timestamp,
			DurNanos:   dur,
			StartOrder: start.Order,
			Failed:     e.Failed,
			// Queue wait rides the start (t5) event, window wait
			// and batch identity the end (t14) event.
			QueueNanos:  start.QueueNanos,
			WindowNanos: e.WindowNanos,
			BatchID:     e.BatchID,
			Sys:         e.Sys,
			PVars:       e.PVars,
		})
	}
	slices.SortFunc(sb.spans, func(a, b Span) int { return cmp.Compare(a.StartOrder, b.StartOrder) })
	return sb.spans
}

// ZipkinSpan is the Zipkin v2 JSON span format the paper's adapter
// module emits for visualization (§V-A3).
type ZipkinSpan struct {
	TraceID       string            `json:"traceId"`
	ID            string            `json:"id"`
	ParentID      string            `json:"parentId,omitempty"`
	Name          string            `json:"name"`
	Kind          string            `json:"kind,omitempty"`
	Timestamp     int64             `json:"timestamp"` // microseconds
	Duration      int64             `json:"duration"`  // microseconds
	LocalEndpoint map[string]string `json:"localEndpoint"`
	Tags          map[string]string `json:"tags,omitempty"`
}

// Zipkin converts one request's spans to Zipkin v2 JSON objects. Client
// spans parent the server spans of the same hop; nested hops parent on
// the client span of their caller, so the service structure renders as
// the Figure 5 Gantt chart.
func (ts *TraceSet) Zipkin(requestID uint64) []ZipkinSpan {
	spans := ts.Spans(requestID)
	traceID := fmt.Sprintf("%016x", requestID)

	// Assign IDs and remember the client span per breadcrumb (for
	// parenting); with repeated same-breadcrumb calls the k-th server
	// span pairs with the k-th client span.
	ids := make([]string, len(spans))
	clientSeen := make(map[core.Breadcrumb][]int)
	for i, s := range spans {
		ids[i] = fmt.Sprintf("%016x", spanIDHash(requestID, uint64(s.Breadcrumb), uint64(i)))
		if s.Kind == "CLIENT" {
			clientSeen[s.Breadcrumb] = append(clientSeen[s.Breadcrumb], i)
		}
	}
	parentOf := func(i int) string {
		s := spans[i]
		if s.Kind == "SERVER" {
			// Parent on the matching client span of the same hop.
			if idxs := clientSeen[s.Breadcrumb]; len(idxs) > 0 {
				best := idxs[0]
				for _, j := range idxs {
					if spans[j].StartOrder <= s.StartOrder {
						best = j
					}
				}
				return ids[best]
			}
			return ""
		}
		// Client span: parent on its caller's client span (the parent
		// breadcrumb), picking the most recent one issued before it.
		parentBC := s.Breadcrumb.Parent()
		if parentBC == 0 {
			return ""
		}
		if idxs := clientSeen[parentBC]; len(idxs) > 0 {
			best := -1
			for _, j := range idxs {
				if spans[j].StartOrder <= s.StartOrder {
					best = j
				}
			}
			if best >= 0 {
				return ids[best]
			}
		}
		return ""
	}

	out := make([]ZipkinSpan, 0, len(spans))
	for i, s := range spans {
		z := ZipkinSpan{
			TraceID:       traceID,
			ID:            ids[i],
			ParentID:      parentOf(i),
			Name:          s.RPCName,
			Kind:          s.Kind,
			Timestamp:     s.StartNanos / 1000,
			Duration:      s.DurNanos / 1000,
			LocalEndpoint: map[string]string{"serviceName": s.Entity},
			Tags: map[string]string{
				"breadcrumb":   s.Breadcrumb.String(),
				"pool_blocked": fmt.Sprint(s.Sys.PoolBlocked),
			},
		}
		if s.PVars != nil {
			z.Tags["ofi_events_read"] = fmt.Sprint(s.PVars.OFIEventsRead)
		}
		out = append(out, z)
	}
	return out
}

// WriteZipkin writes one request's trace as a Zipkin v2 JSON array.
func (ts *TraceSet) WriteZipkin(w io.Writer, requestID uint64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts.Zipkin(requestID))
}

func spanIDHash(a, b, c uint64) uint64 {
	v := a*0x9e3779b97f4a7c15 ^ b*0xff51afd7ed558ccd ^ c*0xc4ceb9fe1a85ec53
	v ^= v >> 31
	if v == 0 {
		v = 1
	}
	return v
}

// BlockedSample is one point of the Figure 10 scatter: when a request
// began executing on a target and how many ULTs were blocked there.
type BlockedSample struct {
	TimestampNanos int64
	Blocked        int64
	Runnable       int64
	Entity         string
}

// BlockedULTSeries extracts the Figure 10 scatter for one RPC name from
// target-start events (the t5 sample of the Argobots pool).
func (ts *TraceSet) BlockedULTSeries(rpcName string) []BlockedSample {
	var out []BlockedSample
	for _, e := range ts.Events {
		if e.Kind == core.EvTargetStart && (rpcName == "" || e.RPCName == rpcName) {
			out = append(out, BlockedSample{
				TimestampNanos: e.Timestamp,
				Blocked:        e.Sys.PoolBlocked,
				Runnable:       e.Sys.PoolRunnable,
				Entity:         e.Entity,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimestampNanos < out[j].TimestampNanos })
	return out
}

// OFISample is one point of the Figure 12 series: the number of OFI
// completion events read by the progress loop, sampled at t14.
type OFISample struct {
	TimestampNanos int64
	EventsRead     uint64
	Entity         string
}

// OFIEventsReadSeries extracts the Figure 12 series from origin-end
// events (entity == "" selects all origins).
func (ts *TraceSet) OFIEventsReadSeries(entity string) []OFISample {
	var out []OFISample
	for _, e := range ts.Events {
		if e.Kind != core.EvOriginEnd || e.PVars == nil {
			continue
		}
		if entity != "" && e.Entity != entity {
			continue
		}
		out = append(out, OFISample{
			TimestampNanos: e.Timestamp,
			EventsRead:     e.PVars.OFIEventsRead,
			Entity:         e.Entity,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimestampNanos < out[j].TimestampNanos })
	return out
}

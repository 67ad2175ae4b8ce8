package analysis

// The critical-path extraction as it stood before the index-based
// pipeline: per-request event copies grouped in a map, map-indexed span
// pairing and path building, and fmt-built shapes. It is kept only as
// the oracle of the equivalence tests; the one deliberate difference is
// the deterministic tie-break in rootBreadcrumb.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"symbiosys/internal/core"
)

// refSortedKeys lists a callpath index's breadcrumbs in ascending order.
func refSortedKeys(m map[core.Breadcrumb][]int) []core.Breadcrumb {
	keys := make([]core.Breadcrumb, 0, len(m))
	for bc := range m {
		keys = append(keys, bc)
	}
	slices.Sort(keys)
	return keys
}

// refRequests groups events by request ID, each group sorted by Lamport
// order (the clock-skew-tolerant ordering of the paper §IV-A2).
func refRequests(ts *TraceSet) map[uint64][]core.Event {
	out := make(map[uint64][]core.Event)
	for _, e := range ts.Events {
		out[e.RequestID] = append(out[e.RequestID], e)
	}
	for id := range out {
		evs := out[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Order < evs[j].Order })
		out[id] = evs
	}
	return out
}

// refSpansOf reconstructs the call intervals of one request from its
// Lamport-ordered events by pairing start and end events per (entity,
// breadcrumb, side): each end event closes the oldest unmatched start
// (calls from one ULT are sequential, so FIFO pairing is exact there
// and a close approximation for concurrent same-callpath calls).
func refSpansOf(requestID uint64, evs []core.Event) []Span {
	type pairKey struct {
		entity string
		bc     core.Breadcrumb
		client bool
	}
	open := make(map[pairKey][]core.Event)
	var spans []Span
	for _, e := range evs {
		switch e.Kind {
		case core.EvOriginStart, core.EvTargetStart:
			k := pairKey{e.Entity, core.Breadcrumb(e.Breadcrumb), e.Kind == core.EvOriginStart}
			open[k] = append(open[k], e)
		case core.EvOriginEnd, core.EvTargetEnd:
			k := pairKey{e.Entity, core.Breadcrumb(e.Breadcrumb), e.Kind == core.EvOriginEnd}
			q := open[k]
			if len(q) == 0 {
				continue // unmatched end (dropped start)
			}
			start := q[0]
			open[k] = q[1:]
			kind := "SERVER"
			if e.Kind == core.EvOriginEnd {
				kind = "CLIENT"
			}
			dur := e.Duration
			if dur == 0 {
				dur = e.Timestamp - start.Timestamp
			}
			spans = append(spans, Span{
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
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartOrder < spans[j].StartOrder })
	return spans
}

// refExtractPaths computes the critical path of every request in the trace
// set.
func refExtractPaths(ts *TraceSet) ([]CriticalPath, PathStats) {
	reqs := refRequests(ts)
	ids := make([]uint64, 0, len(reqs))
	for id := range reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var stats PathStats
	stats.Requests = len(ids)
	paths := make([]CriticalPath, 0, len(ids))
	for _, id := range ids {
		p := refPathFromSpans(id, refSpansOf(id, reqs[id]))
		if p == nil {
			continue
		}
		stats.Extracted++
		if p.Incomplete {
			stats.Incomplete++
		}
		if p.Attempts > 1 {
			stats.Retried++
		}
		if p.Failed {
			stats.Failed++
		}
		paths = append(paths, *p)
	}
	return paths, stats
}

// refBuilder carries the indexes one extraction works over.
type refBuilder struct {
	spans []Span
	// clientByBC / serverByBC index span positions per callpath,
	// sorted by start time.
	clientByBC map[core.Breadcrumb][]int
	serverByBC map[core.Breadcrumb][]int
	serverUsed []bool

	path *CriticalPath
}

// refPathFromSpans computes the critical path from one request's
// reconstructed spans (SpansOf output). Returns nil when the request
// has no spans at all.
func refPathFromSpans(requestID uint64, spans []Span) *CriticalPath {
	if len(spans) == 0 {
		return nil
	}
	b := &refBuilder{
		spans:      spans,
		clientByBC: make(map[core.Breadcrumb][]int),
		serverByBC: make(map[core.Breadcrumb][]int),
		serverUsed: make([]bool, len(spans)),
		path:       &CriticalPath{RequestID: requestID},
	}
	for i, s := range spans {
		if s.Kind == "CLIENT" {
			b.clientByBC[s.Breadcrumb] = append(b.clientByBC[s.Breadcrumb], i)
		} else {
			b.serverByBC[s.Breadcrumb] = append(b.serverByBC[s.Breadcrumb], i)
		}
		if s.BatchID != 0 {
			b.path.Batched = true
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(i, j int) bool {
			return spans[idx[i]].StartNanos < spans[idx[j]].StartNanos
		})
	}
	for _, idx := range b.clientByBC {
		byStart(idx)
	}
	for _, idx := range b.serverByBC {
		byStart(idx)
	}

	rootBC, ok := b.rootBreadcrumb()
	if !ok {
		return nil
	}
	if attempts := b.clientByBC[rootBC]; len(attempts) > 0 {
		b.path.Attempts = b.expandHop(rootBC, attempts)
	} else {
		// Server-only view (the origin was unprofiled): expand the
		// earliest root server span's interior directly.
		si := b.serverByBC[rootBC][0]
		b.serverUsed[si] = true
		b.path.Incomplete = true
		b.expandServer(b.spans[si])
	}

	segs := b.path.Segments
	if len(segs) == 0 {
		return nil
	}
	first, last := segs[0], segs[len(segs)-1]
	b.path.TotalNanos = last.StartNanos + last.DurNanos - first.StartNanos
	b.path.Shape = refShapeOf(segs)
	return b.path
}

// rootBreadcrumb picks the path's root hop: the shallowest breadcrumb
// observed, earliest first on ties. Unlike the original map walk, ties
// on both go to the lowest breadcrumb, which makes the choice
// deterministic.
func (b *refBuilder) rootBreadcrumb() (core.Breadcrumb, bool) {
	best := core.Breadcrumb(0)
	bestDepth, bestStart := int(^uint(0)>>1), int64(0)
	found := false
	consider := func(bc core.Breadcrumb, start int64) {
		d := bc.Depth()
		if !found || d < bestDepth || (d == bestDepth && start < bestStart) {
			best, bestDepth, bestStart, found = bc, d, start, true
		}
	}
	for _, bc := range refSortedKeys(b.clientByBC) {
		consider(bc, b.spans[b.clientByBC[bc][0]].StartNanos)
	}
	if !found {
		for _, bc := range refSortedKeys(b.serverByBC) {
			consider(bc, b.spans[b.serverByBC[bc][0]].StartNanos)
		}
	}
	return best, found
}

// emit appends one segment, dropping empty intervals.
func (b *refBuilder) emit(seg PathSegment) {
	if seg.DurNanos <= 0 {
		return
	}
	b.path.Segments = append(b.path.Segments, seg)
}

// expandHop walks one hop's client attempts (retries share the
// breadcrumb; earlier attempts carry Failed terminal events) and emits
// the attempt chain with backoff gaps between attempts, returning the
// chain length (sequential attempts). Overlapping same-breadcrumb
// spans (concurrent siblings, e.g. batch fan-in under one request ID)
// are reduced to the dominant one — the span ending last bounds
// completion, so it alone is on the critical path and siblings do not
// count as retry attempts.
func (b *refBuilder) expandHop(bc core.Breadcrumb, attempts []int) int {
	chain := make([]int, 0, len(attempts))
	for _, i := range attempts {
		s := b.spans[i]
		if len(chain) == 0 {
			chain = append(chain, i)
			continue
		}
		last := b.spans[chain[len(chain)-1]]
		if s.StartNanos >= last.StartNanos+last.DurNanos {
			chain = append(chain, i) // sequential: a retry attempt
		} else if s.StartNanos+s.DurNanos > last.StartNanos+last.DurNanos {
			chain[len(chain)-1] = i // overlapping sibling: keep dominant
		}
	}
	var prevEnd int64
	for k, i := range chain {
		s := b.spans[i]
		if k > 0 {
			if gap := s.StartNanos - prevEnd; gap > 0 {
				b.emit(PathSegment{
					Kind: SegBackoff, RPC: s.RPCName, Entity: s.Entity,
					Depth: bc.Depth(), StartNanos: prevEnd, DurNanos: gap,
				})
			}
		}
		// A server execution starting after the next attempt began
		// belongs to that attempt, not this one — the bound keeps a
		// failed attempt (dropped request, no target view) from
		// stealing its retry's server span.
		var nextStart int64
		if k+1 < len(chain) {
			nextStart = b.spans[chain[k+1]].StartNanos
		}
		b.expandAttempt(s, nextStart)
		prevEnd = s.StartNanos + s.DurNanos
	}
	if len(chain) > 0 {
		if term := b.spans[chain[len(chain)-1]]; term.Failed {
			b.path.Failed = true
		}
	}
	return len(chain)
}

// expandAttempt decomposes one client attempt into batch-window wait,
// request transit, queue wait, the matched server span's interior, and
// response transit. An attempt with no target view degrades to one
// unmatched segment. nextStart, when nonzero, is when the following
// retry attempt began: server executions at or past it are off-limits.
func (b *refBuilder) expandAttempt(cs Span, nextStart int64) {
	depth := cs.Breadcrumb.Depth()
	cursor := cs.StartNanos
	csEnd := cs.StartNanos + cs.DurNanos

	if cs.WindowNanos > 0 {
		w := cs.WindowNanos
		if w > cs.DurNanos {
			w = cs.DurNanos
		}
		b.emit(PathSegment{
			Kind: SegBatchWindow, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: w, Failed: cs.Failed,
		})
		cursor += w
	}

	si := b.matchServer(cs, nextStart)
	if si < 0 {
		// No target view: the whole remainder is one unmatched segment
		// (a failed attempt that died in flight, or lost target events).
		b.emit(PathSegment{
			Kind: SegUnmatched, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: csEnd - cursor, Failed: cs.Failed,
		})
		if !cs.Failed {
			// A successful attempt should have a target view; its
			// absence means the span set is incomplete.
			b.path.Incomplete = true
		}
		return
	}
	b.serverUsed[si] = true
	ss := b.spans[si]
	ssEnd := ss.StartNanos + ss.DurNanos

	queue := ss.QueueNanos
	if max := ss.StartNanos - cursor; queue > max {
		queue = max
	}
	if queue < 0 {
		queue = 0
	}
	if net := ss.StartNanos - queue - cursor; net > 0 {
		b.emit(PathSegment{
			Kind: SegNetOut, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: net, Failed: cs.Failed,
		})
	}
	b.emit(PathSegment{
		Kind: SegQueue, RPC: cs.RPCName, Entity: ss.Entity,
		Depth: depth, StartNanos: ss.StartNanos - queue, DurNanos: queue, Failed: cs.Failed,
	})

	b.expandServer(ss)

	if net := csEnd - ssEnd; net > 0 {
		b.emit(PathSegment{
			Kind: SegNetBack, RPC: cs.RPCName, Entity: cs.Entity,
			Depth: depth, StartNanos: ssEnd, DurNanos: net, Failed: cs.Failed,
		})
	}
}

// expandServer decomposes a server span's interior: handler execution
// interleaved with nested hops issued by the handler. Calls from one
// handler ULT are sequential, so the interior decomposes linearly; the
// nested hops recurse through expandHop.
func (b *refBuilder) expandServer(ss Span) {
	depth := ss.Breadcrumb.Depth()
	start, end := ss.StartNanos, ss.StartNanos+ss.DurNanos

	// Child hops: client spans issued by this entity whose callpath
	// extends this hop's, starting inside this span's window.
	type childGroup struct {
		bc       core.Breadcrumb
		idx      []int
		from, to int64
	}
	var children []childGroup
	for bc, idx := range b.clientByBC {
		if bc.Parent() != ss.Breadcrumb || bc == ss.Breadcrumb {
			continue
		}
		var mine []int
		var from, to int64
		for _, i := range idx {
			s := b.spans[i]
			if s.Entity != ss.Entity || s.StartNanos < start || s.StartNanos > end {
				continue
			}
			if len(mine) == 0 || s.StartNanos < from {
				from = s.StartNanos
			}
			if e := s.StartNanos + s.DurNanos; e > to {
				to = e
			}
			mine = append(mine, i)
		}
		if len(mine) > 0 {
			children = append(children, childGroup{bc: bc, idx: mine, from: from, to: to})
		}
	}
	sort.Slice(children, func(i, j int) bool {
		if children[i].from != children[j].from {
			return children[i].from < children[j].from
		}
		return children[i].bc < children[j].bc
	})

	cursor := start
	for _, ch := range children {
		if ch.from > cursor {
			b.emit(PathSegment{
				Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
				Depth: depth, StartNanos: cursor, DurNanos: ch.from - cursor, Failed: ss.Failed,
			})
		}
		b.expandHop(ch.bc, ch.idx)
		if ch.to > cursor {
			cursor = ch.to
		}
	}
	if end > cursor {
		b.emit(PathSegment{
			Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
			Depth: depth, StartNanos: cursor, DurNanos: end - cursor, Failed: ss.Failed,
		})
	}
}

// matchServer finds the unused target view of one client attempt: the
// first unused server span of the same breadcrumb whose Lamport order
// follows the attempt's start (the t5 merge ticks past the t1 order, so
// a server execution can never precede the attempt that caused it).
// beforeNanos, when nonzero, excludes server spans starting at or after
// it — they belong to a later retry attempt. (The bound is a timestamp,
// not an order: a dropped response leaves the retry's t1 concurrent
// with the first execution's t5, so Lamport order alone cannot split
// attempts. It misattributes only when cross-process clock skew
// exceeds the retry backoff gap.)
func (b *refBuilder) matchServer(cs Span, beforeNanos int64) int {
	for _, i := range b.serverByBC[cs.Breadcrumb] {
		if b.serverUsed[i] {
			continue
		}
		s := b.spans[i]
		if s.StartOrder < cs.StartOrder {
			continue
		}
		if beforeNanos > 0 && s.StartNanos >= beforeNanos {
			continue
		}
		return i
	}
	return -1
}

// refShapeOf builds the fold key: one token per segment, encoding kind,
// hop RPC, and depth — entities are deliberately excluded so the same
// logical path through different shards/processes folds together.
func refShapeOf(segs []PathSegment) string {
	var sb strings.Builder
	for i, s := range segs {
		if i > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "%d:%s.%s", s.Depth, s.RPC, s.Kind)
	}
	return sb.String()
}

// refIncompleteRequests counts requests whose span set lacks any t5/t8
// target pair despite having origin events — requests that would
// otherwise be silently skipped by span-level analyses.
func refIncompleteRequests(ts *TraceSet) int {
	type seen struct{ origin, target bool }
	byReq := make(map[uint64]*seen)
	for _, e := range ts.Events {
		s := byReq[e.RequestID]
		if s == nil {
			s = &seen{}
			byReq[e.RequestID] = s
		}
		switch e.Kind {
		case core.EvOriginStart, core.EvOriginEnd:
			s.origin = true
		case core.EvTargetStart, core.EvTargetEnd:
			s.target = true
		}
	}
	n := 0
	for _, s := range byReq {
		if s.origin && !s.target {
			n++
		}
	}
	return n
}

package analysis

import (
	"cmp"
	"slices"
	"strconv"

	"symbiosys/internal/core"
)

// This file implements per-request critical-path extraction: walking a
// request's Lamport-ordered span tree across hops (origin → forward →
// handler → nested forwards → response, including retry attempts and
// batch fan-in) and emitting the longest dependency chain with
// per-segment attribution. It is the request-level answer to the
// paper's "which interval bounded this request" question that the flat
// callpath profile can only answer in aggregate.

// SegKind classifies one segment of a request's critical path — the
// segment taxonomy of DESIGN.md §10.
type SegKind int8

// Critical-path segment kinds.
const (
	// SegNetOut is the request transit: origin t1 → target t5, minus
	// the queue and batch-window shares (serialization + fabric + RDMA
	// + progress-loop delivery).
	SegNetOut SegKind = iota
	// SegQueue is the handler-pool wait (t4→t5): the request's ULT was
	// spawned but no execution stream picked it up — the paper's
	// saturation signal, per request.
	SegQueue
	// SegExec is target handler execution, exclusive of nested hops.
	SegExec
	// SegNetBack is the response transit: target t8 → origin t14
	// (response serialization + fabric + origin completion delivery).
	SegNetBack
	// SegBackoff is the idle gap between a failed attempt and its
	// retry — client-side backoff wait.
	SegBackoff
	// SegBatchWindow is the client coalescer window wait: the op sat
	// batched but unsent.
	SegBatchWindow
	// SegUnmatched covers a client span with no target view: the
	// request died in flight (dropped, shed before tracing, or the
	// target's events were lost).
	SegUnmatched

	// NumSegKinds sizes per-kind arrays.
	NumSegKinds
)

// String names the segment kind.
func (k SegKind) String() string {
	switch k {
	case SegNetOut:
		return "net_out"
	case SegQueue:
		return "queue"
	case SegExec:
		return "exec"
	case SegNetBack:
		return "net_back"
	case SegBackoff:
		return "backoff"
	case SegBatchWindow:
		return "batch_window"
	case SegUnmatched:
		return "unmatched"
	}
	return "?"
}

// PathSegment is one attributed interval of a critical path.
type PathSegment struct {
	Kind SegKind
	// RPC names the hop the segment belongs to; Entity the process the
	// time was observed on.
	RPC    string
	Entity string
	// Depth is the hop's breadcrumb depth (1 = root hop).
	Depth      int
	StartNanos int64
	DurNanos   int64
	// Failed marks segments belonging to a failed attempt.
	Failed bool
}

// CriticalPath is the longest dependency chain of one request.
type CriticalPath struct {
	RequestID  uint64
	TotalNanos int64
	Segments   []PathSegment
	// Shape is the fold key: the sequment sequence's (kind, rpc, depth)
	// signature, stable across runs of the same workload.
	Shape string
	// Attempts counts client attempts on the root hop (>1 = retried).
	Attempts int
	// Batched reports that at least one hop traveled in a coalesced
	// frame (a batch-window segment or a BatchID-stamped span).
	Batched bool
	// Failed marks a path whose terminal attempt ended in an error.
	Failed bool
	// Incomplete marks a path with a hop missing its target view (no
	// t5/t8 pair): attribution below that hop is a single unmatched
	// segment rather than a breakdown.
	Incomplete bool
}

// DominantSegment returns the index of the longest segment (-1 when
// empty) — "what bounded this request".
func (p *CriticalPath) DominantSegment() int {
	best, bestDur := -1, int64(-1)
	for i, s := range p.Segments {
		if s.DurNanos > bestDur {
			best, bestDur = i, s.DurNanos
		}
	}
	return best
}

// PathStats summarizes one extraction sweep.
type PathStats struct {
	// Requests is how many distinct request IDs the trace set held;
	// Extracted how many yielded a critical path.
	Requests  int
	Extracted int
	// Incomplete counts requests whose span set was missing a t5/t8
	// target pair somewhere on the path — surfaced instead of silently
	// skipped (their attribution degrades to an unmatched segment).
	Incomplete int
	// Retried and Failed count paths with >1 root attempt and paths
	// whose terminal attempt failed.
	Retried int
	Failed  int
}

// ExtractPaths computes the critical path of every request in the trace
// set, in ascending request-ID order. One sort of small keys groups the
// events by request; one span buffer, one path builder and one segment
// slab serve every request, and identical shapes share one string.
func ExtractPaths(ts *TraceSet) ([]CriticalPath, PathStats) {
	pos, n := ts.groupRequests()
	stats := PathStats{Requests: n}
	paths := make([]CriticalPath, 0, n)
	b := &pathBuilder{chunk: len(ts.Events) + 64, shapes: make(map[string]string)}
	ts.walkRequests(pos, func(id uint64, _ []int32, spans []Span) {
		if !b.build(id, spans) {
			return
		}
		p := &b.path
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
	})
	return paths, stats
}

// ExtractPath computes one request's critical path from its
// Lamport-ordered events.
func ExtractPath(requestID uint64, evs []core.Event) *CriticalPath {
	return PathFromSpans(requestID, SpansOf(requestID, evs))
}

// PathFromSpans computes the critical path from one request's
// reconstructed spans (SpansOf output). Returns nil when the request
// has no spans at all.
func PathFromSpans(requestID uint64, spans []Span) *CriticalPath {
	var b pathBuilder
	if !b.build(requestID, spans) {
		return nil
	}
	return &b.path
}

// pathBuilder is the reusable state of critical-path extraction. Spans
// are addressed by their position in spans; every scratch slice is
// either rebuilt per request or used as a stack by the recursive walk,
// so one builder serves any number of requests without per-request
// maps.
type pathBuilder struct {
	spans []Span
	// byBC holds span positions grouped per (side, breadcrumb), each
	// group ordered by start time (ties by position); groups indexes
	// those runs, the nClient client groups first, each side in
	// ascending breadcrumb order.
	byBC       []int32
	groups     []spanGroup
	nClient    int
	serverUsed []bool

	// Stacks of the recursive walk: a hop's attempt chain, a server
	// span's child hops, and the child hops' span positions.
	chain    []int32
	children []childHop
	childPos []int32

	path CriticalPath
	// segs is the segment slab: every path's Segments is a contiguous
	// run of it, the in-progress path's starting at segStart. A full
	// slab is replaced by a new chunk of at least chunk segments.
	segs     []PathSegment
	segStart int
	chunk    int

	shape []byte
	// shapes interns fold keys so identical shapes share one string;
	// nil builds a fresh string per path.
	shapes map[string]string
}

// spanGroup is one (side, breadcrumb) run of byBC.
type spanGroup struct {
	bc     core.Breadcrumb
	lo, hi int32
}

// childHop is one nested hop of a server span: its breadcrumb, the
// run of childPos holding its client spans, and the interval they
// cover.
type childHop struct {
	bc       core.Breadcrumb
	lo, hi   int32
	from, to int64
}

// build computes the critical path of one request's spans into b.path,
// reporting false when there is none.
func (b *pathBuilder) build(requestID uint64, spans []Span) bool {
	if len(spans) == 0 {
		return false
	}
	b.spans = spans
	b.path = CriticalPath{RequestID: requestID}
	b.segStart = len(b.segs)
	b.index()

	root, ok := b.rootGroup()
	if !ok {
		return false
	}
	if root < b.nClient {
		g := b.groups[root]
		b.path.Attempts = b.expandHop(g.bc, b.byBC[g.lo:g.hi])
	} else {
		// Server-only view (the origin was unprofiled): expand the
		// earliest root server span's interior directly.
		si := b.byBC[b.groups[root].lo]
		b.serverUsed[si] = true
		b.path.Incomplete = true
		b.expandServer(si)
	}

	segs := b.segs[b.segStart:len(b.segs):len(b.segs)]
	if len(segs) == 0 {
		return false
	}
	first, last := segs[0], segs[len(segs)-1]
	b.path.TotalNanos = last.StartNanos + last.DurNanos - first.StartNanos
	b.path.Segments = segs
	b.path.Shape = b.shapeOf(segs)
	return true
}

// index groups the span positions per (side, breadcrumb) by start time
// and resets the per-request flags.
func (b *pathBuilder) index() {
	n := len(b.spans)
	b.byBC = b.byBC[:0]
	for i := range b.spans {
		b.byBC = append(b.byBC, int32(i))
		if b.spans[i].BatchID != 0 {
			b.path.Batched = true
		}
	}
	slices.SortFunc(b.byBC, func(i, j int32) int {
		si, sj := &b.spans[i], &b.spans[j]
		if ci, cj := si.Kind == "CLIENT", sj.Kind == "CLIENT"; ci != cj {
			if ci {
				return -1
			}
			return 1
		}
		switch {
		case si.Breadcrumb != sj.Breadcrumb:
			return cmp.Compare(si.Breadcrumb, sj.Breadcrumb)
		case si.StartNanos != sj.StartNanos:
			return cmp.Compare(si.StartNanos, sj.StartNanos)
		}
		return cmp.Compare(i, j)
	})
	b.groups, b.nClient = b.groups[:0], 0
	for k := 0; k < n; {
		s := &b.spans[b.byBC[k]]
		end := k + 1
		for end < n {
			t := &b.spans[b.byBC[end]]
			if t.Breadcrumb != s.Breadcrumb || t.Kind != s.Kind {
				break
			}
			end++
		}
		b.groups = append(b.groups, spanGroup{bc: s.Breadcrumb, lo: int32(k), hi: int32(end)})
		if s.Kind == "CLIENT" {
			b.nClient++
		}
		k = end
	}
	b.serverUsed = slices.Grow(b.serverUsed[:0], n)[:n]
	clear(b.serverUsed)
}

// group returns the positions of the spans of one (side, breadcrumb),
// ordered by start time.
func (b *pathBuilder) group(client bool, bc core.Breadcrumb) []int32 {
	gs := b.groups[b.nClient:]
	if client {
		gs = b.groups[:b.nClient]
	}
	k, ok := slices.BinarySearchFunc(gs, bc, func(g spanGroup, bc core.Breadcrumb) int {
		return cmp.Compare(g.bc, bc)
	})
	if !ok {
		return nil
	}
	return b.byBC[gs[k].lo:gs[k].hi]
}

// rootGroup picks the path's root hop: the shallowest breadcrumb
// observed, earliest first, then lowest breadcrumb on ties. Client
// views are preferred; server groups count only when no client span
// exists. It returns the group's index in b.groups.
func (b *pathBuilder) rootGroup() (int, bool) {
	lo, hi := 0, b.nClient
	if b.nClient == 0 {
		hi = len(b.groups)
	}
	best, bestDepth, bestStart := -1, 0, int64(0)
	for g := lo; g < hi; g++ {
		d := b.groups[g].bc.Depth()
		start := b.spans[b.byBC[b.groups[g].lo]].StartNanos
		if best < 0 || d < bestDepth || (d == bestDepth && start < bestStart) {
			best, bestDepth, bestStart = g, d, start
		}
	}
	return best, best >= 0
}

// emit appends one segment to the slab, dropping empty intervals.
func (b *pathBuilder) emit(seg PathSegment) {
	if seg.DurNanos <= 0 {
		return
	}
	if len(b.segs) == cap(b.segs) {
		// Start a new chunk, carrying the in-progress path over so its
		// segments stay contiguous; earlier paths keep the old chunk.
		cur := b.segs[b.segStart:]
		next := make([]PathSegment, len(cur), max(b.chunk, 2*len(cur)+8))
		copy(next, cur)
		b.segs, b.segStart = next, 0
	}
	b.segs = append(b.segs, seg)
}

// expandHop walks one hop's client attempts (retries share the
// breadcrumb; earlier attempts carry Failed terminal events) and emits
// the attempt chain with backoff gaps between attempts, returning the
// chain length (sequential attempts). Overlapping same-breadcrumb
// spans (concurrent siblings, e.g. batch fan-in under one request ID)
// are reduced to the dominant one — the span ending last bounds
// completion, so it alone is on the critical path and siblings do not
// count as retry attempts.
func (b *pathBuilder) expandHop(bc core.Breadcrumb, attempts []int32) int {
	base := len(b.chain)
	for _, i := range attempts {
		s := &b.spans[i]
		if len(b.chain) == base {
			b.chain = append(b.chain, i)
			continue
		}
		last := &b.spans[b.chain[len(b.chain)-1]]
		if s.StartNanos >= last.StartNanos+last.DurNanos {
			b.chain = append(b.chain, i) // sequential: a retry attempt
		} else if s.StartNanos+s.DurNanos > last.StartNanos+last.DurNanos {
			b.chain[len(b.chain)-1] = i // overlapping sibling: keep dominant
		}
	}
	end := len(b.chain)
	var prevEnd int64
	for k := base; k < end; k++ {
		s := &b.spans[b.chain[k]]
		if k > base {
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
		if k+1 < end {
			nextStart = b.spans[b.chain[k+1]].StartNanos
		}
		b.expandAttempt(s, nextStart)
		prevEnd = s.StartNanos + s.DurNanos
	}
	if end > base && b.spans[b.chain[end-1]].Failed {
		b.path.Failed = true
	}
	b.chain = b.chain[:base]
	return end - base
}

// expandAttempt decomposes one client attempt into batch-window wait,
// request transit, queue wait, the matched server span's interior, and
// response transit. An attempt with no target view degrades to one
// unmatched segment. nextStart, when nonzero, is when the following
// retry attempt began: server executions at or past it are off-limits.
func (b *pathBuilder) expandAttempt(cs *Span, nextStart int64) {
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
	ss := &b.spans[si]
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

	b.expandServer(si)

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
func (b *pathBuilder) expandServer(si int32) {
	ss := &b.spans[si]
	depth := ss.Breadcrumb.Depth()
	start, end := ss.StartNanos, ss.StartNanos+ss.DurNanos

	// Child hops: client spans issued by this entity whose callpath
	// extends this hop's, starting inside this span's window.
	base, posBase := len(b.children), len(b.childPos)
	for _, g := range b.groups[:b.nClient] {
		if g.bc.Parent() != ss.Breadcrumb || g.bc == ss.Breadcrumb {
			continue
		}
		lo := len(b.childPos)
		var from, to int64
		for _, i := range b.byBC[g.lo:g.hi] {
			s := &b.spans[i]
			if s.Entity != ss.Entity || s.StartNanos < start || s.StartNanos > end {
				continue
			}
			if len(b.childPos) == lo || s.StartNanos < from {
				from = s.StartNanos
			}
			if e := s.StartNanos + s.DurNanos; e > to {
				to = e
			}
			b.childPos = append(b.childPos, i)
		}
		if hi := len(b.childPos); hi > lo {
			b.children = append(b.children, childHop{bc: g.bc, lo: int32(lo), hi: int32(hi), from: from, to: to})
		}
	}
	slices.SortFunc(b.children[base:], func(x, y childHop) int {
		if x.from != y.from {
			return cmp.Compare(x.from, y.from)
		}
		return cmp.Compare(x.bc, y.bc)
	})

	// The stacks may be reallocated by the recursion, so index them
	// afresh on every step.
	cursor := start
	for k, n := base, len(b.children); k < n; k++ {
		ch := b.children[k]
		if ch.from > cursor {
			b.emit(PathSegment{
				Kind: SegExec, RPC: ss.RPCName, Entity: ss.Entity,
				Depth: depth, StartNanos: cursor, DurNanos: ch.from - cursor, Failed: ss.Failed,
			})
		}
		b.expandHop(ch.bc, b.childPos[ch.lo:ch.hi])
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
	b.children, b.childPos = b.children[:base], b.childPos[:posBase]
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
func (b *pathBuilder) matchServer(cs *Span, beforeNanos int64) int32 {
	for _, i := range b.group(false, cs.Breadcrumb) {
		if b.serverUsed[i] {
			continue
		}
		s := &b.spans[i]
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

// shapeOf builds the fold key: one token per segment, encoding kind,
// hop RPC, and depth — entities are deliberately excluded so the same
// logical path through different shards/processes folds together.
func (b *pathBuilder) shapeOf(segs []PathSegment) string {
	buf := b.shape[:0]
	for i := range segs {
		s := &segs[i]
		if i > 0 {
			buf = append(buf, '|')
		}
		buf = strconv.AppendInt(buf, int64(s.Depth), 10)
		buf = append(buf, ':')
		buf = append(buf, s.RPC...)
		buf = append(buf, '.')
		buf = append(buf, s.Kind.String()...)
	}
	b.shape = buf
	if b.shapes == nil {
		return string(buf)
	}
	if shape, ok := b.shapes[string(buf)]; ok {
		return shape
	}
	shape := string(buf)
	b.shapes[shape] = shape
	return shape
}

// IncompleteRequests counts requests whose span set lacks any t5/t8
// target pair despite having origin events — requests that would
// otherwise be silently skipped by span-level analyses.
func (ts *TraceSet) IncompleteRequests() int {
	const origin, target = 1, 2
	seen := make(map[uint64]uint8)
	for i := range ts.Events {
		e := &ts.Events[i]
		switch e.Kind {
		case core.EvOriginStart, core.EvOriginEnd:
			seen[e.RequestID] |= origin
		case core.EvTargetStart, core.EvTargetEnd:
			seen[e.RequestID] |= target
		}
	}
	n := 0
	for _, s := range seen {
		if s == origin {
			n++
		}
	}
	return n
}

package analysis

import (
	"strings"
	"testing"
	"time"

	"symbiosys/internal/core"
)

// pathTraceBase is a fixed epoch so path tests are deterministic.
const pathTraceBase = int64(1_000_000_000)

// evseq builds Lamport orders implicitly: each event's Order is its
// position in the slice (the fabricated traces are sequential).
func evseq(evs []core.Event) []core.Event {
	for i := range evs {
		evs[i].Order = uint64(i + 1)
	}
	return evs
}

// twoHopEvents fabricates one clean two-hop request
// (cli -a_rpc-> mid -b_rpc-> leaf) with queue waits on both targets.
func twoHopEvents(reqID uint64, base int64) []core.Event {
	bcMid := core.Breadcrumb(0).Push("a_rpc")
	bcLeaf := bcMid.Push("b_rpc")
	return evseq([]core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid)},
		// net_out 60, queue 40 → t5 at +100.
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 100,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), QueueNanos: 40},
		// exec 100 before issuing the nested hop.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 200,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf)},
		// net_out 70, queue 30 → leaf t5 at +300.
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 300,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), QueueNanos: 30},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 400,
			Entity: "leaf", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "mid", RPCName: "b_rpc", Breadcrumb: uint64(bcLeaf), Duration: 300},
		// exec 100 after the nested hop returns.
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 600,
			Entity: "mid", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 500},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 700,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bcMid), Duration: 700},
	})
}

func kindsOf(p *CriticalPath) []SegKind {
	out := make([]SegKind, len(p.Segments))
	for i, s := range p.Segments {
		out[i] = s.Kind
	}
	return out
}

func eqKinds(got, want []SegKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestExtractPathTwoHop(t *testing.T) {
	const reqID = 0x42
	p := ExtractPath(reqID, twoHopEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegNetOut, SegQueue, // cli -> mid
		SegExec,             // mid pre-forward
		SegNetOut, SegQueue, // mid -> leaf
		SegExec,    // leaf handler
		SegNetBack, // leaf -> mid
		SegExec,    // mid post-forward
		SegNetBack, // mid -> cli
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v\npath: %+v", kindsOf(p), want, p.Segments)
	}
	if p.TotalNanos != 700 {
		t.Fatalf("total = %d", p.TotalNanos)
	}
	// The decomposition must cover the whole request: segments sum to
	// the root span duration.
	var sum int64
	for _, s := range p.Segments {
		sum += s.DurNanos
	}
	if sum != 700 {
		t.Fatalf("segment sum = %d, want 700 (%+v)", sum, p.Segments)
	}
	// Spot-check attribution: root net_out excludes the queue wait.
	if p.Segments[0].DurNanos != 60 || p.Segments[1].DurNanos != 40 {
		t.Fatalf("root net_out/queue = %d/%d, want 60/40",
			p.Segments[0].DurNanos, p.Segments[1].DurNanos)
	}
	if p.Attempts != 1 || p.Failed || p.Incomplete || p.Batched {
		t.Fatalf("flags = %+v", p)
	}
	// Depths: root segments at 1, nested hop at 2.
	if p.Segments[0].Depth != 1 || p.Segments[3].Depth != 2 || p.Segments[5].Depth != 2 {
		t.Fatalf("depths wrong: %+v", p.Segments)
	}
}

// retriedEvents fabricates a request whose first attempt is dropped in
// flight (no target view, Failed terminal) and whose retry succeeds
// after a backoff gap — the margo retry loop's trace signature.
func retriedEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		// Attempt 1: t1 at base, failed t14 at +200 (timeout), no
		// server events (request dropped by the fabric).
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 200,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200, Failed: true},
		// Backoff gap 100, then attempt 2 succeeds.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 300,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 400,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 20},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 500,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 600,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 300},
	})
}

func TestExtractPathRetried(t *testing.T) {
	const reqID = 0x77
	p := ExtractPath(reqID, retriedEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegUnmatched,                             // failed attempt 1 (dropped in flight)
		SegBackoff,                               // retry wait
		SegNetOut, SegQueue, SegExec, SegNetBack, // attempt 2
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v", kindsOf(p), want)
	}
	if p.Attempts != 2 {
		t.Fatalf("attempts = %d", p.Attempts)
	}
	if p.Failed {
		t.Fatal("terminal attempt succeeded; path must not be Failed")
	}
	// A failed attempt without a target view is expected, not an
	// incomplete span set.
	if p.Incomplete {
		t.Fatal("retried path wrongly marked incomplete")
	}
	if p.Segments[0].DurNanos != 200 || !p.Segments[0].Failed {
		t.Fatalf("unmatched segment = %+v", p.Segments[0])
	}
	if p.Segments[1].DurNanos != 100 {
		t.Fatalf("backoff = %d, want 100", p.Segments[1].DurNanos)
	}
	if p.TotalNanos != 600 {
		t.Fatalf("total = %d", p.TotalNanos)
	}
}

// retriedWithStolenServerEvents reproduces the dropped-response retry:
// the first attempt's request DID execute on the server (its response
// was lost), so two server spans exist; each attempt must pair with its
// own execution, not steal the other's.
func retriedWithStolenServerEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 50,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 150,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 200,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200, Failed: true},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 300,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 350,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 450,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 500,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 200},
	})
}

func TestExtractPathRetriedDroppedResponse(t *testing.T) {
	const reqID = 0x78
	p := ExtractPath(reqID, retriedWithStolenServerEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	want := []SegKind{
		SegNetOut, SegExec, SegNetBack, // attempt 1: executed, response lost
		SegBackoff,
		SegNetOut, SegExec, SegNetBack, // attempt 2
	}
	if !eqKinds(kindsOf(p), want) {
		t.Fatalf("segment kinds = %v, want %v", kindsOf(p), want)
	}
	// Attempt 1's exec must be the FIRST server execution (starting at
	// +50), not the retry's.
	if p.Segments[1].StartNanos != pathTraceBase+50 {
		t.Fatalf("attempt 1 exec starts at %d, want base+50", p.Segments[1].StartNanos)
	}
	if p.Segments[5].StartNanos != pathTraceBase+350 {
		t.Fatalf("attempt 2 exec starts at %d, want base+350", p.Segments[5].StartNanos)
	}
}

// batchedEvents fabricates two ops of one coalesced flush sharing a
// request ID: both origin-ends carry the BatchID and the window wait.
func batchedEvents(reqID uint64, base int64) []core.Event {
	bc := core.Breadcrumb(0).Push("a_rpc")
	return evseq([]core.Event{
		// Both ops enter the window; op 1 waits 80ns for the flush.
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvOriginStart, Timestamp: base + 30,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 120,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 10},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 220,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
		{RequestID: reqID, Kind: core.EvTargetStart, Timestamp: base + 230,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), QueueNanos: 5},
		{RequestID: reqID, Kind: core.EvTargetEnd, Timestamp: base + 300,
			Entity: "srv", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 70},
		// Vectored completions: both ops end when the frame returns.
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 350,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 350,
			BatchID: 9, WindowNanos: 80},
		{RequestID: reqID, Kind: core.EvOriginEnd, Timestamp: base + 360,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 330,
			BatchID: 9, WindowNanos: 50},
	})
}

func TestExtractPathBatched(t *testing.T) {
	const reqID = 0x99
	p := ExtractPath(reqID, batchedEvents(reqID, pathTraceBase))
	if p == nil {
		t.Fatal("no path")
	}
	if !p.Batched {
		t.Fatal("path not marked batched")
	}
	// Concurrent same-breadcrumb siblings reduce to the dominant span
	// (latest end bounds completion), so exactly one attempt remains.
	if p.Attempts != 1 {
		t.Fatalf("attempts = %d", p.Attempts)
	}
	if p.Segments[0].Kind != SegBatchWindow {
		t.Fatalf("first segment = %v, want batch_window (%+v)", p.Segments[0].Kind, p.Segments)
	}
	var hasQueue, hasExec bool
	for _, s := range p.Segments {
		hasQueue = hasQueue || s.Kind == SegQueue
		hasExec = hasExec || s.Kind == SegExec
	}
	if !hasQueue || !hasExec {
		t.Fatalf("batched path missing queue/exec decomposition: %v", kindsOf(p))
	}
}

func TestExtractPathsIncompleteCounting(t *testing.T) {
	// One clean request plus one with only origin events (its target's
	// dump was lost): the incomplete one must be counted, not dropped.
	bc := core.Breadcrumb(0).Push("a_rpc")
	orphan := evseq([]core.Event{
		{RequestID: 7, Kind: core.EvOriginStart, Timestamp: pathTraceBase,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc)},
		{RequestID: 7, Kind: core.EvOriginEnd, Timestamp: pathTraceBase + 100,
			Entity: "cli", RPCName: "a_rpc", Breadcrumb: uint64(bc), Duration: 100},
	})
	ts := MergeTraces([]*core.TraceDump{
		{Entity: "a", Events: twoHopEvents(1, pathTraceBase)},
		{Entity: "b", Events: orphan},
	})
	paths, stats := ExtractPaths(ts)
	if stats.Requests != 2 || stats.Extracted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1", stats.Incomplete)
	}
	if got := ts.IncompleteRequests(); got != 1 {
		t.Fatalf("IncompleteRequests() = %d, want 1", got)
	}
	// The orphan's path degrades to a single unmatched segment.
	var orphanPath *CriticalPath
	for i := range paths {
		if paths[i].RequestID == 7 {
			orphanPath = &paths[i]
		}
	}
	if orphanPath == nil || !orphanPath.Incomplete {
		t.Fatalf("orphan path = %+v", orphanPath)
	}
	if len(orphanPath.Segments) != 1 || orphanPath.Segments[0].Kind != SegUnmatched {
		t.Fatalf("orphan segments = %+v", orphanPath.Segments)
	}
}

func TestFoldPathsShapesAndPercentiles(t *testing.T) {
	var dumps []*core.TraceDump
	for i := 0; i < 8; i++ {
		dumps = append(dumps, &core.TraceDump{
			Entity: "d", Events: twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000),
		})
	}
	f := BuildFlame(MergeTraces(dumps))
	if len(f.Paths) != 1 {
		t.Fatalf("shapes = %d, want 1 (%v)", len(f.Paths), f.Paths)
	}
	fp := &f.Paths[0]
	if fp.Count != 8 {
		t.Fatalf("count = %d", fp.Count)
	}
	if len(fp.Segments) != 9 {
		t.Fatalf("segments = %d", len(fp.Segments))
	}
	// Identical requests: whole-path p50 and p99 estimate ~700ns (the
	// two-per-octave histogram is coarse; accept its bucket).
	p50, p99 := fp.Total.Percentile(50), fp.Total.Percentile(99)
	if p50 < 512 || p50 > 1024 || p99 < 512 || p99 > 1024 {
		t.Fatalf("p50/p99 = %v/%v, want within the 700ns bucket", p50, p99)
	}
	if fp.Shape == "" || !strings.Contains(fp.Shape, "a_rpc") {
		t.Fatalf("shape = %q", fp.Shape)
	}
	// The dominant segment of the fold must be one of the exec
	// segments (100ns each, the largest single positions are net/exec
	// ties — just assert it's valid).
	if d := fp.DominantSegment(); d < 0 || d >= len(fp.Segments) {
		t.Fatalf("dominant = %d", d)
	}
}

func TestDiffFlamesLocalizesRegression(t *testing.T) {
	mkRun := func(queueInflate int64, n int) *Flame {
		var dumps []*core.TraceDump
		for i := 0; i < n; i++ {
			evs := twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000)
			if queueInflate > 0 {
				// Inflate the mid-tier queue wait: the mid t5 and
				// everything after it shift later, exactly like a
				// saturated handler pool; only the root client span
				// (whose t1 stays put) covers the extra wait.
				for j := 1; j < len(evs); j++ {
					evs[j].Timestamp += queueInflate
				}
				for j := range evs {
					if evs[j].Kind == core.EvTargetStart && evs[j].Entity == "mid" {
						evs[j].QueueNanos += queueInflate
					}
					if evs[j].Kind == core.EvOriginEnd && evs[j].Entity == "cli" {
						evs[j].Duration += queueInflate
					}
				}
			}
			dumps = append(dumps, &core.TraceDump{Entity: "d", Events: evs})
		}
		return BuildFlame(MergeTraces(dumps))
	}
	before := mkRun(0, 8)
	after := mkRun(400, 8)
	d := DiffFlames(before, after)
	if len(d.Paths) != 1 {
		t.Fatalf("aligned shapes = %d (%v)", len(d.Paths), d.Paths)
	}
	pd := &d.Paths[0]
	if pd.New || pd.Gone {
		t.Fatalf("shape should align: %+v", pd)
	}
	if pd.DeltaNanos < 350 || pd.DeltaNanos > 450 {
		t.Fatalf("whole-path delta = %d, want ~400", pd.DeltaNanos)
	}
	dom := pd.DominantDelta()
	if dom < 0 {
		t.Fatal("no dominant delta")
	}
	seg := pd.Segments[dom]
	if seg.Kind != SegQueue {
		t.Fatalf("dominant delta segment = %v %s (Δ%d), want queue", seg.Kind, seg.RPC, seg.DeltaNanos)
	}
	if !seg.Significant {
		t.Fatalf("queue regression not flagged significant: %+v", seg)
	}
}

func TestDiffFlamesStructuralShapes(t *testing.T) {
	// A retry chain only exists in the "after" run: its shape must
	// surface as NEW, ranked before same-shape drift.
	cleanA := MergeTraces([]*core.TraceDump{{Entity: "d", Events: twoHopEvents(1, pathTraceBase)}})
	faulted := MergeTraces([]*core.TraceDump{
		{Entity: "d", Events: twoHopEvents(1, pathTraceBase)},
		{Entity: "d", Events: retriedEvents(2, pathTraceBase)},
	})
	d := DiffFlames(BuildFlame(cleanA), BuildFlame(faulted))
	if len(d.Paths) != 2 {
		t.Fatalf("shapes = %d", len(d.Paths))
	}
	if !d.Paths[0].New {
		t.Fatalf("structural shape not ranked first: %+v", d.Paths[0])
	}
	if !strings.Contains(d.Paths[0].Shape, "backoff") {
		t.Fatalf("new shape = %q, want a retry (backoff) shape", d.Paths[0].Shape)
	}
}

func TestPathFromSpansEmpty(t *testing.T) {
	if p := PathFromSpans(1, nil); p != nil {
		t.Fatalf("expected nil path, got %+v", p)
	}
}

var benchSinkPaths []CriticalPath

// twoHopDumps fabricates n clean two-hop requests, one dump each.
func twoHopDumps(n int) []*core.TraceDump {
	var dumps []*core.TraceDump
	for i := 0; i < n; i++ {
		dumps = append(dumps, &core.TraceDump{
			Entity: "d", Events: twoHopEvents(uint64(i+1), pathTraceBase+int64(i)*10_000),
		})
	}
	return dumps
}

// BenchmarkExtractPaths is mirrored by the perfgate critical-path
// scenario; keep the workload shapes in sync.
func BenchmarkExtractPaths(b *testing.B) {
	ts := MergeTraces(twoHopDumps(64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, _ := ExtractPaths(ts)
		benchSinkPaths = paths
	}
}

func TestSegKindStrings(t *testing.T) {
	for k := SegKind(0); k < NumSegKinds; k++ {
		if k.String() == "?" {
			t.Fatalf("SegKind %d has no name", k)
		}
	}
	if time.Duration(0) != 0 { // keep the time import honest
		t.Fatal("unreachable")
	}
}

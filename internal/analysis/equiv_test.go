package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"symbiosys/internal/core"
)

// traceGen fabricates randomized multi-request trace sets covering what
// the extraction has to untangle: nested hops, retries whose earlier
// attempts fail (request or response dropped), overlapping batch
// siblings under one request ID, dropped start or end events, and ties
// in timestamps and Lamport orders.
type traceGen struct {
	r     *rand.Rand
	order uint64
	evs   []core.Event
}

var genRPCs = []string{"a_rpc", "b_rpc", "c_rpc"}

// tick advances the Lamport counter; now and then it repeats the last
// value so spans tie on StartOrder.
func (g *traceGen) tick() uint64 {
	if g.order == 0 || g.r.Intn(6) != 0 {
		g.order++
	}
	return g.order
}

// step is a coarse duration, often zero, so timestamps tie.
func (g *traceGen) step() int64 { return int64(g.r.Intn(4)) * 50 }

func (g *traceGen) emit(ev core.Event) {
	ev.Order = g.tick()
	g.evs = append(g.evs, ev)
}

// hop emits one hop from entity cli (all its attempts), returning the
// time its last attempt completed.
func (g *traceGen) hop(req uint64, parent core.Breadcrumb, rpc, cli string, t int64, depth int, batch uint64) int64 {
	bc := parent.Push(rpc)
	srv := fmt.Sprintf("srv%d", g.r.Intn(3))
	attempts := 1
	if g.r.Intn(4) == 0 {
		attempts += 1 + g.r.Intn(2)
	}
	for a := 0; a < attempts; a++ {
		last := a == attempts-1
		start := t
		g.emit(core.Event{RequestID: req, Kind: core.EvOriginStart, Timestamp: t,
			Entity: cli, RPCName: rpc, Breadcrumb: uint64(bc)})
		var window int64
		if batch != 0 && g.r.Intn(2) == 0 {
			window = g.step()
		}
		t += window + g.step()
		// A failed attempt lost its request (no target view) or its
		// response (target view present); the last one usually works.
		serverView := last || g.r.Intn(2) == 0
		if serverView {
			t5 := t
			g.emit(core.Event{RequestID: req, Kind: core.EvTargetStart, Timestamp: t5,
				Entity: srv, RPCName: rpc, Breadcrumb: uint64(bc), QueueNanos: int64(g.r.Intn(3)) * 40})
			t += g.step()
			if depth < 3 {
				for c := g.r.Intn(3); c > 0; c-- {
					t = g.hop(req, bc, genRPCs[g.r.Intn(len(genRPCs))], srv, t+g.step(), depth+1, 0)
				}
			}
			t += g.step()
			dur := t - t5
			if g.r.Intn(4) == 0 {
				dur = 0 // span length from the timestamps
			}
			g.emit(core.Event{RequestID: req, Kind: core.EvTargetEnd, Timestamp: t,
				Entity: srv, RPCName: rpc, Breadcrumb: uint64(bc), Duration: dur,
				Failed: g.r.Intn(10) == 0})
		}
		t += g.step()
		g.emit(core.Event{RequestID: req, Kind: core.EvOriginEnd, Timestamp: t,
			Entity: cli, RPCName: rpc, Breadcrumb: uint64(bc), Duration: t - start,
			Failed: !last || g.r.Intn(10) == 0, BatchID: batch, WindowNanos: window})
		if !last {
			t += g.step() // backoff
		}
	}
	return t
}

// request emits one root request: a single hop, or 2–4 overlapping
// batch siblings sharing the request ID and breadcrumb.
func (g *traceGen) request(req uint64, t int64) {
	rpc := genRPCs[g.r.Intn(len(genRPCs))]
	if g.r.Intn(4) != 0 {
		g.hop(req, 0, rpc, "cli", t, 1, 0)
		return
	}
	batch := uint64(g.r.Intn(1000) + 1)
	for k := 2 + g.r.Intn(3); k > 0; k-- {
		g.hop(req, 0, rpc, "cli", t+int64(g.r.Intn(3))*50, 1, batch)
	}
}

// genTraceSet builds one randomized trace set: up to 40 requests (IDs
// may collide, merging their events), some events dropped, and the
// survivors shuffled across up to four dumps.
func genTraceSet(r *rand.Rand) *TraceSet {
	g := &traceGen{r: r}
	n := 1 + r.Intn(40)
	for i := 0; i < n; i++ {
		g.request(uint64(r.Intn(2*n)+1), int64(r.Intn(n))*200)
	}
	dropP := []float64{0, 0, 0.05, 0.2}[r.Intn(4)]
	kept := g.evs[:0]
	for _, e := range g.evs {
		if r.Float64() >= dropP {
			kept = append(kept, e)
		}
	}
	r.Shuffle(len(kept), func(i, j int) { kept[i], kept[j] = kept[j], kept[i] })
	dumps := make([]*core.TraceDump, 1+r.Intn(4))
	for i := range dumps {
		dumps[i] = &core.TraceDump{Entity: fmt.Sprintf("p%d", i)}
	}
	for _, e := range kept {
		d := dumps[r.Intn(len(dumps))]
		d.Events = append(d.Events, e)
	}
	return MergeTraces(dumps)
}

// naiveGroups groups events by request with per-request copies, each
// group stably sorted by Lamport order, in ascending request-ID order.
func naiveGroups(ts *TraceSet) ([]uint64, map[uint64][]core.Event) {
	groups := make(map[uint64][]core.Event)
	for _, e := range ts.Events {
		groups[e.RequestID] = append(groups[e.RequestID], e)
	}
	ids := make([]uint64, 0, len(groups))
	for id, evs := range groups {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Order < evs[j].Order })
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids, groups
}

const equivTraceSets = 40

// TestExtractPathsMatchesPerRequestOracle: the grouped, builder-reusing
// sweep equals extracting each naively grouped request on its own
// through the public single-request API, PathStats included.
func TestExtractPathsMatchesPerRequestOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < equivTraceSets; iter++ {
		ts := genTraceSet(r)
		ids, groups := naiveGroups(ts)
		var want []CriticalPath
		wantStats := PathStats{Requests: len(ids)}
		for _, id := range ids {
			p := PathFromSpans(id, SpansOf(id, groups[id]))
			if p == nil {
				continue
			}
			wantStats.Extracted++
			if p.Incomplete {
				wantStats.Incomplete++
			}
			if p.Attempts > 1 {
				wantStats.Retried++
			}
			if p.Failed {
				wantStats.Failed++
			}
			want = append(want, *p)
		}
		got, stats := ExtractPaths(ts)
		if stats != wantStats {
			t.Fatalf("trace set %d: stats = %+v, want %+v", iter, stats, wantStats)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trace set %d: paths differ\ngot  %+v\nwant %+v", iter, got, want)
		}
	}
}

// TestExtractPathsMatchesReference: paths, stats, flames and the
// incomplete-request count equal the map-based extraction the
// index-based pipeline replaced.
func TestExtractPathsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < equivTraceSets; iter++ {
		ts := genTraceSet(r)
		got, stats := ExtractPaths(ts)
		want, wantStats := refExtractPaths(ts)
		if stats != wantStats {
			t.Fatalf("trace set %d: stats = %+v, want %+v", iter, stats, wantStats)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("trace set %d: paths differ\ngot  %+v\nwant %+v", iter, got, want)
		}
		if f, wf := FoldPaths(got), FoldPaths(want); !reflect.DeepEqual(f, wf) {
			t.Fatalf("trace set %d: flames differ", iter)
		}
		if n, want := ts.IncompleteRequests(), refIncompleteRequests(ts); n != want {
			t.Fatalf("trace set %d: IncompleteRequests = %d, want %d", iter, n, want)
		}
	}
}

// TestForEachRequestMatchesNaiveGrouping: the grouped walk visits every
// request once, in ID order, with its events in the naive stable
// Lamport order and the spans both SpansOf and the replaced pairing
// build from them.
func TestForEachRequestMatchesNaiveGrouping(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < equivTraceSets; iter++ {
		ts := genTraceSet(r)
		ids, groups := naiveGroups(ts)
		k := 0
		ts.ForEachRequest(func(id uint64, evs []int32, spans []Span) {
			if k >= len(ids) || id != ids[k] {
				t.Fatalf("trace set %d: walk visited %#x at %d, want %v", iter, id, k, ids)
			}
			k++
			want := groups[id]
			got := make([]core.Event, len(evs))
			for i, p := range evs {
				got[i] = ts.Events[p]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace set %d request %#x: events out of order", iter, id)
			}
			if ref := refSpansOf(id, want); len(spans)+len(ref) > 0 && !reflect.DeepEqual(spans, ref) {
				t.Fatalf("trace set %d request %#x: spans\ngot  %+v\nwant %+v", iter, id, spans, ref)
			}
			if single := SpansOf(id, want); !reflect.DeepEqual(single, refSpansOf(id, want)) {
				t.Fatalf("trace set %d request %#x: SpansOf differs from reference", iter, id)
			}
			if one := ts.Spans(id); !reflect.DeepEqual(one, refSpansOf(id, want)) {
				t.Fatalf("trace set %d request %#x: Spans differs from reference", iter, id)
			}
		})
		if k != len(ids) {
			t.Fatalf("trace set %d: walk visited %d of %d requests", iter, k, len(ids))
		}
		if spans := ts.Spans(1 << 40); spans != nil {
			t.Fatalf("trace set %d: spans of an absent request = %+v", iter, spans)
		}
	}
}

// TestExtractPathsAllocs pins the allocation cost of a sweep over the
// BenchmarkExtractPaths workload (64 two-hop requests): at most 360
// allocations per call, ten times below the map-per-request
// extraction's ~3,600.
func TestExtractPathsAllocs(t *testing.T) {
	ts := MergeTraces(twoHopDumps(64))
	allocs := testing.AllocsPerRun(20, func() {
		benchSinkPaths, _ = ExtractPaths(ts)
	})
	if allocs > 360 {
		t.Fatalf("ExtractPaths: %.0f allocs per call over 64 requests, want <= 360", allocs)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestBeyondAndHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.9, 10}, {99, 0.9, 9}, {20, 0.5, 10}, {0, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	ladder := []float64{0.5, 0.75, 0.9, 0.99}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {20, 0.5}, {19, 0}} {
		if got := highestTail(c.n, 10, ladder...); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func ramp(n int, scale time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * scale // unsorted on purpose
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := ramp(100, time.Millisecond)
	for q, want := range map[float64]time.Duration{0.5: 50 * time.Millisecond, 0.99: 99 * time.Millisecond, 1: 100 * time.Millisecond, 0.001: time.Millisecond} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%g) = %v, want %v", q, got, want)
		}
	}
	if s[0] != 100*time.Millisecond {
		t.Fatal("quantile reordered its input")
	}
}

func TestRoundQuantile(t *testing.T) {
	// Every round has 10 samples beyond p90: median of per-round p90s.
	rounds := [][]time.Duration{ramp(100, time.Microsecond), ramp(100, 2*time.Microsecond), ramp(100, 3*time.Microsecond)}
	got, n := roundQuantile(rounds, 0.9)
	if want := 180 * time.Microsecond; got != want || n != 300 {
		t.Errorf("per-round p90 = %v over %d, want %v over 300", got, n, want)
	}
	// One round too small for p90: pooled p90 instead.
	rounds = [][]time.Duration{ramp(100, time.Microsecond), ramp(50, time.Microsecond)}
	got, n = roundQuantile(rounds, 0.9)
	if want := quantile(append(ramp(100, time.Microsecond), ramp(50, time.Microsecond)...), 0.9); got != want || n != 150 {
		t.Errorf("pooled p90 = %v over %d, want %v over 150", got, n, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{ID: 6, Name: "root2", Start: 200, End: 210},
	}
	selfTimes(spans)
	want := map[string]int64{"round": 100 - 40 - 10, "a": 20, "b": 30 - 10, "c": 30, "d": 10, "root2": 10}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestRecorderOffRecordsNothing(t *testing.T) {
	r := newRecorder(false)
	r.time(r.id(), "x", 0, func() {})
	if len(r.spans) != 0 {
		t.Fatalf("disabled recorder kept %d spans", len(r.spans))
	}
	r = newRecorder(true)
	parent := r.id()
	r.time(parent, "child", 7, func() {})
	if len(r.spans) != 1 || r.spans[0].Parent != parent || r.spans[0].Req != 7 || r.spans[0].ID == parent {
		t.Fatalf("spans = %+v", r.spans)
	}
}

func TestValidMetric(t *testing.T) {
	good := [][2]string{{"ops_per_s", "ops/s"}, {"core.stage_full_cost_pct", "%"}, {"9lives", "count/op"}, {strings.Repeat("a", 64), "ms"}}
	for _, g := range good {
		if err := validMetric(g[0], g[1]); err != nil {
			t.Errorf("validMetric(%q, %q): %v", g[0], g[1], err)
		}
	}
	bad := [][2]string{{"_x", "ms"}, {".x", "ms"}, {"a b", "ms"}, {"a/b", "ms"}, {strings.Repeat("a", 65), "ms"},
		{"x", ""}, {"x", "m s"}, {"x", strings.Repeat("u", 17)}, {"x", "µs"}}
	for _, b := range bad {
		if err := validMetric(b[0], b[1]); err == nil {
			t.Errorf("validMetric(%q, %q) accepted", b[0], b[1])
		}
	}
}

func TestTableMetrics(t *testing.T) {
	table := []layerMetric{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	got, err := tableMetrics(map[string]float64{"a": 1, "b": 2}, table)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (metric{1, "ms"}) || got["b"] != (metric{2, "s"}) {
		t.Fatalf("metrics = %v", got)
	}
	for name, vals := range map[string]map[string]float64{
		"missing": {"a": 1},
		"extra":   {"a": 1, "b": 2, "c": 3},
		"renamed": {"a": 1, "c": 2},
		"NaN":     {"a": math.NaN(), "b": 2},
	} {
		if _, err := tableMetrics(vals, table); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := tableMetrics(map[string]float64{"a b": 1}, []layerMetric{{"a b", "ms", "lower"}}); err == nil {
		t.Error("invalid name accepted")
	}
}

// TestMetricTables checks BENCHMARK.json against the metric tables the
// program emits, and every table name against the result format.
func TestMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", what, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program %+v", what, i, g, w)
			}
			if err := validMetric(w.name, w.unit); err != nil {
				t.Error(err)
			}
			if seen[w.name] {
				t.Errorf("%s: %s listed twice", what, w.name)
			}
			seen[w.name] = true
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

func TestInputDigest(t *testing.T) {
	for _, w := range workloads {
		a, b, c := digest(w.generate(1)), digest(w.generate(1)), digest(w.generate(2))
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
	}
}

func TestSonataQueriesMatchSomething(t *testing.T) {
	in := genSonata(3).(*sonataInput)
	for q, ids := range in.want {
		if len(ids) == 0 || len(ids) == sonataRecords {
			t.Errorf("query %q matches %d of %d records", in.queries[q].expr, len(ids), sonataRecords)
		}
	}
}

func TestAuditsRejectCorruption(t *testing.T) {
	rd := func(key, want, got string) sampleRead {
		return sampleRead{key: key, want: []byte(want), got: []byte(got), found: true}
	}
	good := []sampleRead{rd("k1", "abc", "abc"), rd("k2", "def", "def")}
	if err := auditHEPnOS([]int{1, 1}, 2, good); err != nil {
		t.Errorf("hepnos: clean result rejected: %v", err)
	}
	for name, err := range map[string]error{
		"hepnos stored count": auditHEPnOS([]int{1, 0}, 2, good),
		"hepnos byte flipped": auditHEPnOS([]int{1, 1}, 2, []sampleRead{rd("k1", "abc", "abd")}),
		"hepnos not found":    auditHEPnOS([]int{1, 1}, 2, []sampleRead{{key: "k1", want: []byte("abc")}}),
		"mobject truncated":   auditMobject([]sampleRead{rd("o1", "abcdef", "abc")}),
	} {
		if err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
	if err := auditMobject(good); err != nil {
		t.Errorf("mobject: clean result rejected: %v", err)
	}

	q := []queryCheck{{expr: "x", want: []uint64{1, 4}, got: []uint64{1, 4}}}
	if err := auditSonata(10, 10, q); err != nil {
		t.Errorf("sonata: clean result rejected: %v", err)
	}
	for name, err := range map[string]error{
		"sonata size":        auditSonata(9, 10, q),
		"sonata match count": auditSonata(10, 10, []queryCheck{{expr: "x", want: []uint64{1, 4}, got: []uint64{1}}}),
		"sonata match id":    auditSonata(10, 10, []queryCheck{{expr: "x", want: []uint64{1, 4}, got: []uint64{1, 5}}}),
	} {
		if err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}

	acked := map[string]string{"a": "v2", "b": "v1"}
	if err := auditEKV(acked, map[string]kvRead{"a": {"v2", true}, "b": {"v1", true}}); err != nil {
		t.Errorf("ekv: clean result rejected: %v", err)
	}
	for name, final := range map[string]map[string]kvRead{
		"ekv stale":   {"a": {"v1", true}, "b": {"v1", true}},
		"ekv lost":    {"a": {"", false}, "b": {"v1", true}},
		"ekv missing": {"b": {"v1", true}},
	} {
		if auditEKV(acked, final) == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

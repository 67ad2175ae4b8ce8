// Command symbench is the end-to-end benchmark of the SYMBIOSYS
// reproduction. It deploys the simulated Mochi stack in-process through
// experiments.Cluster, drives one of four paper-shaped workloads through
// the public service clients at Full Support, audits every output, and
// prints each metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	symbench -workload hepnos_load -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// splits the budget over an untraced Full Support run, a traced one and
// a traced StageOff twin, and reports the per-layer metrics: counter
// deltas read through public accessors, the Table III intervals from the
// system's own profiles, and the benchmark's spans (written to
// <out>/spans-<workload>-<seed>.jsonl with self times).
//
// An audit failure, a stage-guard failure or a trace-completeness
// failure exits with status 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"symbiosys/internal/core"
)

// workloads, by name. The tail quantiles are the highest that keep at
// least ten samples beyond them and whose run-to-run spread on a shared
// 2-vCPU host stays inside the metric's bound: at p99, hepnos reads and
// mobject ops flip between a fast and a slow mode from round to round.
// ekv_rebalance is not in BENCHMARK.json: its gets fail and return stale
// values under churn (see README.md), so it runs only by name.
var workloads = []*workload{
	{name: "hepnos_load", writeTail: 0.99, readTail: 0.9,
		generate: genHEPnOS, deploy: deployHEPnOS},
	{name: "mobject_ior", writeTail: 0.95, readTail: 0.95,
		generate: genMobject, deploy: deployMobject},
	{name: "sonata_json", writeTail: 0.75, readTail: 0.9,
		generate: genSonata, deploy: deploySonata},
	{name: "ekv_rebalance", writeTail: 0.99, readTail: 0.99,
		generate: genEKV, deploy: deployEKV},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build", "directory for the span file")
	flag.Parse()
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "symbench: -trace takes 0 or 1 and -seconds a positive count")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "symbench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// digest fingerprints a workload's generated inputs.
func digest(in input) string {
	h := sha256.New()
	in.feed(h)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostFingerprint names what a figure was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return map[string]any{"cpu": cpu, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
}

func run(name string, seed uint64, budget time.Duration, traced bool, outDir string) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	in := w.generate(seed)
	meta := map[string]any{"workload": w.name, "seed": seed, "input_digest": digest(in),
		"host": hostFingerprint(), "trace": traced, "seconds": budget.Seconds()}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)

	if err := warmUp(w, in); err != nil {
		return err
	}
	// Audits, guards and failed ops end the run with an error above, so a
	// result that gets printed is a correct one.
	res := result{Correct: true}
	vals := map[string]float64{}

	if !traced {
		p, err := runPhase(w, in, core.StageFull, newRecorder(false), budget)
		if err != nil {
			return err
		}
		setup, err := measureSetup(w, in)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		vals["setup_s"] = median(setup)
		vals["ops_per_s"] = p.opsPerSec()
		vals["analyze_s"] = median(p.analyze)
		vals["heap_live_mb"] = median(p.heapMB)
		fmt.Printf("rounds %d, ops %d in %.3fs; host CPU stolen by the hypervisor meanwhile: %.1f%%\n",
			p.rounds, p.ops(), p.opTime.Seconds(), 100*ratio(float64(p.stealTicks), float64(p.totalTicks)))
		for _, s := range []struct {
			what   string
			rounds [][]time.Duration
			tail   float64
		}{{"write", p.writes, w.writeTail}, {"read", p.reads, w.readTail}} {
			p50, _ := roundQuantile(s.rounds, 0.5)
			tail, n := roundQuantile(s.rounds, s.tail)
			vals[s.what+"_p50_ms"] = ms(p50)
			vals[s.what+"_tail_ms"] = ms(tail)
			fmt.Printf("%s: %d samples, tail at p%g\n", s.what, n, 100*s.tail)
			if beyond(n, s.tail) < 10 {
				fmt.Fprintf(os.Stderr, "symbench: warning: %s tail p%g has fewer than 10 samples beyond it (highest supported: p%g)\n",
					s.what, 100*s.tail, 100*highestTail(n, 10, 0.5, 0.75, 0.9, 0.99))
			}
		}
		return emit(res, vals, endToEnd)
	}
	if err := runTraced(w, in, seed, budget, outDir, vals, &res); err != nil {
		return err
	}
	return emit(res, vals, perLayer)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runTraced splits the budget over three phases: an untraced Full
// Support run (the reference for the tracing overhead), a traced Full
// Support run (the per-layer figures), and a traced StageOff twin (the
// reference for the cost of Full Support itself).
func runTraced(w *workload, in input, seed uint64, budget time.Duration, outDir string,
	vals map[string]float64, res *result) error {
	third := budget / 3
	base, err := runPhase(w, in, core.StageFull, newRecorder(false), third)
	if err != nil {
		return err
	}
	rec := newRecorder(true)
	full, err := runPhase(w, in, core.StageFull, rec, third)
	if err != nil {
		return err
	}
	off, err := runPhase(w, in, core.StageOff, newRecorder(true), third)
	if err != nil {
		return err
	}
	for _, p := range []*phase{base, full, off} {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}

	selfTimes(rec.spans)
	if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed)), rec.spans); err != nil {
		return err
	}

	for name, v := range full.layers.metrics() {
		vals[name] = v
	}
	spanUS := func(n string) float64 { return spanMeanByName(rec.spans, n) / 1e3 }
	spanMS := func(n string) float64 { return spanMeanByName(rec.spans, n) / 1e6 }
	vals["hepnos.store_event_us"] = spanUS("hepnos.StoreEvent")
	vals["hepnos.flush_ms"] = spanMS("hepnos.Flush")
	vals["hepnos.load_event_us"] = spanUS("hepnos.LoadEvent")
	vals["mobject.write_op_us"] = spanUS("mobject.WriteOp")
	vals["mobject.read_op_us"] = spanUS("mobject.ReadOp")
	vals["sonata.store_multi_ms"] = spanMS("sonata.StoreMultiJSON")
	vals["sonata.exec_query_ms"] = spanMS("sonata.ExecQuery")
	vals["ekv.put_us"] = spanUS("ekv.Put")
	vals["ekv.get_us"] = spanUS("ekv.Get")
	vals["ekv.settle_ms"] = spanMS("ekv.settle")
	vals["setup.process_start_ms"] = spanMS("setup.process_start")
	vals["setup.provider_register_ms"] = spanMS("setup.provider_register")
	vals["core.stage_full_cost_pct"] = 100 * (1 - full.opsPerSec()/off.opsPerSec())
	vals["bench.trace_overhead_pct"] = 100 * (1 - full.opsPerSec()/base.opsPerSec())
	vals["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Printf("ops/s: untraced Full Support %.1f, traced Full Support %.1f, traced StageOff %.1f; %d spans\n",
		base.opsPerSec(), full.opsPerSec(), off.opsPerSec(), len(rec.spans))
	return nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endToEnd is the untraced run's complete output.
var endToEnd = []layerMetric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"write_tail_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_tail_ms", "ms", "lower"},
	{"analyze_s", "s", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// tableMetrics gives each of the table's metrics its value and unit. It
// rejects a value set that is not exactly the table's, a value that is
// not a number, and a name or unit the result format cannot carry.
func tableMetrics(vals map[string]float64, table []layerMetric) (map[string]metric, error) {
	if len(vals) != len(table) {
		return nil, fmt.Errorf("%d metrics, want %d", len(vals), len(table))
	}
	out := make(map[string]metric, len(table))
	for _, t := range table {
		v, ok := vals[t.name]
		if !ok {
			return nil, fmt.Errorf("metric %s missing", t.name)
		}
		if err := validMetric(t.name, t.unit); err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", t.name, v)
		}
		out[t.name] = metric{Value: v, Unit: t.unit}
	}
	return out, nil
}

// emit prints every metric of the table as a line, then the result
// object as the last line of standard output.
func emit(res result, vals map[string]float64, table []layerMetric) error {
	var err error
	if res.Metrics, err = tableMetrics(vals, table); err != nil {
		return err
	}
	for _, t := range table {
		fmt.Printf("%-36s %14.6g %s\n", t.name, vals[t.name], t.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

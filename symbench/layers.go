package main

import (
	"math"
	"runtime"
	"runtime/metrics"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/mercury"
	"symbiosys/internal/services/bake"
	"symbiosys/internal/services/sdskv"
	"symbiosys/internal/telemetry"
)

// snapshot is the counter state of every process (and the Go runtime)
// at one edge of a round's op window.
type snapshot struct {
	samples []telemetry.Sample
	pvars   []map[string]uint64
	rt      []metrics.Sample
	mem     runtime.MemStats
}

// pvarNames are the Mercury PVARs read through a benchmark-owned
// session (the public pvar registry), beyond the ones telemetry fuses.
var pvarNames = []string{
	mercury.PVarNumEagerOverflows,
	mercury.PVarBulkBytesTransferred,
	mercury.PVarCompletionQueueHWM,
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func takeSnapshot(c *experiments.Cluster) *snapshot {
	s := &snapshot{}
	for _, inst := range c.Instances() {
		s.samples = append(s.samples, inst.TelemetrySample())
		sess := inst.Mercury().PVars().InitSession()
		vals := map[string]uint64{}
		for _, name := range pvarNames {
			h, err := sess.AllocHandleByName(name)
			if err != nil {
				continue // not registered on this class: reads as 0
			}
			if v, err := sess.Read(h, nil); err == nil {
				vals[name] = v
			}
		}
		s.pvars = append(s.pvars, vals)
	}
	s.rt = make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	metrics.Read(s.rt)
	runtime.ReadMemStats(&s.mem)
	return s
}

// layerAcc sums per-layer evidence over a phase's rounds.
type layerAcc struct {
	rounds int
	ops    float64
	c      map[string]float64 // summed counters
	hwm    map[string]float64 // maxima
	sched  []uint64           // sched latency histogram delta
	bounds []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{c: map[string]float64{}, hwm: map[string]float64{}}
}

func (a *layerAcc) max(name string, v float64) {
	if v > a.hwm[name] {
		a.hwm[name] = v
	}
}

// rpcTargetExec sums the exclusive target execution time and calls of
// every callpath whose leaf is rpc.
func rpcTargetExec(m *analysis.MergedProfile, rpc string) (nanos, calls float64) {
	leaf := core.Hash16(rpc)
	for key, s := range m.Target {
		if key.BC.Leaf() == leaf {
			nanos += float64(s.Components[core.CompTargetExec])
			calls += float64(s.Count)
		}
	}
	return nanos, calls
}

// execRPCs are the service RPCs whose per-call target execution the
// traced run reports, by metric prefix.
var execRPCs = map[string]string{
	"sdskv.put_packed":   sdskv.RPCPutPacked,
	"sdskv.put":          sdskv.RPCPut,
	"sdskv.get":          sdskv.RPCGet,
	"sdskv.list_keyvals": sdskv.RPCListKeyvals,
	"bake.write":         bake.RPCWrite,
}

func (a *layerAcc) addRound(c *experiments.Cluster, rep *report, before, after *snapshot, ops int, svc map[string]float64) {
	a.rounds++
	a.ops += float64(ops)
	insts := c.Instances()
	for i := range insts {
		b, e := before.samples[i], after.samples[i]
		a.c["quanta"] += float64(e.SchedQuanta - b.SchedQuanta)
		a.c["steals"] += float64(e.SchedSteals - b.SchedSteals)
		a.c["parks"] += float64(e.SchedParks - b.SchedParks)
		a.c["wakes"] += float64(e.SchedWakes - b.SchedWakes)
		a.c["posted"] += float64(e.EventsPosted - b.EventsPosted)
		a.c["spins"] += float64(e.ProgressSpinPolls - b.ProgressSpinPolls)
		a.c["pparks"] += float64(e.ProgressParks - b.ProgressParks)
		a.c["retries"] += float64(e.RPCRetries - b.RPCRetries)
		a.c["timeouts"] += float64(e.RPCTimeouts - b.RPCTimeouts)
		bp, ep := before.pvars[i], after.pvars[i]
		a.c["eager"] += float64(ep[mercury.PVarNumEagerOverflows] - bp[mercury.PVarNumEagerOverflows])
		a.c["bulk"] += float64(ep[mercury.PVarBulkBytesTransferred] - bp[mercury.PVarBulkBytesTransferred])
		a.max("cq_hwm", float64(ep[mercury.PVarCompletionQueueHWM]))
	}

	// Go runtime over the op window.
	a.c["gc_cpu"] += after.rt[0].Value.Float64() - before.rt[0].Value.Float64()
	a.c["cpu"] += after.rt[1].Value.Float64() - before.rt[1].Value.Float64()
	a.c["gc_cycles"] += float64(after.rt[2].Value.Uint64() - before.rt[2].Value.Uint64())
	hb, he := before.rt[3].Value.Float64Histogram(), after.rt[3].Value.Float64Histogram()
	if a.sched == nil {
		a.sched = make([]uint64, len(he.Counts))
		a.bounds = he.Buckets
	}
	for i := range he.Counts {
		a.sched[i] += he.Counts[i] - hb.Counts[i]
	}
	a.c["alloc"] += float64(after.mem.TotalAlloc - before.mem.TotalAlloc)

	// Trace-derived: pool occupancy maxima and progress-pass reads.
	caps := map[string]uint64{}
	for _, inst := range insts {
		caps[inst.Addr()] = uint64(inst.OFIMaxEvents())
	}
	for _, ev := range rep.traces.Events {
		a.max("blocked", float64(ev.Sys.PoolBlocked))
		a.max("runnable", float64(ev.Sys.PoolRunnable))
	}
	for _, s := range rep.traces.OFIEventsReadSeries("") {
		a.c["ofi_samples"]++
		a.c["ofi_read"] += float64(s.EventsRead)
		if cp := caps[s.Entity]; cp > 0 && s.EventsRead >= cp {
			a.c["ofi_at_cap"]++
		}
	}
	a.c["trace_events"] += float64(len(rep.traces.Events))
	a.c["trace_dropped"] += float64(rep.traces.Dropped)

	// Table III intervals from the merged profile.
	for _, s := range rep.profile.Origin {
		a.c["input_ser"] += float64(s.Components[core.CompInputSer])
		a.c["origin_cb"] += float64(s.Components[core.CompOriginCB])
	}
	for _, s := range rep.profile.Target {
		a.c["input_deser"] += float64(s.Components[core.CompInputDeser])
		a.c["output_ser"] += float64(s.Components[core.CompOutputSer])
		a.c["rdma"] += float64(s.Components[core.CompRDMA])
		a.c["handler"] += float64(s.Components[core.CompHandler])
		a.c["target_exec"] += float64(s.Components[core.CompTargetExec])
		a.c["target_cb"] += float64(s.Components[core.CompTargetCB])
	}
	for _, u := range rep.unaccounted {
		a.c["unacc"] += float64(u.Unaccount)
		a.c["origin_exec"] += float64(u.OriginExec)
	}
	for prefix, rpc := range execRPCs {
		n, k := rpcTargetExec(rep.profile, rpc)
		a.c[prefix+".ns"] += n
		a.c[prefix+".calls"] += k
	}

	a.c["dump"] += float64(rep.dumpNanos)
	a.c["merge"] += float64(rep.mergeNanos)
	a.c["merge_traces"] += float64(rep.mergeTracesNanos)
	a.c["extract"] += float64(rep.extractNanos)
	a.c["requests"] += float64(rep.stats.Requests)
	a.c["fold"] += float64(rep.foldNanos)

	for k, v := range svc {
		a.c["svc."+k] += v
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// schedP99 is the 99th percentile of the summed scheduling-latency
// histogram, in seconds (the upper bound of its bucket).
func (a *layerAcc) schedP99() float64 {
	var total uint64
	for _, n := range a.sched {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var seen uint64
	for i, n := range a.sched {
		seen += n
		if seen > want {
			if hi := a.bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.bounds[i]
		}
	}
	return a.bounds[len(a.bounds)-1]
}

// metrics turns the sums into the per-layer metrics. Per-op values
// divide by the client ops the rounds completed; interval times are
// cumulative over every RPC an op caused, so they add up toward the
// op's latency.
func (a *layerAcc) metrics() map[string]float64 {
	c, ops, rounds := a.c, a.ops, float64(a.rounds)
	us := func(ns float64) float64 { return ratio(ns, ops) / 1e3 }
	m := map[string]float64{
		"abt.quanta_per_op":       ratio(c["quanta"], ops),
		"abt.steals_per_op":       ratio(c["steals"], ops),
		"abt.parks_per_op":        ratio(c["parks"], ops),
		"abt.wakes_per_op":        ratio(c["wakes"], ops),
		"abt.blocked_hwm":         a.hwm["blocked"],
		"abt.runnable_hwm":        a.hwm["runnable"],
		"na.events_posted_per_op": ratio(c["posted"], ops),
		"na.events_per_progress":  ratio(c["ofi_read"], c["ofi_samples"]),
		"na.ofi_at_cap_frac":      ratio(c["ofi_at_cap"], c["ofi_samples"]),
		"na.cq_depth_hwm":         a.hwm["cq_hwm"],

		"mercury.input_ser_us":           us(c["input_ser"]),
		"mercury.input_deser_us":         us(c["input_deser"]),
		"mercury.output_ser_us":          us(c["output_ser"]),
		"mercury.rdma_us":                us(c["rdma"]),
		"mercury.eager_overflows_per_op": ratio(c["eager"], ops),
		"mercury.bulk_bytes_per_op":      ratio(c["bulk"], ops),

		"margo.handler_wait_us":            us(c["handler"]),
		"margo.target_exec_us":             us(c["target_exec"]),
		"margo.target_cb_us":               us(c["target_cb"]),
		"margo.origin_cb_us":               us(c["origin_cb"]),
		"margo.unaccounted_frac":           ratio(c["unacc"], c["origin_exec"]),
		"margo.progress_spin_polls_per_op": ratio(c["spins"], ops),
		"margo.progress_parks_per_op":      ratio(c["pparks"], ops),
		"margo.retries":                    c["retries"],
		"margo.timeouts":                   c["timeouts"],

		"core.trace_events_per_op": ratio(c["trace_events"], ops),
		"core.trace_dropped":       c["trace_dropped"],
		"core.dump_ms":             ratio(c["dump"], rounds) / 1e6,

		"analysis.merge_profiles_ms":        ratio(c["merge"], rounds) / 1e6,
		"analysis.merge_traces_ms":          ratio(c["merge_traces"], rounds) / 1e6,
		"analysis.extract_paths_us_per_req": ratio(c["extract"], c["requests"]) / 1e3,
		"analysis.fold_ms":                  ratio(c["fold"], rounds) / 1e6,

		"ekv.keys_migrated":     ratio(c["svc.keys_migrated"], rounds),
		"ekv.redirects_per_kop": ratio(c["svc.redirects"], ops) * 1e3,
		"ekv.wrong_routes":      ratio(c["svc.wrong_routes"], rounds),
		"ekv.dual_writes":       ratio(c["svc.dual_writes"], rounds),
		"ekv.read_throughs":     ratio(c["svc.read_throughs"], rounds),

		"runtime.alloc_bytes_per_op":   ratio(c["alloc"], ops),
		"runtime.gc_cycles":            c["gc_cycles"],
		"runtime.gc_cpu_frac":          ratio(c["gc_cpu"], c["cpu"]),
		"runtime.sched_latency_p99_us": a.schedP99() * 1e6,
	}
	for prefix := range execRPCs {
		m[prefix+"_exec_us"] = ratio(c[prefix+".ns"], c[prefix+".calls"]) / 1e3
	}
	return m
}

// layerMetric names one per-layer metric, its unit and which way is
// better; the table is the traced run's complete output.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	{"abt.quanta_per_op", "count/op", "lower"},
	{"abt.steals_per_op", "count/op", "lower"},
	{"abt.parks_per_op", "count/op", "lower"},
	{"abt.wakes_per_op", "count/op", "lower"},
	{"abt.blocked_hwm", "count", "lower"},
	{"abt.runnable_hwm", "count", "lower"},
	{"na.events_posted_per_op", "count/op", "lower"},
	{"na.events_per_progress", "count", "higher"},
	{"na.ofi_at_cap_frac", "ratio", "lower"},
	{"na.cq_depth_hwm", "count", "lower"},
	{"mercury.input_ser_us", "us/op", "lower"},
	{"mercury.input_deser_us", "us/op", "lower"},
	{"mercury.output_ser_us", "us/op", "lower"},
	{"mercury.rdma_us", "us/op", "lower"},
	{"mercury.eager_overflows_per_op", "count/op", "lower"},
	{"mercury.bulk_bytes_per_op", "B/op", "lower"},
	{"margo.handler_wait_us", "us/op", "lower"},
	{"margo.target_exec_us", "us/op", "lower"},
	{"margo.target_cb_us", "us/op", "lower"},
	{"margo.origin_cb_us", "us/op", "lower"},
	{"margo.unaccounted_frac", "ratio", "lower"},
	{"margo.progress_spin_polls_per_op", "count/op", "lower"},
	{"margo.progress_parks_per_op", "count/op", "lower"},
	{"margo.retries", "count", "lower"},
	{"margo.timeouts", "count", "lower"},
	{"core.trace_events_per_op", "count/op", "lower"},
	{"core.trace_dropped", "count", "lower"},
	{"core.dump_ms", "ms", "lower"},
	{"core.stage_full_cost_pct", "%", "lower"},
	{"analysis.merge_profiles_ms", "ms", "lower"},
	{"analysis.merge_traces_ms", "ms", "lower"},
	{"analysis.extract_paths_us_per_req", "us", "lower"},
	{"analysis.fold_ms", "ms", "lower"},
	{"hepnos.store_event_us", "us", "lower"},
	{"hepnos.flush_ms", "ms", "lower"},
	{"hepnos.load_event_us", "us", "lower"},
	{"mobject.write_op_us", "us", "lower"},
	{"mobject.read_op_us", "us", "lower"},
	{"sonata.store_multi_ms", "ms", "lower"},
	{"sonata.exec_query_ms", "ms", "lower"},
	{"ekv.put_us", "us", "lower"},
	{"ekv.get_us", "us", "lower"},
	{"sdskv.put_packed_exec_us", "us", "lower"},
	{"sdskv.put_exec_us", "us", "lower"},
	{"sdskv.get_exec_us", "us", "lower"},
	{"sdskv.list_keyvals_exec_us", "us", "lower"},
	{"bake.write_exec_us", "us", "lower"},
	{"ekv.keys_migrated", "count", "lower"},
	{"ekv.redirects_per_kop", "count/kop", "lower"},
	{"ekv.wrong_routes", "count", "lower"},
	{"ekv.dual_writes", "count", "lower"},
	{"ekv.read_throughs", "count", "lower"},
	{"ekv.settle_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.sched_latency_p99_us", "us", "lower"},
	{"setup.process_start_ms", "ms", "lower"},
	{"setup.provider_register_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"error_rate", "ratio", "lower"},
}

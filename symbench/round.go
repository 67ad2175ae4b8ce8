package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"symbiosys/internal/abt"
	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
	"symbiosys/internal/experiments"
	"symbiosys/internal/margo"
)

// workload is one paper-shaped load. A run repeats rounds until its
// measuring budget is spent; every round deploys the stack afresh
// through experiments.Cluster, replays the same generated inputs, and
// tears the stack down, so stored data and trace buffers stay the size
// of one round whatever the throughput.
type workload struct {
	name string
	// writeTail/readTail are the quantiles reported as *_tail_ms, fixed
	// per workload so a figure means the same thing on every commit.
	writeTail, readTail float64
	// generate builds the round's inputs from the seed.
	generate func(seed uint64) input
	// deploy starts the processes, registers providers and completes a
	// warm-up round trip: everything a user waits for before the first op.
	deploy func(e *env, in input) (round, error)
}

// input is a workload's generated inputs; feed writes a canonical
// encoding of them for the input digest.
type input interface{ feed(w io.Writer) }

// round is one deployed stack ready to run its fixed set of ops.
type round interface {
	// run drives every client's ops, one issuer ULT per client, and
	// returns one log per issuer.
	run(rec *recorder, parent uint64) ([]*opLog, error)
	// audit checks the round's outputs against its inputs.
	audit() error
	// issued is the number of root RPCs the client ops and audit issued,
	// or -1 when the stack issues root RPCs of its own (then the count
	// comes from the origin profiles).
	issued() int
	// counters reports service-level per-layer counters for the round.
	counters() map[string]float64
	close() error
}

// env is what deploy needs: the cluster, the measurement stage every
// process must run at, and the span recorder.
type env struct {
	cluster *experiments.Cluster
	stage   core.Stage
	rec     *recorder
	setupID uint64
}

// start launches one process at the env's stage and asserts the stage
// took: margo.New keeps Stage as given while the experiment runners turn
// a zero Stage into StageFull, so only the assert makes a StageOff twin
// trustworthy.
func (e *env) start(opts experiments.ProcessOptions) (*margo.Instance, error) {
	opts.Stage = e.stage
	inst, err := e.cluster.Start(opts)
	if err != nil {
		return nil, err
	}
	if got := inst.Stage(); got != e.stage {
		return nil, fmt.Errorf("stage guard: %s/%s runs at %v, want %v", opts.Node, opts.Name, got, e.stage)
	}
	return inst, nil
}

// step times one set-up step as a child of the set-up span.
func (e *env) step(name string, fn func() error) error {
	var err error
	e.rec.time(e.setupID, name, 0, func() { err = fn() })
	return err
}

// inULT runs fn on a ULT of inst and waits for it.
func inULT(inst *margo.Instance, name string, fn func(self *abt.ULT) error) error {
	var err error
	u := inst.Run(name, func(self *abt.ULT) { err = fn(self) })
	if jerr := u.Join(nil); jerr != nil {
		return jerr
	}
	return err
}

// opLog is one issuer's record of its client calls.
type opLog struct {
	writes, reads     []time.Duration
	attempted, failed int
}

// call times one client call: its latency joins the write or read
// samples, and a traced run also gets a span named after the call.
func (l *opLog) call(rec *recorder, parent uint64, name string, req uint64, write bool, fn func() error) error {
	id := rec.id()
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	rec.add(id, parent, name, req, t0, t1)
	l.attempted++
	if err != nil {
		l.failed++
		return err
	}
	if write {
		l.writes = append(l.writes, t1.Sub(t0))
	} else {
		l.reads = append(l.reads, t1.Sub(t0))
	}
	return nil
}

// runIssuers runs one issuer ULT per client instance and waits for all.
// The first error any issuer returns is reported.
func runIssuers(insts []*margo.Instance, fn func(self *abt.ULT, client int, log *opLog) error) ([]*opLog, error) {
	logs := make([]*opLog, len(insts))
	errs := make([]error, len(insts))
	ults := make([]*abt.ULT, len(insts))
	for i, inst := range insts {
		logs[i] = &opLog{}
		ults[i] = inst.Run(fmt.Sprintf("issuer-%d", i), func(self *abt.ULT) { errs[i] = fn(self, i, logs[i]) })
	}
	for i, u := range ults {
		if err := u.Join(nil); err != nil && errs[i] == nil {
			errs[i] = err
		}
	}
	for _, err := range errs {
		if err != nil {
			return logs, err
		}
	}
	return logs, nil
}

// phase is the outcome of running rounds at one stage for one budget.
type phase struct {
	rounds    int
	attempted int
	failed    int
	opTime    time.Duration
	// Per-round figures: a whole-run figure is the median round's, so a
	// round that meets a garbage collection or a noisy neighbour moves it
	// less than a pooled figure would.
	writes  [][]time.Duration
	reads   [][]time.Duration
	rates   []float64 // ops/s
	analyze []float64 // seconds
	heapMB  []float64
	layers  *layerAcc // nil unless traced
	// Host CPU ticks stolen by the hypervisor during op windows, and all
	// ticks (see cpuTicks).
	stealTicks, totalTicks uint64
}

func (p *phase) ops() int { return p.attempted - p.failed }

func (p *phase) opsPerSec() float64 { return median(p.rates) }

// warmUp runs one unmeasured round, so the measured ones start with the
// process's heap grown and its code paths and caches warm.
func warmUp(w *workload, in input) error {
	if err := runRound(w, in, core.StageFull, newRecorder(false), &phase{}); err != nil {
		return fmt.Errorf("%s warm-up round: %w", w.name, err)
	}
	return nil
}

// runPhase repeats rounds until their op time reaches budget (at least
// one round).
func runPhase(w *workload, in input, stage core.Stage, rec *recorder, budget time.Duration) (*phase, error) {
	p := &phase{}
	if rec.on {
		p.layers = newLayerAcc()
	}
	for p.rounds == 0 || p.opTime < budget {
		if err := runRound(w, in, stage, rec, p); err != nil {
			return p, fmt.Errorf("%s round %d at %v: %w", w.name, p.rounds, stage, err)
		}
		p.rounds++
	}
	return p, nil
}

// settleDelay lets target-side completion callbacks (t13) land after
// the origins report idle, as the experiment runners do before dumping.
const settleDelay = 20 * time.Millisecond

func quiesce(c *experiments.Cluster) error {
	if !c.WaitIdle(10 * time.Second) {
		return fmt.Errorf("cluster did not go idle")
	}
	time.Sleep(settleDelay)
	return nil
}

// deployRound deploys a fresh stack on a new cluster and times it.
func deployRound(w *workload, in input, stage core.Stage, rec *recorder, parent uint64) (round, *experiments.Cluster, time.Duration, error) {
	cluster := experiments.NewCluster(experiments.DefaultFabric())
	e := &env{cluster: cluster, stage: stage, rec: rec, setupID: rec.id()}
	t0 := time.Now()
	r, err := w.deploy(e, in)
	t1 := time.Now()
	rec.add(e.setupID, parent, "setup", 0, t0, t1)
	if err != nil {
		cluster.Shutdown()
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	return r, cluster, t1.Sub(t0), nil
}

// setupSamples is how many deployments the setup_s median is taken over.
const setupSamples = 41

// measureSetup deploys and tears down the stack setupSamples times and
// returns the times in seconds. Each deployment starts on a collected
// heap after a short pause, so the previous one's garbage and exiting
// goroutines do not land in its set-up time.
func measureSetup(w *workload, in input) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		r, _, d, err := deployRound(w, in, core.StageFull, newRecorder(false), 0)
		if err != nil {
			return nil, err
		}
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func runRound(w *workload, in input, stage core.Stage, rec *recorder, p *phase) (err error) {
	roundID := rec.id()
	roundStart := time.Now()
	defer func() { rec.add(roundID, 0, "round", 0, roundStart, time.Now()) }()

	r, cluster, _, err := deployRound(w, in, stage, rec, roundID)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := r.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()

	// Measure the round's ops only: drop what set-up recorded.
	if err := quiesce(cluster); err != nil {
		return err
	}
	for _, inst := range cluster.Instances() {
		inst.Profiler().ResetMeasurements()
	}
	var before *snapshot
	if p.layers != nil {
		before = takeSnapshot(cluster)
	}

	opID := rec.id()
	steal0, total0 := cpuTicks()
	opStart := time.Now()
	logs, runErr := r.run(rec, opID)
	opEnd := time.Now()
	steal1, total1 := cpuTicks()
	rec.add(opID, roundID, "ops", 0, opStart, opEnd)
	p.opTime += opEnd.Sub(opStart)
	p.stealTicks += steal1 - steal0
	p.totalTicks += total1 - total0
	roundOps := 0
	var writes, reads []time.Duration
	for _, l := range logs {
		p.attempted += l.attempted
		p.failed += l.failed
		roundOps += l.attempted - l.failed
		writes = append(writes, l.writes...)
		reads = append(reads, l.reads...)
	}
	p.writes = append(p.writes, writes)
	p.reads = append(p.reads, reads)
	p.rates = append(p.rates, float64(roundOps)/opEnd.Sub(opStart).Seconds())
	if runErr != nil {
		return runErr
	}
	var after *snapshot
	if p.layers != nil {
		after = takeSnapshot(cluster)
	}

	if err := r.audit(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if err := quiesce(cluster); err != nil {
		return err
	}

	if stage.Measures() {
		rep, secs := analyze(cluster, rec, roundID)
		p.analyze = append(p.analyze, secs)
		want := r.issued()
		if want < 0 {
			want = rep.rootRequests
		}
		if err := rep.complete(want); err != nil {
			return fmt.Errorf("trace completeness: %w", err)
		}
		if p.layers != nil {
			p.layers.addRound(cluster, rep, before, after, roundOps, r.counters())
		}
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.heapMB = append(p.heapMB, float64(mem.HeapAlloc)/(1<<20))
	return nil
}

// report is the SYMBIOSYS analysis of one round's dumps.
type report struct {
	profile      *analysis.MergedProfile
	traces       *analysis.TraceSet
	paths        []analysis.CriticalPath
	stats        analysis.PathStats
	unaccounted  []analysis.UnaccountedReport
	rootRequests int // root origin calls in the profile, minus retries

	dumpNanos, mergeNanos, mergeTracesNanos, extractNanos, foldNanos int64
}

// analyze turns the cluster's dumps into the SYMBIOSYS report, timing
// the pipeline end to end (the analyze_s metric) and each call in it.
func analyze(c *experiments.Cluster, rec *recorder, parent uint64) (*report, float64) {
	id := rec.id()
	start := time.Now()
	rep := &report{}
	insts := c.Instances()
	profiles := make([]*core.ProfileDump, 0, len(insts))
	traces := make([]*core.TraceDump, 0, len(insts))
	rep.dumpNanos = int64(rec.time(id, "core.Collect", 0, func() {
		for _, inst := range insts {
			rec.time(id, "core.Dump", 0, func() { profiles = append(profiles, inst.Profiler().Dump()) })
			rec.time(id, "core.DumpTrace", 0, func() { traces = append(traces, inst.Profiler().DumpTrace()) })
		}
	}))
	rep.mergeNanos = int64(rec.time(id, "analysis.Merge", 0, func() { rep.profile = analysis.Merge(profiles) }))
	rep.mergeTracesNanos = int64(rec.time(id, "analysis.MergeTraces", 0, func() { rep.traces = analysis.MergeTraces(traces) }))
	rep.extractNanos = int64(rec.time(id, "analysis.ExtractPaths", 0, func() { rep.paths, rep.stats = analysis.ExtractPaths(rep.traces) }))
	rep.foldNanos = int64(rec.time(id, "analysis.FoldPaths", 0, func() { analysis.FoldPaths(rep.paths) }))
	rec.time(id, "analysis.DominantCallpaths", 0, func() { rep.profile.DominantCallpaths(5) })
	rec.time(id, "analysis.Unaccounted", 0, func() {
		rtt := experiments.NominalRTT(c.Fabric.Config())
		roots := map[core.Breadcrumb]bool{}
		for key, s := range rep.profile.Origin {
			if key.BC.Depth() == 1 {
				roots[key.BC] = true
				rep.rootRequests += int(s.Count)
			}
		}
		for bc := range roots {
			rep.unaccounted = append(rep.unaccounted, rep.profile.Unaccounted(bc, rtt))
		}
	})
	end := time.Now()
	rec.add(id, parent, "analyze", 0, start, end)
	for _, inst := range insts {
		rep.rootRequests -= int(inst.RetryStats().Retries)
	}
	return rep, end.Sub(start).Seconds()
}

// complete is the trace-completeness guard: analysis may only get
// faster by doing the same work, never by losing events.
func (r *report) complete(issued int) error {
	switch {
	case r.traces.Dropped != 0:
		return fmt.Errorf("%d trace events dropped", r.traces.Dropped)
	case r.traces.IncompleteRequests() != 0:
		return fmt.Errorf("%d requests lack a target span", r.traces.IncompleteRequests())
	case r.stats.Incomplete != 0 || r.stats.Extracted != r.stats.Requests:
		return fmt.Errorf("extracted %d of %d paths, %d incomplete", r.stats.Extracted, r.stats.Requests, r.stats.Incomplete)
	case len(r.paths) != issued:
		return fmt.Errorf("extracted %d paths for %d issued root RPCs", len(r.paths), issued)
	}
	return nil
}

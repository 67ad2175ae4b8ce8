package experiments

import (
	"io"
	"time"

	"symbiosys/internal/analysis"
	"symbiosys/internal/core"
)

// OverheadConfig drives the Figure 13 overhead study: the same HEPnOS
// data-loader workload executed at each measurement stage, several
// repetitions each.
type OverheadConfig struct {
	Base HEPnOSConfig // deployment/workload shape (stage is overridden)
	Reps int          // paper: 5
}

// StageTiming is one stage's measured execution times.
type StageTiming struct {
	Stage        core.Stage
	Times        []time.Duration
	Mean         time.Duration
	Min          time.Duration
	Max          time.Duration
	TraceSamples int
}

// OverheadResult is the Figure 13 dataset.
type OverheadResult struct {
	Stages []StageTiming
}

// OverheadVsBaseline returns stage s's mean slowdown relative to the
// baseline mean (1.0 = no overhead).
func (r *OverheadResult) OverheadVsBaseline(s core.Stage) float64 {
	var base, stage time.Duration
	for _, st := range r.Stages {
		if st.Stage == core.StageOff {
			base = st.Mean
		}
		if st.Stage == s {
			stage = st.Mean
		}
	}
	if base == 0 {
		return 0
	}
	return float64(stage) / float64(base)
}

// RunOverheadStudy executes the workload at all four stages.
func RunOverheadStudy(cfg OverheadConfig) (*OverheadResult, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	out := &OverheadResult{}
	for _, stage := range []core.Stage{core.StageOff, core.StageInject, core.StageProfile, core.StageFull} {
		st := StageTiming{Stage: stage}
		for rep := 0; rep < cfg.Reps; rep++ {
			c := cfg.Base
			c.Stage = stage
			res, err := RunHEPnOS(c)
			if err != nil {
				return nil, err
			}
			st.Times = append(st.Times, res.WallTime)
			if res.TraceSamples > st.TraceSamples {
				st.TraceSamples = res.TraceSamples
			}
		}
		for i, t := range st.Times {
			st.Mean += t
			if i == 0 || t < st.Min {
				st.Min = t
			}
			if t > st.Max {
				st.Max = t
			}
		}
		st.Mean /= time.Duration(len(st.Times))
		out.Stages = append(out.Stages, st)
	}
	return out, nil
}

// AnalysisTimings is the Table V dataset: how long each analysis script
// takes on a run's collected performance data.
type AnalysisTimings struct {
	ProfileSummary time.Duration
	TraceSummary   time.Duration
	SystemStats    time.Duration

	Profiles    int
	TraceEvents int
	Requests    int
	SpansBuilt  int
}

// TimeAnalyses runs the three analysis passes over collected dumps and
// measures each (Table V). The trace summary — stitching every request
// into spans — dominates, as in the paper.
func TimeAnalyses(profiles []*core.ProfileDump, traces []*core.TraceDump, sink io.Writer) AnalysisTimings {
	var t AnalysisTimings
	t.Profiles = len(profiles)

	start := time.Now()
	merged := analysis.Merge(profiles)
	merged.RenderSummary(sink, 10)
	t.ProfileSummary = time.Since(start)

	start = time.Now()
	ts := analysis.MergeTraces(traces)
	t.TraceEvents = len(ts.Events)
	ts.ForEachRequest(func(_ uint64, _ []int32, spans []analysis.Span) {
		t.Requests++
		t.SpansBuilt += len(spans)
	})
	t.TraceSummary = time.Since(start)

	start = time.Now()
	stats := analysis.SystemStats(ts, 16)
	analysis.RenderSystemStats(sink, stats)
	t.SystemStats = time.Since(start)
	return t
}

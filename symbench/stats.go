package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 < q ≤ 1) of samples by the
// nearest-rank rule; samples need not be sorted. Zero samples give 0.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// beyond counts the samples strictly above the q-quantile's rank, the
// ones a tail figure at q summarizes.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank > n {
		return 0
	}
	return n - rank
}

// highestTail returns the highest of the candidate quantiles that still
// has at least minBeyond samples beyond it out of n, or 0 when none
// does. A tail percentile resting on fewer samples is a single outlier
// read back, not a percentile.
func highestTail(n, minBeyond int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if q > best && beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// roundQuantile summarizes per-round latency samples at quantile q: the
// median over rounds of each round's q-quantile when every round has at
// least ten samples beyond q, else the q-quantile of all rounds pooled.
// It also returns the pooled sample count.
func roundQuantile(rounds [][]time.Duration, q float64) (time.Duration, int) {
	var pooled []time.Duration
	perRound := len(rounds) > 0
	for _, r := range rounds {
		pooled = append(pooled, r...)
		perRound = perRound && beyond(len(r), q) >= 10
	}
	if !perRound {
		return quantile(pooled, q), len(pooled)
	}
	qs := make([]float64, len(rounds))
	for i, r := range rounds {
		qs[i] = float64(quantile(r, q))
	}
	return time.Duration(median(qs)), len(pooled)
}

// median returns the middle value of xs (mean of the middle two).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validMetric reports whether a metric's name and unit fit the result
// format: names start with a letter or digit and hold at most 64 of
// letters, digits, '_', '.', '-'; units at most 16 of letters, digits,
// '_', '/', '%', '.', '-'.
func validMetric(name, unit string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: invalid unit %q", name, unit)
	}
	return nil
}

// span is one benchmark-side interval around a call into a layer.
// Spans of one client op share Req; Parent links a span to the span
// that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// or disabled recorder records nothing, so untraced runs pay one branch
// per call.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) id() uint64 {
	if r == nil || !r.on {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id
}

// add records a finished span under a reserved ID.
func (r *recorder) add(id, parent uint64, name string, req uint64, start, end time.Time) {
	if r == nil || !r.on {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// time runs fn inside a new span and returns its duration.
func (r *recorder) time(parent uint64, name string, req uint64, fn func()) time.Duration {
	id := r.id()
	start := time.Now()
	fn()
	end := time.Now()
	r.add(id, parent, name, req, start, end)
	return end.Sub(start)
}

// selfTimes fills each span's Self: its duration minus the part of its
// interval covered by its children (overlapping children count once,
// and a child running past its parent counts only inside it).
func selfTimes(spans []span) {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			if j == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		p.Self = p.End - p.Start - covered
	}
}

// spanMeanByName returns the mean duration in ns of the spans with the
// given name (0 when there are none).
func spanMeanByName(spans []span, name string) float64 {
	var sum float64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += float64(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

package main

import (
	"math"
	"sort"
	"time"

	"trustgrid/internal/stats"
)

// topPercentile returns the highest of the reported percentiles that
// still has at least ten samples beyond it in a sample of n — the tail
// a sample of that size can support. Below 100 samples only the median
// qualifies.
func topPercentile(n int) float64 {
	top := 50.0
	for _, beyond := range []int{1000, 100, 10, 1} { // samples beyond p90, p99, p99.9, p99.99 per 10 000
		if n*beyond >= 10*10000 {
			top = 100 - float64(beyond)/100
		}
	}
	return top
}

// timing summarises one latency sample: its size, median, and the tail
// percentile topPercentile allows.
type timing struct {
	n      int
	p50    float64
	p90    float64
	p99    float64
	max    float64
	topP   float64
	topVal float64
}

func summarize(samples []float64) timing {
	if len(samples) == 0 {
		return timing{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{n: len(s), topP: topPercentile(len(s)), max: s[len(s)-1]}
	t.p50 = stats.PercentileOfSorted(s, 50)
	t.p90 = stats.PercentileOfSorted(s, 90)
	t.p99 = stats.PercentileOfSorted(s, 99)
	t.topVal = stats.PercentileOfSorted(s, t.topP)
	return t
}

// batchSizes lists a placements-per-round tally's counts, for the batch
// size percentiles.
func batchSizes(perRound map[float64]int) []float64 {
	sizes := make([]float64, 0, len(perRound))
	for _, n := range perRound {
		sizes = append(sizes, float64(n))
	}
	return sizes
}

// span is one timed interval of the client-side trace. Spans of one
// request (here: one Δ-round) share a trace id; parent is the index of
// the causing span in the recorder, -1 for a root.
type span struct {
	Name   string
	Trace  int
	Parent int
	Start  time.Duration // since the recorder's origin
	End    time.Duration
}

// recorder keeps spans in memory; a nil recorder records nothing, which
// is how the untraced run pays no tracing cost.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, trace, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent, Start: time.Since(r.origin), End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].End = time.Since(r.origin)
}

// selfTimes returns, per span name, total duration and total self time:
// a span's duration minus the part of its interval its children cover
// (overlapping children are counted once).
func selfTimes(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		dur := s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		total[s.Name] += dur
		self[s.Name] += dur - covered
	}
	return total, self
}

// spanDurations lists the durations of every closed span called name, in
// milliseconds.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

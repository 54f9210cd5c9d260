package heuristics

import (
	"fmt"
	"math"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

// MaxMin is the classic companion of Min-Min (Braun et al., the paper's
// ref [7]): each round, among every unscheduled job's earliest completion
// times, dispatch the job whose earliest completion time is *largest*.
// Placing long jobs first avoids the Min-Min pathology of stranding one
// giant job at the end of the schedule.
type MaxMin struct {
	Policy grid.Policy
	run    lazyRun
}

// NewMaxMin builds a Max-Min scheduler under the given risk policy.
func NewMaxMin(p grid.Policy) *MaxMin { return &MaxMin{Policy: p} }

// Name implements sched.Scheduler.
func (m *MaxMin) Name() string { return fmt.Sprintf("Max-Min %s", m.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (m *MaxMin) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	return m.run.lazyBatch(batch, st, m.Policy, pickMaxMin)
}

// KPB (k-percent best) restricts each job to its k% fastest eligible
// sites by raw execution time and picks the earliest completion among
// them (Maheswaran et al.): a compromise between MET's speed greed and
// MCT's availability greed.
type KPB struct {
	Policy grid.Policy
	// Percent is k in (0, 100]. Zero means the classic 20%.
	Percent float64
}

// NewKPB builds a KPB scheduler under the given risk policy.
func NewKPB(p grid.Policy, percent float64) *KPB {
	return &KPB{Policy: p, Percent: percent}
}

// Name implements sched.Scheduler.
func (k *KPB) Name() string {
	return fmt.Sprintf("KPB(%.0f%%) %s", k.percent(), k.Policy.Name())
}

func (k *KPB) percent() float64 {
	if k.Percent <= 0 || k.Percent > 100 {
		return 20
	}
	return k.Percent
}

// Schedule implements sched.Scheduler.
func (k *KPB) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	kern := st.Snapshot(batch)
	ready := append([]float64(nil), kern.Ready...)
	out := make([]sched.Assignment, 0, len(batch))
	frac := k.percent() / 100
	subset := make([]int, kern.M)
	etc := kern.ETC()
	for i, j := range batch {
		elig := kern.Eligible(k.Policy, i)
		sites := elig.Sites()
		row := etc[i*kern.M : (i+1)*kern.M]
		// Keep the ⌈k%⌉ fastest eligible sites by raw execution time.
		keep := int(math.Ceil(frac * float64(len(sites))))
		if keep < 1 {
			keep = 1
		}
		subset = subset[:len(sites)]
		copy(subset, sites)
		// Selection sort of the first `keep` by ETC: subsets are tiny.
		for i := 0; i < keep; i++ {
			best := i
			for p := i + 1; p < len(subset); p++ {
				if row[subset[p]] < row[subset[best]] {
					best = p
				}
			}
			subset[i], subset[best] = subset[best], subset[i]
		}

		bestSite, bestCT := -1, math.Inf(1)
		for _, site := range subset[:keep] {
			start := ready[site]
			if kern.Now > start {
				start = kern.Now
			}
			if ct := start + row[site]; ct < bestCT {
				bestSite, bestCT = site, ct
			}
		}
		ready[bestSite] = bestCT
		out = append(out, sched.Assignment{Job: j, Site: bestSite, FellBack: elig.FellBack})
	}
	return out
}

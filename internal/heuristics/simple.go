package heuristics

import (
	"fmt"
	"math"

	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
)

// MCT (Minimum Completion Time) assigns jobs in arrival order, each to
// the eligible site with the earliest completion time. It is the
// immediate-mode baseline of Maheswaran et al. / Braun et al. An MCT
// value reuses its ready buffer across Schedule calls and is not safe
// for concurrent use.
type MCT struct {
	Policy grid.Policy
	ready  []float64 // the round's site ready times, reused across calls
}

// NewMCT builds an MCT scheduler under the given risk policy.
func NewMCT(p grid.Policy) *MCT { return &MCT{Policy: p} }

// Name implements sched.Scheduler.
func (m *MCT) Name() string { return fmt.Sprintf("MCT %s", m.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (m *MCT) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	k := st.Snapshot(batch)
	m.ready = append(m.ready[:0], k.Ready...)
	ready := m.ready
	etc := k.ETC()
	out := make([]sched.Assignment, 0, len(batch))
	for i, j := range batch {
		elig := k.Eligible(m.Policy, i)
		row := etc[i*k.M : (i+1)*k.M]
		best, bestCT := -1, math.Inf(1)
		for _, site := range elig.Sites() {
			start := ready[site]
			if k.Now > start {
				start = k.Now
			}
			if ct := start + row[site]; ct < bestCT {
				best, bestCT = site, ct
			}
		}
		ready[best] = bestCT
		out = append(out, sched.Assignment{Job: j, Site: best, FellBack: elig.FellBack})
	}
	return out
}

// MET (Minimum Execution Time) assigns each job to the eligible site with
// the smallest raw execution time, ignoring availability — fast but prone
// to overloading the fastest site.
type MET struct {
	Policy grid.Policy
}

// NewMET builds an MET scheduler under the given risk policy.
func NewMET(p grid.Policy) *MET { return &MET{Policy: p} }

// Name implements sched.Scheduler.
func (m *MET) Name() string { return fmt.Sprintf("MET %s", m.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (m *MET) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	k := st.Snapshot(batch)
	etc := k.ETC()
	out := make([]sched.Assignment, 0, len(batch))
	for i, j := range batch {
		elig := k.Eligible(m.Policy, i)
		row := etc[i*k.M : (i+1)*k.M]
		best, bestET := -1, math.Inf(1)
		for _, site := range elig.Sites() {
			if et := row[site]; et < bestET {
				best, bestET = site, et
			}
		}
		out = append(out, sched.Assignment{Job: j, Site: best, FellBack: elig.FellBack})
	}
	return out
}

// OLB (Opportunistic Load Balancing) assigns each job to the eligible
// site that becomes free earliest, ignoring execution times.
type OLB struct {
	Policy grid.Policy
}

// NewOLB builds an OLB scheduler under the given risk policy.
func NewOLB(p grid.Policy) *OLB { return &OLB{Policy: p} }

// Name implements sched.Scheduler.
func (o *OLB) Name() string { return fmt.Sprintf("OLB %s", o.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (o *OLB) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	k := st.Snapshot(batch)
	ready := append([]float64(nil), k.Ready...)
	etc := k.ETC()
	out := make([]sched.Assignment, 0, len(batch))
	for i, j := range batch {
		elig := k.Eligible(o.Policy, i)
		best, bestReady := -1, math.Inf(1)
		for _, site := range elig.Sites() {
			r := ready[site]
			if k.Now > r {
				r = k.Now
			}
			if r < bestReady {
				best, bestReady = site, r
			}
		}
		ready[best] = bestReady + etc[i*k.M+best]
		out = append(out, sched.Assignment{Job: j, Site: best, FellBack: elig.FellBack})
	}
	return out
}

// Random assigns each job to a uniformly random eligible site. It is the
// floor every informed heuristic must beat.
type Random struct {
	Policy grid.Policy
	Rand   *rng.Stream
}

// NewRandom builds a Random scheduler under the given risk policy.
func NewRandom(p grid.Policy, r *rng.Stream) *Random { return &Random{Policy: p, Rand: r} }

// Name implements sched.Scheduler.
func (r *Random) Name() string { return fmt.Sprintf("Random %s", r.Policy.Name()) }

// Schedule implements sched.Scheduler.
func (r *Random) Schedule(batch []*grid.Job, st *sched.State) []sched.Assignment {
	k := st.Snapshot(batch)
	out := make([]sched.Assignment, 0, len(batch))
	for i, j := range batch {
		elig := k.Eligible(r.Policy, i)
		sites := elig.Sites()
		site := sites[r.Rand.Intn(len(sites))]
		out = append(out, sched.Assignment{Job: j, Site: site, FellBack: elig.FellBack})
	}
	return out
}

// Property tests for the columnar snapshot. The external test package
// lets these compare the kernel directly against sched.State, the
// liveness-aware admission oracle the schedulers used before the
// kernel existed.
package kernel_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/heuristics"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
)

// randomInstance draws a random platform, batch and liveness vector.
// Extremes are deliberately over-represented: duplicate security
// levels (ties in the max-SL fallback), impossible demands (fallback
// path), must-be-safe jobs, dead sites including all-but-one and
// all-dead.
func randomInstance(r *rng.Stream) (sites []*grid.Site, batch []*grid.Job, ready []float64, alive []bool) {
	m := 1 + r.Intn(12)
	levels := []float64{0.1, 0.3, 0.5, 0.5, 0.8, 0.95, 1.0}
	sites = make([]*grid.Site, m)
	for k := range sites {
		sites[k] = &grid.Site{
			ID:            k,
			Speed:         1 + r.Float64()*99,
			Nodes:         1,
			SecurityLevel: levels[r.Intn(len(levels))],
		}
	}
	n := 1 + r.Intn(20)
	batch = make([]*grid.Job, n)
	for i := range batch {
		batch[i] = &grid.Job{
			ID:             i,
			Workload:       1 + r.Float64()*1e5,
			Nodes:          1,
			SecurityDemand: r.Float64(), // the whole range, not just [0.6, 0.9]
			MustBeSafe:     r.Bool(0.3),
		}
	}
	ready = make([]float64, m)
	for k := range ready {
		ready[k] = r.Float64() * 1e4
	}
	switch r.Intn(4) {
	case 0: // static grid
		alive = nil
	case 1: // sparse churn
		alive = make([]bool, m)
		for k := range alive {
			alive[k] = r.Bool(0.8)
		}
	case 2: // one survivor
		alive = make([]bool, m)
		alive[r.Intn(m)] = true
	case 3: // total outage (the engine never shows this to a batch, but
		// the API is total and must agree with State's degradation)
		alive = make([]bool, m)
	}
	return sites, batch, ready, alive
}

func policies(r *rng.Stream) []grid.Policy {
	return []grid.Policy{
		grid.SecurePolicy(),
		grid.RiskyPolicy(),
		grid.FRiskyPolicy(r.Float64()),
	}
}

// requireEligibleMatchesState compares the kernel's admission set for
// every (policy, batch job) against State.EligibleSites, which probes
// the exact grid.Policy.Admits site by site: same site set, same order,
// same fellBack flag, and a bitset that agrees with the list.
func requireEligibleMatchesState(t *testing.T, label string, st *sched.State, snap *kernel.Snapshot, ps []grid.Policy, batch []*grid.Job) {
	t.Helper()
	for _, p := range ps {
		for i, j := range batch {
			wantIdx, wantFB := st.EligibleSites(p, j)
			e := snap.Eligible(p, i)
			bits, gotFB := snap.EligibleBitset(p, i)
			if gotFB != wantFB {
				t.Fatalf("%s job %d (sd %v) policy %s f=%v: fellBack %v != %v",
					label, i, j.SecurityDemand, p.Name(), p.F, gotFB, wantFB)
			}
			if !slices.Equal(e.Sites, wantIdx) {
				t.Fatalf("%s job %d (sd %v) policy %s f=%v: site list %v != %v",
					label, i, j.SecurityDemand, p.Name(), p.F, e.Sites, wantIdx)
			}
			for k := range st.Sites {
				has := bits[k>>6]&(1<<(uint(k)&63)) != 0
				if in := slices.Contains(wantIdx, k); has != in || e.Has(k) != in {
					t.Fatalf("%s job %d policy %s: bitset disagrees at site %d",
						label, i, p.Name(), k)
				}
			}
		}
	}
}

// TestEligibleBitsetMatchesState is the property gate of the issue:
// kernel.EligibleBitset(policy, job) must equal State.EligibleSites for
// randomized grids including dead sites and the fallback path — same
// site set, same order, same fellBack flag.
func TestEligibleBitsetMatchesState(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rng.New(777)
		for trial := 0; trial < 500; trial++ {
			sites, batch, ready, alive := randomInstance(r)
			st := &sched.State{Now: r.Float64() * 1e4, Sites: sites, Ready: ready, Alive: alive}
			snap := kernel.Build(st.Now, sites, ready, alive, batch)
			requireEligibleMatchesState(t, fmt.Sprintf("trial %d", trial), st, snap, policies(r), batch)
		}
	})
	t.Run("band", eligibleAtTheBand)
}

// ulps moves a positive float by n units in the last place.
func ulps(x float64, n int64) float64 {
	return math.Float64frombits(uint64(int64(math.Float64bits(x)) + n))
}

// eligibleAtTheBand aims security demands at the one place
// the kernel's compare-only admission could part from the exact
// failure law: for every site level SL, SDs at SL + the analytic cut
// MaxDeficit(f) and at SL + each edge of Policy.DeficitBand, each moved
// 0, ±1, ±2 and ±1024 ulps — the demands an f-risky verdict flips
// between, on both sides of where the kernel hands over to Admits. The
// thresholds include f = 0 and 1 (no band), the other two modes and
// must-be-safe jobs (never banded), on static grids, with dead sites,
// and with demands nothing admits (the max-SL fallback).
func eligibleAtTheBand(t *testing.T) {
	r := rng.New(781)
	ps := []grid.Policy{grid.SecurePolicy(), grid.RiskyPolicy()}
	for _, f := range []float64{0, 0.1, 0.5, 0.9, 1} {
		ps = append(ps, grid.FRiskyPolicy(f))
	}
	for trial := 0; trial < 20; trial++ {
		m := 1 + r.Intn(70) // past one bitset word
		sites := make([]*grid.Site, m)
		for k := range sites {
			sites[k] = &grid.Site{ID: k, Speed: 1 + r.Float64()*99, Nodes: 1, SecurityLevel: r.Uniform(0.05, 1)}
		}
		var batch []*grid.Job
		add := func(sd float64) {
			for _, safe := range []bool{false, true} {
				batch = append(batch, &grid.Job{ID: len(batch), Workload: 1, Nodes: 1, SecurityDemand: sd, MustBeSafe: safe})
			}
		}
		add(10) // no site admits it under any mode but Risky: fallback
		for _, p := range ps {
			lo, hi, ok := p.DeficitBand()
			if ok != (p.Mode == grid.FRisky && p.F > 0 && p.F < 1) {
				t.Fatalf("policy %s f=%v: DeficitBand ok = %v", p.Name(), p.F, ok)
			}
			targets := []float64{p.Model.MaxDeficit(p.F)}
			if ok {
				if !(lo < targets[0] && targets[0] < hi) {
					t.Fatalf("f=%v: cut %v outside its band [%v, %v]", p.F, targets[0], lo, hi)
				}
				targets = append(targets, lo, hi)
			}
			site := sites[r.Intn(m)]
			for _, d := range targets {
				if math.IsInf(d, 0) {
					continue
				}
				for _, n := range []int64{0, 1, -1, 2, -2, 1024, -1024} {
					add(ulps(site.SecurityLevel+d, n))
				}
			}
		}
		ready := make([]float64, m)
		dead := make([]bool, m)
		some := make([]bool, m)
		for k := range some {
			some[k] = r.Bool(0.7)
		}
		for name, alive := range map[string][]bool{"static": nil, "churn": some, "outage": dead} {
			st := &sched.State{Sites: sites, Ready: ready, Alive: alive}
			snap := kernel.Build(0, sites, ready, alive, batch)
			requireEligibleMatchesState(t, fmt.Sprintf("trial %d %s", trial, name), st, snap, ps, batch)
		}
	}
}

// TestSnapshotColumnsMatchState pins the numeric columns: the ETC
// matrix must be grid.ETCMatrix bit-for-bit and CT must equal
// State.CompletionTime for every (job, site).
func TestSnapshotColumnsMatchState(t *testing.T) {
	r := rng.New(778)
	for trial := 0; trial < 200; trial++ {
		sites, batch, ready, alive := randomInstance(r)
		st := &sched.State{Now: r.Float64() * 1e4, Sites: sites, Ready: ready, Alive: alive}
		snap := kernel.Build(st.Now, sites, ready, alive, batch)
		etc := grid.ETCMatrix(batch, sites)
		for i := range etc {
			if snap.ETC[i] != etc[i] {
				t.Fatalf("trial %d: ETC[%d] %v != %v", trial, i, snap.ETC[i], etc[i])
			}
			// Min-Min takes ETCs as this quotient of the two dense columns
			// instead of reading the cell, so the identity is exact.
			if q := snap.Workload[i/snap.M] / snap.Speed[i%snap.M]; snap.ETC[i] != q {
				t.Fatalf("trial %d: ETC[%d] %v != Workload/Speed %v", trial, i, snap.ETC[i], q)
			}
		}
		for i, j := range batch {
			if snap.Workload[i] != j.Workload || snap.SD[i] != j.SecurityDemand ||
				snap.MustBeSafe[i] != j.MustBeSafe {
				t.Fatalf("trial %d: job column %d mismatch", trial, i)
			}
			for k := range sites {
				if got, want := snap.CT(i, k), st.CompletionTime(j, k); got != want {
					t.Fatalf("trial %d: CT(%d,%d) %v != %v", trial, i, k, got, want)
				}
			}
		}
		for k, s := range sites {
			if snap.Speed[k] != s.Speed || snap.SecLevel[k] != s.SecurityLevel ||
				snap.Ready[k] != ready[k] {
				t.Fatalf("trial %d: site column %d mismatch", trial, k)
			}
			if snap.SiteAlive(k) != st.SiteAlive(k) {
				t.Fatalf("trial %d: SiteAlive(%d) disagrees", trial, k)
			}
		}
	}
}

// TestBuilderReuseMatchesFreshBuild drives one Builder through many
// rounds of different shapes and checks every round against a fresh
// one-shot Build — the arenas and cleared caches must never leak state
// across rounds.
func TestBuilderReuseMatchesFreshBuild(t *testing.T) {
	r := rng.New(779)
	var b kernel.Builder
	for round := 0; round < 100; round++ {
		sites, batch, ready, alive := randomInstance(r)
		now := r.Float64() * 1e4
		reused := b.Build(now, sites, ready, alive, batch)
		fresh := kernel.Build(now, sites, ready, alive, batch)
		if reused.N != fresh.N || reused.M != fresh.M || reused.Now != fresh.Now {
			t.Fatalf("round %d: shape mismatch", round)
		}
		for i := range fresh.ETC {
			if reused.ETC[i] != fresh.ETC[i] {
				t.Fatalf("round %d: ETC[%d] differs after reuse", round, i)
			}
		}
		for _, p := range policies(r) {
			for i := range batch {
				a, b := reused.Eligible(p, i), fresh.Eligible(p, i)
				if a.FellBack != b.FellBack || len(a.Sites) != len(b.Sites) {
					t.Fatalf("round %d: eligibility differs after reuse", round)
				}
				for k := range a.Sites {
					if a.Sites[k] != b.Sites[k] {
						t.Fatalf("round %d: eligibility order differs after reuse", round)
					}
				}
			}
		}
		if !reused.ForBatch(batch) {
			t.Fatalf("round %d: ForBatch rejects its own batch", round)
		}
		if len(batch) > 0 && reused.ForBatch(batch[:0]) {
			t.Fatalf("round %d: ForBatch accepts a truncated batch", round)
		}
	}
}

// TestEligibilityClassSharing: jobs with equal (SD, MustBeSafe) must
// share one cached class object — the point of per-class caching.
func TestEligibilityClassSharing(t *testing.T) {
	r := rng.New(780)
	sites, _, ready, _ := randomInstance(r)
	twinA := &grid.Job{ID: 0, Workload: 10, Nodes: 1, SecurityDemand: 0.7}
	twinB := &grid.Job{ID: 1, Workload: 99, Nodes: 1, SecurityDemand: 0.7}
	other := &grid.Job{ID: 2, Workload: 10, Nodes: 1, SecurityDemand: 0.7, MustBeSafe: true}
	snap := kernel.Build(0, sites, ready, nil, []*grid.Job{twinA, twinB, other})
	p := grid.FRiskyPolicy(0.5)
	if snap.Eligible(p, 0) != snap.Eligible(p, 1) {
		t.Fatal("equal (SD, MustBeSafe) jobs must share one eligibility class")
	}
	if snap.Eligible(p, 0) == snap.Eligible(p, 2) {
		t.Fatal("a MustBeSafe job must not share the unrestricted class")
	}
	if math.IsNaN(snap.CT(0, 0)) {
		t.Fatal("CT must be finite")
	}
}

// TestTenantColumn: the snapshot carries each batch job's tenant as a
// per-job column, refreshed correctly across Builder reuse (a stale
// column from a larger previous round must not leak).
func TestTenantColumn(t *testing.T) {
	r := rng.New(912)
	sites, _, ready, _ := randomInstance(r)
	mk := func(n int) []*grid.Job {
		batch := make([]*grid.Job, n)
		for i := range batch {
			batch[i] = &grid.Job{
				ID: i, Workload: 10, Nodes: 1, SecurityDemand: 0.7,
				Tenant: []string{"gold", "silver", ""}[i%3],
			}
		}
		return batch
	}
	var b kernel.Builder
	for _, n := range []int{9, 4, 12} {
		batch := mk(n)
		snap := b.Build(0, sites, ready, nil, batch)
		if len(snap.Tenant) != n {
			t.Fatalf("n=%d: tenant column has %d entries", n, len(snap.Tenant))
		}
		for i, j := range batch {
			if snap.Tenant[i] != j.Tenant {
				t.Fatalf("n=%d: Tenant[%d] = %q, want %q", n, i, snap.Tenant[i], j.Tenant)
			}
		}
	}
}

// wideRound is the scale-axis fixture of the steady-state allocation
// tests: 512 continuous-SD jobs on 1024 idle sites.
func wideRound() (sites []*grid.Site, batch []*grid.Job, ready []float64) {
	r := rng.New(7)
	sites = make([]*grid.Site, 1024)
	for k := range sites {
		sites[k] = &grid.Site{ID: k, Speed: 1 + r.Float64()*99, Nodes: 1, SecurityLevel: r.Float64()}
	}
	batch = make([]*grid.Job, 512)
	for i := range batch {
		batch[i] = &grid.Job{ID: i, Workload: 1 + r.Float64()*1e5, Nodes: 1, SecurityDemand: r.Float64()}
	}
	return sites, batch, make([]float64, len(sites))
}

// TestBuilderSteadyStateAllocs proves the arena contract at the scale
// axis: once a builder has seen one round at m=1024, later rounds of
// the same shape — including the eligibility classes — allocate
// nothing.
func TestBuilderSteadyStateAllocs(t *testing.T) {
	sites, batch, ready := wideRound()
	policy := grid.FRiskyPolicy(0.5)
	var b kernel.Builder
	warm := b.Build(0, sites, ready, nil, batch)
	for i := range batch {
		warm.Eligible(policy, i)
	}
	allocs := testing.AllocsPerRun(3, func() {
		s := b.Build(0, sites, ready, nil, batch)
		for i := range batch {
			s.Eligible(policy, i)
		}
	})
	// The eligibility map is cleared and refilled each round; map buckets
	// are reused by the runtime, so the whole round should be
	// allocation-free in steady state.
	if allocs > 0 {
		t.Fatalf("steady-state round allocates %v times, want 0", allocs)
	}
}

// TestMinMinSteadyStateAllocs extends the arena contract through the
// scheduler the wide rounds run: at the same scale, a warm Min-Min
// round on a Builder-rebuilt snapshot allocates the assignment slice
// it returns and nothing else — no sort swapper, no per-round buckets.
func TestMinMinSteadyStateAllocs(t *testing.T) {
	sites, batch, ready := wideRound()
	mm := heuristics.NewMinMin(grid.FRiskyPolicy(0.5))
	var b kernel.Builder
	st := &sched.State{Sites: sites, Ready: ready}
	round := func() {
		st.Kern = b.Build(0, sites, ready, nil, batch)
		if got := len(mm.Schedule(batch, st)); got != len(batch) {
			t.Fatalf("%d assignments, want %d", got, len(batch))
		}
	}
	round()
	if allocs := testing.AllocsPerRun(3, round); allocs > 1 {
		t.Fatalf("steady-state Min-Min round allocates %v times, want 1 (the returned assignments)", allocs)
	}
}

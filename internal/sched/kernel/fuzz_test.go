package kernel_test

import (
	"math"
	"testing"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
)

// FuzzEligible holds Snapshot.Eligible to State.EligibleSites on
// fuzzed platforms and batches: one site per byte of sls (levels on a
// 1/255 grid, so ties are common), one job per byte pair of sds (a
// level on the same grid, nudged an ulp up or down by the second byte
// — where Secure and must-be-safe verdicts flip), any mode and any f
// (NaN and ±Inf included), must-be-safe flags from the bits of safe,
// and liveness from the bits of alive (nil when empty). The snapshot
// comes from a Builder that first built the same sites in reverse
// level order, so every input also exercises the index rebuild.
func FuzzEligible(f *testing.F) {
	f.Add([]byte{0, 128, 255, 128, 64}, []byte{128, 0, 128, 1, 128, 2, 255, 0, 0, 1}, uint8(0), 0.5, []byte{0x5}, []byte{})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, []byte{50, 0, 95, 1, 200, 2}, uint8(2), 0.5, []byte{0x2}, []byte{0xfe, 0x03})
	f.Add([]byte{1, 1, 1, 1}, []byte{1, 0, 1, 1, 1, 2}, uint8(2), math.NaN(), []byte{0}, []byte{0})
	f.Add(make([]byte, 130), []byte{0, 0, 0, 2}, uint8(1), 1.0, []byte{0x3}, []byte{0x55})
	f.Fuzz(func(t *testing.T, sls, sds []byte, mode uint8, fr float64, safe, alive []byte) {
		m := min(len(sls), 300)
		if m == 0 {
			return
		}
		sites := make([]*grid.Site, m)
		for k := range sites {
			sites[k] = &grid.Site{ID: k, Speed: 1, Nodes: 1, SecurityLevel: float64(255-sls[k]) / 255}
		}
		var live []bool
		if len(alive) > 0 {
			live = make([]bool, m)
			for k := range live {
				live[k] = alive[k/8%len(alive)]>>(k%8)&1 == 1
			}
		}
		batch := make([]*grid.Job, min(len(sds)/2, 64))
		if len(batch) == 0 {
			return
		}
		for i := range batch {
			sd := float64(sds[2*i]) / 255
			switch sds[2*i+1] % 3 {
			case 1:
				sd = math.Nextafter(sd, 2)
			case 2:
				sd = math.Nextafter(sd, -1)
			}
			mbs := len(safe) > 0 && safe[i/8%len(safe)]>>(i%8)&1 == 1
			batch[i] = &grid.Job{ID: i, Workload: 1, Nodes: 1, SecurityDemand: sd, MustBeSafe: mbs}
		}
		p := grid.Policy{Mode: grid.RiskMode(mode % 3), F: fr, Model: grid.NewSecurityModel()}

		ready := make([]float64, m)
		var b kernel.Builder
		b.Build(0, sites, ready, live, batch).Eligible(p, 0)
		for _, s := range sites {
			s.SecurityLevel = float64(sls[s.ID]) / 255
		}
		snap := b.Build(0, sites, ready, live, batch)
		st := &sched.State{Sites: sites, Ready: ready, Alive: live}
		requireEligibleMatchesState(t, "fuzz", st, snap, []grid.Policy{p}, batch)
	})
}

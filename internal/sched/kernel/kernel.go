package kernel

import (
	"math"
	"math/bits"

	"trustgrid/internal/grid"
)

// wordBits is the bitset word width.
const wordBits = 64

// EligSet is one cached admission result: the sites a (policy, security
// demand, must-be-safe) class may use, as both an index list (ascending,
// the iteration order every scheduler shares) and a bitset (O(1)
// membership probes in inner loops).
type EligSet struct {
	// Sites lists the eligible site indices in ascending order. It is
	// shared across every job in the class and across every scheduler in
	// the batch; callers must not mutate it.
	Sites []int
	// Bits is the same set as a bitset, word i>>6 bit i&63.
	Bits []uint64
	// FellBack records that no site satisfied the admission rule and the
	// max-SL fallback produced the single-site set.
	FellBack bool
}

// Has reports whether site i is in the set.
func (e *EligSet) Has(i int) bool {
	return e.Bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the set's cardinality by popcount over the packed words.
func (e *EligSet) Count() int {
	n := 0
	for _, w := range e.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendSites32 appends the set's site indices, ascending, to dst as
// int32 and returns the extended slice. It iterates the packed words
// directly (TrailingZeros per set bit) instead of the Sites list, so
// dense inner loops that want compact indices touch M/64 words rather
// than |Sites| 8-byte entries.
func (e *EligSet) AppendSites32(dst []int32) []int32 {
	for wi, w := range e.Bits {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// eligKey identifies an admission equivalence class within one batch:
// grid.Policy.Admits depends only on the policy parameters, the job's
// security demand and its must-be-safe flag, and the (fixed) site
// levels — so one probe per class replaces one probe per (job, site).
type eligKey struct {
	policy grid.Policy
	sd     float64
	safe   bool
}

// Snapshot is the columnar (struct-of-arrays) view of one scheduling
// round: every quantity the inner loops of the heuristics, the STGA and
// the engine touch, flattened into dense arrays built once per batch.
// The pointer-chasing schedulers previously paid per probe —
// Job/Site dereferences, ETC recomputation, per-(job, site) eligibility
// filtering — is paid once here, at O(n·m), and amortized across every
// scheduler that shares the snapshot (the STGA's heuristic seeding runs
// Min-Min and Sufferage on the same snapshot it evolves on).
//
// A Snapshot is immutable after Build except for the lazily grown
// eligibility cache; it is not safe for concurrent use.
type Snapshot struct {
	// Now is the scheduling instant (State.Now).
	Now float64
	// N and M are the batch job count and the site count.
	N, M int

	// Per-site columns, index = site ID.
	Ready    []float64 // earliest free time (copied from the engine)
	Speed    []float64
	SecLevel []float64
	// Alive is nil on static runs (every site up).
	Alive []bool

	// Per-job columns, index = batch position.
	Jobs       []*grid.Job // original job pointers, for Assignment construction
	Workload   []float64
	SD         []float64
	MustBeSafe []bool
	// Tenant is the owning principal of each batch job ("" on
	// single-tenant runs). The kernel itself never branches on it;
	// per-tenant consumers (accounting hooks, tenancy-aware scheduler
	// extensions) read the column instead of chasing Jobs[i].Tenant.
	Tenant []string

	// ETC is the n×m execution-time matrix, row-major (job-major):
	// ETC[i*M+k] = Workload[i]/Speed[k], exactly grid.ETCMatrix's layout
	// and arithmetic.
	ETC []float64

	// rank holds the per-job upward-rank column (see SetRanks / Ranks).
	// rankSet marks engine-installed DAG ranks; rankValid marks the lazy
	// ETC-row-mean default. Both reset on Build.
	rank      []float64
	rankSet   bool
	rankValid bool

	// sites retains the batch's site pointers for admission probes, so
	// cached classes reproduce grid.Policy.Admits bit-for-bit.
	sites []*grid.Site
	elig  map[eligKey]*EligSet
	// Arenas backing the eligibility cache: admission classes are carved
	// out of shared arrays instead of allocated individually, and a
	// Builder resets them between rounds. When an arena fills mid-build
	// a fresh backing array is started; slices carved earlier keep the
	// old one alive, so cached *EligSet values never dangle.
	sets []EligSet
	bits []uint64
	idx  []int
}

// Builder rebuilds one Snapshot per scheduling round into reused
// storage, so a long-running engine's per-round allocation cost is
// amortized to zero once the arenas have grown to the workload's
// steady-state batch size. The returned *Snapshot is the same object
// every round: it is valid only until the next Build call, which is
// exactly the scheduler contract (schedulers must not retain the
// snapshot or anything carved from it past Schedule; the STGA copies
// what its history table keeps).
type Builder struct {
	snap     Snapshot
	siteCols []float64 // Ready ++ Speed ++ SecLevel
	jobCols  []float64 // Workload ++ SD
	etc      []float64
	alive    []bool
	safe     []bool
	tenants  []string
}

// Build constructs the snapshot for one batch. ready and alive are
// copied (alive may be nil); the job and site pointers are retained but
// never mutated.
func Build(now float64, sites []*grid.Site, ready []float64, alive []bool, batch []*grid.Job) *Snapshot {
	var b Builder
	return b.Build(now, sites, ready, alive, batch)
}

// Build fills the builder's snapshot for one batch and returns it. See
// the type comment for the aliasing contract.
func (b *Builder) Build(now float64, sites []*grid.Site, ready []float64, alive []bool, batch []*grid.Job) *Snapshot {
	n, m := len(batch), len(sites)
	s := &b.snap
	s.Now, s.N, s.M = now, n, m
	s.Jobs, s.sites = batch, sites

	if cap(b.siteCols) < 3*m {
		b.siteCols = make([]float64, 3*m)
	}
	sc := b.siteCols[:3*m]
	s.Ready, s.Speed, s.SecLevel = sc[0:m:m], sc[m:2*m:2*m], sc[2*m:3*m]
	copy(s.Ready, ready)
	for k, site := range sites {
		s.Speed[k] = site.Speed
		s.SecLevel[k] = site.SecurityLevel
	}
	s.Alive = nil
	if alive != nil {
		if cap(b.alive) < m {
			b.alive = make([]bool, m)
		}
		s.Alive = b.alive[:m]
		copy(s.Alive, alive)
	}

	if cap(b.jobCols) < 2*n {
		b.jobCols = make([]float64, 2*n)
	}
	jc := b.jobCols[:2*n]
	s.Workload, s.SD = jc[0:n:n], jc[n:2*n]
	if cap(b.safe) < n {
		b.safe = make([]bool, n)
	}
	s.MustBeSafe = b.safe[:n]
	if cap(b.tenants) < n {
		b.tenants = make([]string, n)
	}
	s.Tenant = b.tenants[:n]
	if cap(b.etc) < n*m {
		b.etc = make([]float64, n*m)
	}
	s.ETC = b.etc[:n*m]
	for i, j := range batch {
		s.Workload[i] = j.Workload
		s.SD[i] = j.SecurityDemand
		s.MustBeSafe[i] = j.MustBeSafe
		s.Tenant[i] = j.Tenant
		row := s.ETC[i*m : (i+1)*m]
		for k, site := range sites {
			row[k] = site.ExecTime(j)
		}
	}

	if s.elig == nil {
		s.elig = make(map[eligKey]*EligSet)
	} else {
		clear(s.elig)
	}
	s.sets = s.sets[:0]
	s.bits = s.bits[:0]
	s.idx = s.idx[:0]
	s.rankSet = false
	s.rankValid = false
	return s
}

// SetRanks installs the engine-computed upward-rank column for a DAG
// batch (rank[i] belongs to batch job i). The values are copied into
// the snapshot's arena; HasDAGRanks turns true, which is the switch
// rank-aware schedulers key on. Valid until the next Build.
func (s *Snapshot) SetRanks(rank []float64) {
	if len(rank) != s.N {
		panic("kernel: rank column length does not match batch size")
	}
	if cap(s.rank) < s.N {
		s.rank = make([]float64, s.N)
	}
	copy(s.rank[:s.N], rank)
	s.rankSet = true
	s.rankValid = true
}

// HasDAGRanks reports whether the engine installed dependency-aware
// ranks for this batch. False on every edge-free round, which is what
// keeps rank-aware schedulers on their historical code paths there.
func (s *Snapshot) HasDAGRanks() bool { return s.rankSet }

// Ranks returns the per-job rank column. When no DAG ranks were
// installed it lazily computes the degenerate upward rank — the mean
// ETC over alive sites, i.e. workload × mean inverse speed — which
// orders independent jobs largest-first exactly as the HEFT rank would
// with no successors. The slice aliases snapshot storage: read-only,
// valid until the next Build.
func (s *Snapshot) Ranks() []float64 {
	if s.rankValid {
		return s.rank[:s.N]
	}
	if cap(s.rank) < s.N {
		s.rank = make([]float64, s.N)
	}
	r := s.rank[:s.N]
	inv, cnt := 0.0, 0
	for k := 0; k < s.M; k++ {
		if s.SiteAlive(k) {
			inv += 1 / s.Speed[k]
			cnt++
		}
	}
	if cnt == 0 {
		// Nothing alive: fall back to the full site set so ranks stay
		// finite and workload-ordered.
		for k := 0; k < s.M; k++ {
			inv += 1 / s.Speed[k]
		}
		if cnt = s.M; cnt == 0 {
			cnt = 1
		}
	}
	meanInv := inv / float64(cnt)
	for i := 0; i < s.N; i++ {
		r[i] = s.Workload[i] * meanInv
	}
	s.rankValid = true
	return r
}

// ForBatch reports whether the snapshot was built for exactly this
// batch slice (schedulers use it to decide between reusing an
// engine-built snapshot and building their own).
func (s *Snapshot) ForBatch(batch []*grid.Job) bool {
	if len(batch) != s.N {
		return false
	}
	return s.N == 0 || (s.Jobs[0] == batch[0] && s.Jobs[s.N-1] == batch[s.N-1])
}

// CT returns max(Now, Ready[site]) + ETC[job, site] — identical to
// sched.State.CompletionTime against the snapshot's ready vector.
func (s *Snapshot) CT(job, site int) float64 {
	start := s.Ready[site]
	if s.Now > start {
		start = s.Now
	}
	return start + s.ETC[job*s.M+site]
}

// SiteAlive reports whether site k is in service.
func (s *Snapshot) SiteAlive(k int) bool { return s.Alive == nil || s.Alive[k] }

// Eligible returns the cached admission set for batch job i under p.
// The first call for a (policy, SD, must-be-safe) class computes it with
// the exact semantics of sched.State.EligibleSites — liveness folded
// into admission, falling back to the max-SL live site (or the global
// max-SL site when nothing is alive) when no site qualifies — and every
// later call in the class is a map hit.
func (s *Snapshot) Eligible(p grid.Policy, i int) *EligSet {
	key := eligKey{policy: p, sd: s.SD[i], safe: s.MustBeSafe[i]}
	if e, ok := s.elig[key]; ok {
		return e
	}
	e := s.computeEligible(p, s.Jobs[i])
	s.elig[key] = e
	return e
}

// computeEligible returns sched.State.EligibleSites' answer (which is
// grid.Policy.EligibleSites' when Alive is nil): Admits' verdict per
// site, dead sites struck, and the same fallback choice — the first
// site achieving the strict maximum SL, scanning ascending. The class's
// bitset and site list are carved from the snapshot's arenas (see
// Builder).
func (s *Snapshot) computeEligible(p grid.Policy, j *grid.Job) *EligSet {
	words := (s.M + wordBits - 1) / wordBits
	if len(s.bits)+words > cap(s.bits) {
		n := 4 * (len(s.bits) + words)
		if n < 256 {
			n = 256
		}
		s.bits = make([]uint64, 0, n)
	}
	set := s.bits[len(s.bits) : len(s.bits)+words : len(s.bits)+words]
	s.bits = s.bits[:len(s.bits)+words]
	if len(s.idx)+s.M > cap(s.idx) {
		n := 4 * (len(s.idx) + s.M)
		if n < 256 {
			n = 256
		}
		s.idx = make([]int, 0, n)
	}
	idx := s.idx[len(s.idx):len(s.idx)]

	// Under f-risky the verdict for all but a sliver of deficits is one
	// subtraction and two compares against the policy's band, taken as
	// values so the scan of the dense SecLevel column stays branch-free;
	// only probes inside the band pay for the exact Admits, so the sets
	// stay Admits' own. A class without a band gets an empty one (no
	// compare with NaN holds) and sends every probe there.
	lo, hi, banded := p.DeficitBand()
	if !banded || j.MustBeSafe {
		lo, hi = math.NaN(), math.NaN()
	}
	sd := j.SecurityDemand
	for wi := range set {
		base := wi * wordBits
		var w uint64
		for b, sl := range s.SecLevel[base:min(base+wordBits, s.M)] {
			d := sd - sl
			var in, out uint64
			if d <= lo {
				in = 1
			}
			if d >= hi {
				out = 1
			}
			if in|out == 0 && p.Admits(j, s.sites[base+b]) {
				in = 1
			}
			w |= in << uint(b)
		}
		set[wi] = w
	}
	bestLive := -1
	if s.Alive != nil {
		bestLevel := -1.0
		for k, up := range s.Alive {
			if !up {
				set[k>>6] &^= 1 << (uint(k) & 63)
			} else if s.SecLevel[k] > bestLevel {
				bestLive, bestLevel = k, s.SecLevel[k]
			}
		}
	}
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			idx = append(idx, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	fellBack := len(idx) == 0
	if fellBack {
		best := bestLive
		if best < 0 {
			_, best = grid.MaxSecurityLevel(s.sites)
		}
		idx = append(idx, best)
		set[best>>6] |= 1 << (uint(best) & 63)
	}
	s.idx = s.idx[:len(s.idx)+len(idx)]
	idx = idx[:len(idx):len(idx)]
	if len(s.sets) == cap(s.sets) {
		n := 2 * len(s.sets)
		if n < 16 {
			n = 16
		}
		// A fresh arena; entries already handed out keep the old backing
		// array alive through their map references.
		s.sets = make([]EligSet, 0, n)
	}
	s.sets = append(s.sets, EligSet{Sites: idx, Bits: set, FellBack: fellBack})
	return &s.sets[len(s.sets)-1]
}

// EligibleBitset returns the admission set for (policy, batch job) as a
// bitset plus the fallback flag. It is the property-test surface: the
// set bits must equal sched.State.EligibleSites for every randomized
// grid, including dead sites and the fallback path.
func (s *Snapshot) EligibleBitset(p grid.Policy, i int) (bits []uint64, fellBack bool) {
	e := s.Eligible(p, i)
	return e.Bits, e.FellBack
}

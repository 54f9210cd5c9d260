package kernel

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"trustgrid/internal/grid"
)

// wordBits is the bitset word width.
const wordBits = 64

// EligSet is one cached admission result: the sites a (policy, security
// demand, must-be-safe) class may use, as a bitset (O(1) membership
// probes in inner loops) and, on request, as an ascending index list
// (the iteration order every scheduler shares).
type EligSet struct {
	// Bits is the set as a bitset, word i>>6 bit i&63.
	Bits []uint64
	// FellBack records that no site satisfied the admission rule and the
	// max-SL fallback produced the single-site set.
	FellBack bool

	snap  *Snapshot
	sites []int // nil until Sites is first called
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

// Sites lists the eligible site indices in ascending order. The list is
// read off the bitset on first call and carved from the snapshot's
// arena; it is shared across every job in the class and every scheduler
// in the batch, so callers must not mutate it, and it is valid until
// the next Build. A set is never empty (the fallback adds one site), so
// a nil list means not yet built.
func (e *EligSet) Sites() []int {
	if e.sites == nil {
		e.sites = e.snap.listSites(e.Bits, e.Count())
	}
	return e.sites
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
// filtering — is paid once here and amortized across every scheduler
// that shares the snapshot (the STGA's heuristic seeding runs Min-Min
// and Sufferage on the same snapshot it evolves on). Build fills only
// the O(n + m) columns; the n×m ETC matrix, the eligibility classes and
// their site lists are built on first use, so a scheduler pays for
// exactly what it reads.
//
// A Snapshot is immutable after Build except for those lazily built
// parts; it is not safe for concurrent use.
//
// Build's precondition: no site's SecurityLevel is NaN (the admission
// index orders the sites by it; grid.ValidateSites enforces it).
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

	// etc backs ETC(); etcValid marks it filled for this round.
	etc      []float64
	etcValid bool

	// rank holds the per-job upward-rank column (see SetRanks / Ranks).
	// rankSet marks engine-installed DAG ranks; rankValid marks the lazy
	// ETC-row-mean default. Both reset on Build.
	rank      []float64
	rankSet   bool
	rankValid bool

	// sites retains the batch's site pointers for admission probes, so
	// cached classes reproduce grid.Policy.Admits bit-for-bit.
	sites []*grid.Site
	// adm orders the sites by SL; it outlives the round (see admIndex).
	adm admIndex
	// live is Alive as a bitset (nil on static runs) and bestLive the
	// fallback site among the live ones (-1 when there is none), both
	// computed once per Build.
	live     []uint64
	bestLive int
	elig     map[eligKey]*EligSet
	// Arenas backing the eligibility cache: admission classes are carved
	// out of shared arrays instead of allocated individually, and a
	// Builder resets them between rounds. When an arena fills mid-build
	// a fresh backing array is started; slices carved earlier keep the
	// old one alive, so cached *EligSet values never dangle.
	sets []EligSet
	bits []uint64
	idx  []int
}

// admIndex is the admission index behind every eligibility class: the
// sites ordered by SL descending (ties by ascending index), their
// levels in that order, and checkpointed prefix bitsets. Every rule
// Admits applies is monotone in SL, so a class is a prefix of this
// order admitted outright, a strip probed with the exact Admits, and a
// refused rest (see bounds). The index belongs to the Builder and is
// rebuilt only when the SecLevel column differs from the one it was
// built for — on reputation feedback — never maintained incrementally.
type admIndex struct {
	// stale marks the index out of date with the SecLevel column. Build
	// sets it when the site count changes or any level differs from the
	// previous round's.
	stale bool
	order []int32   // site indices by rank
	key   []float64 // key[r] = SecLevel[order[r]], non-increasing
	// cps holds checkpoints 1..M/64, ⌈M/64⌉ words each: checkpoint c is
	// the bitset of order[:64c]. Checkpoint 0, the empty set, is implied.
	cps []uint64
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
	siteCols []float64 // Ready ++ Speed ++ SecLevel ++ the index's keys
	jobCols  []float64 // Workload ++ SD
	alive    []bool
	live     []uint64
	safe     []bool
	tenants  []string
}

// Build constructs the snapshot for one batch. ready and alive are
// copied (alive may be nil); the job and site pointers are retained but
// never mutated. The sites' security levels must not be NaN.
func Build(now float64, sites []*grid.Site, ready []float64, alive []bool, batch []*grid.Job) *Snapshot {
	var b Builder
	return b.Build(now, sites, ready, alive, batch)
}

// Build fills the builder's snapshot for one batch and returns it. See
// the type comment for the aliasing contract and the NaN precondition.
func (b *Builder) Build(now float64, sites []*grid.Site, ready []float64, alive []bool, batch []*grid.Job) *Snapshot {
	n, m := len(batch), len(sites)
	s := &b.snap
	s.Now, s.N, s.M = now, n, m
	s.Jobs, s.sites = batch, sites

	if cap(b.siteCols) < 4*m {
		b.siteCols = make([]float64, 4*m)
	}
	sc := b.siteCols[:4*m]
	s.Ready, s.Speed, s.SecLevel = sc[0:m:m], sc[m:2*m:2*m], sc[2*m:3*m:3*m]
	s.adm.key = sc[3*m:]
	// The SecLevel slot still holds the previous round's levels when the
	// site count is unchanged, so comparing in place is the index's
	// staleness test.
	if len(s.adm.order) != m {
		s.adm.stale = true
	}
	copy(s.Ready, ready)
	for k, site := range sites {
		s.Speed[k] = site.Speed
		if s.SecLevel[k] != site.SecurityLevel {
			s.adm.stale = true
			s.SecLevel[k] = site.SecurityLevel
		}
	}
	s.Alive, s.live, s.bestLive = nil, nil, -1
	if alive != nil {
		if cap(b.alive) < m {
			b.alive = make([]bool, m)
		}
		s.Alive = b.alive[:m]
		copy(s.Alive, alive)
		words := (m + wordBits - 1) / wordBits
		if cap(b.live) < words {
			b.live = make([]uint64, words)
		}
		s.live = b.live[:words]
		clear(s.live)
		bestLevel := -1.0
		for k, up := range s.Alive {
			if up {
				s.live[k>>6] |= 1 << (uint(k) & 63)
				if s.SecLevel[k] > bestLevel {
					s.bestLive, bestLevel = k, s.SecLevel[k]
				}
			}
		}
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
	for i, j := range batch {
		s.Workload[i] = j.Workload
		s.SD[i] = j.SecurityDemand
		s.MustBeSafe[i] = j.MustBeSafe
		s.Tenant[i] = j.Tenant
	}

	if s.elig == nil {
		s.elig = make(map[eligKey]*EligSet, n)
	} else {
		clear(s.elig)
	}
	s.sets = s.sets[:0]
	s.bits = s.bits[:0]
	s.idx = s.idx[:0]
	s.etcValid = false
	s.rankSet = false
	s.rankValid = false
	return s
}

// ETC returns the n×m execution-time matrix, row-major (job-major):
// ETC()[i*M+k] = Workload[i]/Speed[k], exactly grid.ETCMatrix's layout
// and arithmetic. It is filled on first call into the Builder's
// storage; read-only, valid until the next Build.
func (s *Snapshot) ETC() []float64 {
	nm := s.N * s.M
	if s.etcValid {
		return s.etc[:nm]
	}
	if cap(s.etc) < nm {
		s.etc = make([]float64, nm)
	}
	etc := s.etc[:nm]
	for i, w := range s.Workload {
		row := etc[i*s.M : (i+1)*s.M]
		for k, speed := range s.Speed {
			row[k] = w / speed
		}
	}
	s.etcValid = true
	return etc
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
	return start + s.ETC()[job*s.M+site]
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
// site achieving the strict maximum SL, scanning ascending. The class
// is the index's prefix for it, the exact Admits over its strip, and
// the liveness mask; its bitset is carved from the snapshot's arena
// (see Builder).
func (s *Snapshot) computeEligible(p grid.Policy, j *grid.Job) *EligSet {
	ix := &s.adm
	if ix.stale {
		ix.rebuild(s.SecLevel)
	}
	words := (s.M + wordBits - 1) / wordBits
	if len(s.bits)+words > cap(s.bits) {
		s.bits = make([]uint64, 0, max(256, 4*(len(s.bits)+words)))
	}
	set := s.bits[len(s.bits) : len(s.bits)+words : len(s.bits)+words]
	s.bits = s.bits[:len(s.bits)+words]

	rIn, rOut := ix.bounds(p, j.SecurityDemand, j.MustBeSafe)
	ix.prefix(set, rIn)
	for _, k := range ix.order[rIn:rOut] {
		if p.Admits(j, s.sites[k]) {
			set[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	var union uint64
	for wi := range set {
		if s.live != nil {
			set[wi] &= s.live[wi]
		}
		union |= set[wi]
	}
	fellBack := union == 0
	if fellBack {
		best := s.bestLive
		if best < 0 {
			_, best = grid.MaxSecurityLevel(s.sites)
		}
		set[best>>6] |= 1 << (uint(best) & 63)
	}
	if len(s.sets) == cap(s.sets) {
		// A fresh arena; entries already handed out keep the old backing
		// array alive through their map references.
		s.sets = make([]EligSet, 0, max(16, s.N, 2*len(s.sets)))
	}
	s.sets = append(s.sets, EligSet{Bits: set, FellBack: fellBack, snap: s})
	return &s.sets[len(s.sets)-1]
}

// listSites reads a class's bitset back as ascending site indices into
// the snapshot's index arena; n is the set's cardinality.
func (s *Snapshot) listSites(set []uint64, n int) []int {
	if len(s.idx)+n > cap(s.idx) {
		s.idx = make([]int, 0, max(256, 4*(len(s.idx)+s.M)))
	}
	idx := s.idx[len(s.idx) : len(s.idx) : len(s.idx)+n]
	for wi, w := range set {
		for ; w != 0; w &= w - 1 {
			idx = append(idx, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	s.idx = s.idx[:len(s.idx)+n]
	return idx
}

// rebuild orders the sites by sl descending, ties by ascending index,
// and lays down the checkpoints.
func (ix *admIndex) rebuild(sl []float64) {
	m := len(sl)
	if cap(ix.order) < m {
		ix.order = make([]int32, m)
	}
	ix.order = ix.order[:m]
	for k := range ix.order {
		ix.order[k] = int32(k)
	}
	slices.SortFunc(ix.order, func(a, b int32) int {
		if c := cmp.Compare(sl[b], sl[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, k := range ix.order {
		ix.key[r] = sl[k]
	}
	words := (m + wordBits - 1) / wordBits
	n := (m / wordBits) * words
	if cap(ix.cps) < n {
		ix.cps = make([]uint64, n)
	}
	ix.cps = ix.cps[:n]
	for c := 0; c < m/wordBits; c++ {
		cp := ix.cps[c*words : (c+1)*words]
		if c == 0 {
			clear(cp)
		} else {
			copy(cp, ix.cps[(c-1)*words:c*words])
		}
		for _, k := range ix.order[c*wordBits : (c+1)*wordBits] {
			cp[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	ix.stale = false
}

// prefix writes the bitset of the first r ranks into dst: the nearest
// checkpoint at or below r, then the remaining ranks one by one.
func (ix *admIndex) prefix(dst []uint64, r int) {
	c := r / wordBits
	if c == 0 {
		clear(dst)
	} else {
		copy(dst, ix.cps[(c-1)*len(dst):c*len(dst)])
	}
	for _, k := range ix.order[c*wordBits : r] {
		dst[k>>6] |= 1 << (uint(k) & 63)
	}
}

// bounds returns a class's ranks as [0, rIn) admitted without a probe,
// [rIn, rOut) probed with the exact Admits, and the rest refused. The
// binary searches evaluate exactly the expressions Admits (and, inside
// DeficitBand's edges, the failure law's threshold) evaluate: SL > SD
// for must-be-safe, SD <= SL for Secure, SD−SL against the band for
// f-risky. IEEE subtraction and comparison are monotone in SL, so each
// verdict flips once along the order and the searches find the flip.
// Risky admits everything; an f-risky policy without a band (f outside
// (0, 1), λ <= 0) probes every site, and so does an unknown mode, whose
// Admits panics as it always has.
func (ix *admIndex) bounds(p grid.Policy, sd float64, safe bool) (rIn, rOut int) {
	key, m := ix.key, len(ix.key)
	switch {
	case safe:
		rIn = sort.Search(m, func(r int) bool { return !(key[r] > sd) })
		return rIn, rIn
	case p.Mode == grid.Secure:
		rIn = sort.Search(m, func(r int) bool { return !(sd <= key[r]) })
		return rIn, rIn
	case p.Mode == grid.Risky:
		return m, m
	}
	lo, hi, banded := p.DeficitBand()
	if !banded {
		return 0, m
	}
	rIn = sort.Search(m, func(r int) bool { return !(sd-key[r] <= lo) })
	return rIn, rIn + sort.Search(m-rIn, func(r int) bool { return sd-key[rIn+r] >= hi })
}

// EligibleBitset returns the admission set for (policy, batch job) as a
// bitset plus the fallback flag. It is the property-test surface: the
// set bits must equal sched.State.EligibleSites for every randomized
// grid, including dead sites and the fallback path.
func (s *Snapshot) EligibleBitset(p grid.Policy, i int) (bits []uint64, fellBack bool) {
	e := s.Eligible(p, i)
	return e.Bits, e.FellBack
}

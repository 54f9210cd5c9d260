package heuristics

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/sched/kernel"
)

// This file holds the candidate data structures that replaced the
// incremental best-two rescans in greedyBatch (PR 9). Both structures
// reproduce the frozen full-recompute oracle in greedy_ref_test.go
// assignment-for-assignment, including every tie:
//
//   - Min-Min uses one sorted candidate bucket per site (bucketRun):
//     the global minimum completion time each round is the minimum
//     over sites of start[s] + headEtc[s], a scan of two dense arrays
//     whose heads refresh lazily: a head assigned elsewhere leaves a
//     lower bound behind, and only a site that still reaches the
//     running minimum pays to find its next candidate. One round
//     costs O(m) instead of rescanning every (job, site) pair whose
//     best two contained the assigned site — the "pile-on" storm
//     that made large-m rounds O(n²·m) whenever jobs agree on the
//     fastest site, which proportional ETC columns guarantee they do.
//     (A site heap would make rounds O(log m), but every assignment
//     invalidates the head of ~every bucket holding the assigned job,
//     so heap churn measures slower than the flat scan up to m=1024.)
//   - Sufferage and Max-Min need per-job best/second values, so they
//     keep per-job lazy min-heaps keyed on completion time (lazyRun),
//     invalidated by per-site version stamps: a job does heap work only
//     when the site holding its best or second-best slot was assigned,
//     and then pays O(log |elig|) instead of an O(m) rescan.
//
// The bucket order invariant: within one site, candidate jobs are kept
// in ascending ETC order. The kernel contract (Snapshot.ETC[i*M+k] =
// Workload[i]/Speed[k], IEEE division) makes every site's column
// monotone in workload — x ≤ y implies x/s ≤ y/s for s > 0 — so one
// global sort of the batch by (workload, batch index) orders every
// bucket at once, and the candidates tied at one completion time form
// a contiguous run from the head (start + x is monotone in x too), even
// where distinct workloads round to the same quotient or distinct
// quotients to the same sum. A bucket is therefore a cursor into that
// one order, filtered by eligibility; nothing is materialised per site.
type bucketRun struct {
	order []int32   // batch indices sorted by (workload, index)
	work  []float64 // Workload in that order
	// member holds one eligibility bitset per position of order (words
	// words each), zeroed when the job is assigned: site s's bucket is
	// the positions whose row has bit s, in order.
	member  []uint64
	words   int
	elig    []*kernel.EligSet
	start   []float64 // per-site max(ready, now), bumped on assignment
	headEtc []float64 // ETC of each site's head candidate (+Inf when empty)
	head    []int32   // per-site position of its first candidate (n when empty)
	tied    []int32   // sites tied at the round's minimum CT
}

// has reports whether the job at position p is a live candidate of
// site s.
func (b *bucketRun) has(p int, s int32) bool {
	return b.member[p*b.words+int(s>>6)]&(1<<(uint(s)&63)) != 0
}

// advance moves site s's head to its next candidate and refreshes the
// cached head ETC (+Inf when the bucket is exhausted). ETCs are taken
// as Workload/Speed, the quotient the kernel contract fixes ETC[i*M+k]
// to bit for bit, so the round reads two dense columns instead of the
// n×m matrix. A head only moves forward, so the total advance cost is
// O(n·m) bit probes.
func (b *bucketRun) advance(k *kernel.Snapshot, s int32) {
	h, n := int(b.head[s]), len(b.work)
	for h < n && !b.has(h, s) {
		h++
	}
	b.head[s] = int32(h)
	if h == n {
		b.headEtc[s] = math.Inf(1)
		return
	}
	b.headEtc[s] = b.work[h] / k.Speed[s]
}

// minminBatch is the bucket-based Min-Min round loop. Each round: scan
// start[s]+headEtc[s] for the global minimum completion time ct*,
// collecting every site tied at ct*; scan the tied sites' head runs
// at ct* for the lowest batch index achieving it; and give that
// job the lowest tied site whose run contains it — exactly the
// oracle's "lowest batch index, then lowest site index" resolution.
func (b *bucketRun) minminBatch(batch []*grid.Job, st *sched.State, policy grid.Policy) []sched.Assignment {
	n := len(batch)
	out := make([]sched.Assignment, 0, n)
	if n == 0 {
		return out
	}
	k := st.Snapshot(batch)
	m := k.M

	b.order = grow(b.order, n)
	b.work = growF64(b.work, n)
	b.start = growF64(b.start, m)
	b.headEtc = growF64(b.headEtc, m)
	b.head = grow(b.head, m)
	if b.elig == nil || cap(b.elig) < n {
		b.elig = make([]*kernel.EligSet, n)
	}
	elig := b.elig[:n]
	w := k.Workload
	ord := b.order[:n]
	for i := range ord {
		ord[i] = int32(i)
		elig[i] = k.Eligible(policy, i)
	}
	slices.SortFunc(ord, func(x, y int32) int {
		if c := cmp.Compare(w[x], w[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	b.words = len(elig[0].Bits)
	if cap(b.member) < n*b.words {
		b.member = make([]uint64, n*b.words)
	}
	b.member = b.member[:n*b.words]
	for p, i := range ord {
		b.work[p] = w[i]
		copy(b.member[p*b.words:], elig[i].Bits)
	}
	for s := int32(0); s < int32(m); s++ {
		b.start[s] = max(k.Ready[s], k.Now)
		b.head[s] = 0
		b.advance(k, s)
	}

	for len(out) < n {
		// One dense scan for the global minimum completion time and
		// every site tied at it.
		ctStar := math.Inf(1)
		b.tied = b.tied[:0]
		for s := 0; s < m; s++ {
			ct := b.start[s] + b.headEtc[s]
			if ct > ctStar {
				continue
			}
			// A head assigned since its last refresh left a lower bound
			// behind (buckets ascend in ETC), so only a site that still
			// reaches the running minimum needs its true head.
			b.advance(k, int32(s))
			if ct = b.start[s] + b.headEtc[s]; ct > ctStar {
				continue
			}
			if ct < ctStar {
				ctStar = ct
				b.tied = b.tied[:0]
			}
			b.tied = append(b.tied, int32(s))
		}
		// Lowest batch index among the tied sites' head runs at ct*.
		// Completion times are monotone in workload, so a run ends at the
		// first position that misses ct*, candidate or not. The run is
		// told by its CT, not its ETC: unequal quotients can round to one
		// sum, and the oracle ties on the sum.
		win, winPos := int32(math.MaxInt32), 0
		for _, s := range b.tied {
			speed, start := k.Speed[s], b.start[s]
			for p := int(b.head[s]); p < n && start+b.work[p]/speed == ctStar; p++ {
				if j := ord[p]; j < win && b.has(p, s) {
					win, winPos = j, p
				}
			}
		}
		// Lowest tied site whose run contains the winner = the winner's
		// own best site under the ascending strict-< scan.
		site := int32(-1)
		for _, s := range b.tied {
			if b.has(winPos, s) && b.start[s]+b.work[winPos]/k.Speed[s] == ctStar {
				site = s
				break
			}
		}
		out = append(out, sched.Assignment{Job: batch[win], Site: int(site), FellBack: elig[win].FellBack})
		clear(b.member[winPos*b.words : (winPos+1)*b.words])
		// ct* = start + etc ≥ now, so the dispatched site's new start is
		// exactly ct*.
		b.start[site] = ctStar
	}
	return out
}

// jobEnt is one candidate site in a job's lazy heap: the completion
// time it was computed at, and the site's version stamp at that time.
// An entry is current exactly when its stamp matches the site's
// version; completion times only increase, so stale keys under-estimate
// and pop-until-valid yields the true minimum.
type jobEnt struct {
	ct   float64
	site int32
	ver  uint32
}

func entLess(a, b jobEnt) bool {
	return a.ct < b.ct || (a.ct == b.ct && a.site < b.site)
}

// lazyRun is the per-job candidate-heap state shared by Sufferage and
// Max-Min: bestCT/secondCT mirror the old greedyRun columns (the pick
// functions are unchanged), but a refresh costs O(log |elig|) heap work
// and happens only for jobs whose stamped best or second site was
// assigned since their last refresh.
type lazyRun struct {
	ready    []float64
	start    []float64 // max(ready, now) per site — the ct base
	elig     []*kernel.EligSet
	ent      []jobEnt // concatenated per-job heaps
	off      []int32  // n+1 offsets into ent
	siteVer  []uint32
	bestSite []int32
	bestCT   []float64
	secondCT []float64
	secSite  []int32
	bestVer  []uint32
	secVer   []uint32
	remain   []int
}

// ct is the completion time of job i on site under the current loads.
// The max(ready, now) base is maintained in g.start — it changes only
// when a site takes an assignment, while ct runs on every heap re-key,
// so hoisting the comparison out pays for itself during the O(Σ|elig|)
// initial build.
func (g *lazyRun) ct(k *kernel.Snapshot, i int, site int32) float64 {
	return g.start[site] + k.ETC[i*k.M+int(site)]
}

// refresh re-derives job i's best and second-best completion times from
// its heap: validate the top (re-keying stale entries in place), read
// the best, swap-pop it to expose and validate the runner-up, then sift
// the best back in. Stamps record the site versions the values were
// computed under.
func (g *lazyRun) refresh(k *kernel.Snapshot, i int) {
	h := g.ent[g.off[i]:g.off[i+1]]
	for {
		e := h[0]
		if g.siteVer[e.site] == e.ver {
			break
		}
		h[0].ct = g.ct(k, i, e.site)
		h[0].ver = g.siteVer[e.site]
		siftDown(h, 0)
	}
	best := h[0]
	g.bestSite[i], g.bestCT[i] = best.site, best.ct
	g.bestVer[i] = best.ver
	if len(h) == 1 {
		g.secondCT[i] = math.Inf(1)
		g.secSite[i] = -1
		return
	}
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	sub := h[:last]
	siftDown(sub, 0)
	for {
		e := sub[0]
		if g.siteVer[e.site] == e.ver {
			break
		}
		sub[0].ct = g.ct(k, i, e.site)
		sub[0].ver = g.siteVer[e.site]
		siftDown(sub, 0)
	}
	g.secondCT[i] = sub[0].ct
	g.secSite[i] = sub[0].site
	g.secVer[i] = sub[0].ver
	siftUp(h, last)
}

func siftDown(h []jobEnt, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && entLess(h[l], h[s]) {
			s = l
		}
		if r < n && entLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

func siftUp(h []jobEnt, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// picker selects which position in remaining wins the current round.
// Every picker is a single pass with a strict comparison, so the
// deterministic tie rule is shared: among equal-valued candidates the
// earliest position in remaining wins, and remaining preserves batch
// submission order, so ties always resolve to the lowest batch index.
type picker func(bestCT, secondCT []float64, remaining []int) int

// pickSufferage chooses the position whose job has the maximum sufferage
// value (second-best CT minus best CT). Jobs with a single eligible site
// have infinite sufferage and are placed first, as in the original
// heuristic. Tie rule: strict > keeps the first (lowest batch index) of
// any equal-valued run, including among the +Inf singletons.
func pickSufferage(bestCT, secondCT []float64, remaining []int) int {
	best := 0
	bestVal := secondCT[remaining[0]] - bestCT[remaining[0]]
	for p := 1; p < len(remaining); p++ {
		i := remaining[p]
		if v := secondCT[i] - bestCT[i]; v > bestVal {
			best, bestVal = p, v
		}
	}
	return best
}

// pickMaxMin chooses the position whose job has the maximum earliest
// completion time. Tie rule: strict > keeps the first (lowest batch
// index) of any equal-valued run.
func pickMaxMin(bestCT, _ []float64, remaining []int) int {
	best := 0
	bestVal := bestCT[remaining[0]]
	for p := 1; p < len(remaining); p++ {
		if v := bestCT[remaining[p]]; v > bestVal {
			best, bestVal = p, v
		}
	}
	return best
}

// lazyBatch runs the shared Sufferage/Max-Min loop: build the per-job
// heaps once (O(Σ|elig|)), then each round refresh only the jobs whose
// stamped best or second site changed version, pick, assign, and bump
// the assigned site's version. Values — and therefore schedules — are
// bit-identical to the full-recompute oracle.
func (g *lazyRun) lazyBatch(batch []*grid.Job, st *sched.State, policy grid.Policy, pick picker) []sched.Assignment {
	n := len(batch)
	out := make([]sched.Assignment, 0, n)
	if n == 0 {
		return out
	}
	k := st.Snapshot(batch)
	m := k.M

	g.ready = growF64(g.ready, m)
	copy(g.ready, k.Ready)
	g.start = growF64(g.start, m)
	for s := 0; s < m; s++ {
		st := g.ready[s]
		if k.Now > st {
			st = k.Now
		}
		g.start[s] = st
	}
	g.siteVer = growU32(g.siteVer, m)
	for s := range g.siteVer[:m] {
		g.siteVer[s] = 0
	}
	if g.elig == nil || cap(g.elig) < n {
		g.elig = make([]*kernel.EligSet, n)
	}
	elig := g.elig[:n]
	g.off = grow(g.off, n+1)
	g.bestSite = grow(g.bestSite, n)
	g.secSite = grow(g.secSite, n)
	g.bestCT = growF64(g.bestCT, n)
	g.secondCT = growF64(g.secondCT, n)
	g.bestVer = growU32(g.bestVer, n)
	g.secVer = growU32(g.secVer, n)
	total := 0
	g.off[0] = 0
	for i := 0; i < n; i++ {
		e := k.Eligible(policy, i)
		elig[i] = e
		total += len(e.Sites)
		g.off[i+1] = int32(total)
	}
	if cap(g.ent) < total {
		g.ent = make([]jobEnt, total)
	}
	g.ent = g.ent[:total]
	for i := 0; i < n; i++ {
		h := g.ent[g.off[i]:g.off[i+1]]
		p := 0
		for wi, word := range elig[i].Bits {
			base := int32(wi << 6)
			for word != 0 {
				s := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				h[p] = jobEnt{ct: g.ct(k, i, s), site: s, ver: 0}
				p++
			}
		}
		for j := len(h)/2 - 1; j >= 0; j-- {
			siftDown(h, j)
		}
		g.refresh(k, i)
	}

	if cap(g.remain) < n {
		g.remain = make([]int, n)
	}
	remaining := g.remain[:n]
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		for _, i := range remaining {
			if g.siteVer[g.bestSite[i]] != g.bestVer[i] ||
				(g.secSite[i] >= 0 && g.siteVer[g.secSite[i]] != g.secVer[i]) {
				g.refresh(k, i)
			}
		}
		pos := pick(g.bestCT, g.secondCT, remaining)
		win := remaining[pos]
		site := g.bestSite[win]
		out = append(out, sched.Assignment{Job: batch[win], Site: int(site), FellBack: elig[win].FellBack})
		g.ready[site] = g.bestCT[win]
		if st := g.bestCT[win]; st >= k.Now {
			g.start[site] = st
		} else {
			g.start[site] = k.Now
		}
		g.siteVer[site]++
		remaining = append(remaining[:pos], remaining[pos+1:]...)
	}
	return out
}

func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

package stga

import (
	"math"
	"slices"
)

// proveBudget caps the search nodes one proof attempt visits. A proof
// that needs more gives up, which costs placements nothing: the round
// runs its generations as it would have. DESIGN.md §2.4 tables the
// budgets measured on the NAS trace.
const proveBudget = 256

// prover certifies a round's best span: a depth-first branch and bound
// over the round's allowed sets that either shows no legal chromosome
// scores strictly below a given best, or gives up. Jobs are placed in
// index order, so every partial site load is a prefix of the decodes'
// own per-site sum, and every bound is built from their own additions,
// base[s] + (load[s] + etc[j·m+s]). With every allowed ETC > 0 and
// rounding monotone, a job's final site load is at least that sum, so
// each bound is a float-exact lower bound on both decodes' scores, and
// the root's bound is the span floor. It proves only rounds spanFloor
// accepts. Its scratch is reused across rounds.
type prover struct {
	m         int
	allowed   [][]int
	base, etc []float64
	load      []float64 // per-site loads of the jobs placed so far
	best      float64
	nodes     int
	budget    int // nodes per attempt: 0 means proveBudget; tests set others
	// provedTo is the largest best proved this round and failedFrom the
	// smallest one not proved. A smaller best searches a subset of a
	// larger best's tree in the same order, so a proof covers every best
	// below it and a failure every best above it.
	provedTo, failedFrom float64
}

// reset readies p for a round and returns the round's span floor. ok
// is false when spanFloor gives the round no floor; p then proves
// nothing until the next reset.
func (p *prover) reset(m int, allowed [][]int, base, etc []float64) (floor float64, ok bool) {
	p.allowed = nil
	if p.budget == 0 {
		p.budget = proveBudget
	}
	p.provedTo, p.failedFrom = math.NaN(), math.NaN() // no answer yet: every comparison fails
	if floor, ok = spanFloor(m, allowed, base, etc); !ok {
		return 0, false
	}
	p.m, p.allowed, p.base, p.etc = m, allowed, base, etc
	if cap(p.load) < m {
		p.load = make([]float64, m)
	}
	p.load = p.load[:m]
	return floor, true
}

// prove reports true only when no legal chromosome scores strictly
// below best (ga.Problem.Prove). It gives up, returning false, when a
// legal chromosome does, or after the budget's nodes.
func (p *prover) prove(best float64) bool {
	switch {
	case p.allowed == nil || math.IsNaN(best):
		return false
	case best <= p.provedTo:
		return true
	case best >= p.failedFrom:
		return false
	}
	clear(p.load)
	p.best, p.nodes = best, 0
	ok := p.search(0, 0)
	if ok {
		p.provedTo = best
	} else {
		p.failedFrom = best
	}
	return ok
}

// search covers every completion of jobs j.. given the loads of jobs
// 0..j-1, whose running span (started at 0, as the decodes start it) is
// span < best. It returns false when a completion scores below best or
// the budget runs out.
func (p *prover) search(j int, span float64) bool {
	n, m := len(p.allowed), p.m
	if j == n {
		return false // every placement on the path kept the span below best
	}
	if p.nodes++; p.nodes > p.budget {
		return false
	}
	// Bound: every later job ends on some allowed site, no earlier than
	// its cheapest completion given the loads so far. Job j's own
	// completions are the children below.
	for k := j + 1; k < n; k++ {
		row := p.etc[k*m : (k+1)*m]
		cheapest := math.Inf(1)
		for _, s := range p.allowed[k] {
			cheapest = min(cheapest, p.base[s]+(p.load[s]+row[s]))
		}
		if cheapest >= p.best {
			return true
		}
	}
	row := p.etc[j*m : (j+1)*m]
	for _, s := range p.allowed[j] {
		prev := p.load[s]
		l := prev + row[s]
		f := max(span, p.base[s]+l)
		if f >= p.best {
			continue
		}
		p.load[s] = l
		ok := p.search(j+1, f)
		p.load[s] = prev
		if !ok {
			return false
		}
	}
	return true
}

// score returns c's span through the decodes' arithmetic, and whether
// every gene is legal (the GA would repair an illegal one).
func (p *prover) score(c []int) (float64, bool) {
	clear(p.load)
	span := 0.0
	for j, s := range c {
		if !slices.Contains(p.allowed[j], s) {
			return 0, false
		}
		p.load[s] += p.etc[j*p.m+s]
		span = max(span, p.base[s]+p.load[s])
	}
	return span, true
}

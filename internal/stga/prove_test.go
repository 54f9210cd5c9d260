package stga

import (
	"math"
	"reflect"
	"testing"

	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/trace"
)

// scoreAll scores pop through the round's scorer (decode4 where the CPU
// has it and m ≤ 12, else the scalar decode).
func scoreAll(m int, base, etc []float64, pop []ga.Chromosome) []float64 {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	fit := make([]float64, len(pop))
	var d decoder
	d.scorers(m, base, etc)().Score(pop, idx, fit)
	return fit
}

// allLegal enumerates every legal chromosome of a round.
func allLegal(allowed [][]int) []ga.Chromosome {
	n := len(allowed)
	var pop []ga.Chromosome
	c := make(ga.Chromosome, n)
	pick := make([]int, n) // odometer over the allowed sets
	for {
		for j := range c {
			c[j] = allowed[j][pick[j]]
		}
		pop = append(pop, c.Clone())
		j := 0
		for ; j < n; j++ {
			if pick[j]++; pick[j] < len(allowed[j]) {
				break
			}
			pick[j] = 0
		}
		if j == n {
			return pop
		}
	}
}

// proveOnce asks a freshly reset prover (budget 0 keeps proveBudget)
// whether nothing scores below best.
func proveOnce(m int, allowed [][]int, base, etc []float64, budget int, best float64) bool {
	p := prover{budget: budget}
	if _, ok := p.reset(m, allowed, base, etc); !ok {
		return false
	}
	return p.prove(best)
}

// TestProveBruteForce enumerates every legal schedule of tiny rounds
// (n ≤ 6 jobs, m ≤ 4 sites), through either decode, and holds the
// prover to its contract: no proof for a best some schedule scores
// below, at the default budget or a large one, and with a budget large
// enough for the whole tree, a proof of the optimum itself, and of
// anything below it. Half the rounds use small integer ETCs and bases,
// so several schedules tie at the optimum. The prover's own score of a
// schedule is the decodes' bit for bit.
func TestProveBruteForce(t *testing.T) {
	var rounds, ties int
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		m, n := 1+r.Intn(4), 1+r.Intn(6)
		base, etc, allowed := floorRound(r, m, n)
		if seed%2 == 0 {
			for i := range etc {
				etc[i] = float64(1 + r.Intn(4))
			}
			for i := range base {
				base[i] = float64(r.Intn(3))
			}
		}
		var p prover
		if _, ok := p.reset(m, allowed, base, etc); !ok {
			continue
		}
		pop := allLegal(allowed)
		forEachDecodePath(t, func(t *testing.T) {
			fit := scoreAll(m, base, etc, pop)
			opt, atOpt := math.Inf(1), 0
			for i, c := range pop {
				if s, legal := p.score(c); !legal || s != fit[i] {
					t.Fatalf("seed %d: prover scores %v as %v (legal %v), the decode %v", seed, c, s, legal, fit[i])
				}
				switch {
				case fit[i] < opt:
					opt, atOpt = fit[i], 1
				case fit[i] == opt:
					atOpt++
				}
			}
			bests := []float64{opt, math.Nextafter(opt, math.Inf(1)), math.Nextafter(opt, math.Inf(-1)), math.Inf(1)}
			for i := 0; i < len(pop); i += 1 + len(pop)/8 {
				bests = append(bests, fit[i])
			}
			for _, b := range bests {
				if proveOnce(m, allowed, base, etc, 0, b) && b > opt {
					t.Fatalf("seed %d (m=%d n=%d): proved %v, but a schedule scores %v", seed, m, n, b, opt)
				}
				if got := proveOnce(m, allowed, base, etc, 1<<20, b); got != (b <= opt) {
					t.Fatalf("seed %d (m=%d n=%d): with the whole tree in budget, prove(%v) = %v, optimum %v", seed, m, n, b, got, opt)
				}
			}
			if !useDecodeKernel {
				rounds++
				if atOpt > 1 {
					ties++
				}
			}
		})
	}
	if rounds == 0 || ties == 0 {
		t.Fatalf("%d rounds, %d with ties at the optimum: a case went unexercised", rounds, ties)
	}
}

// TestProveMemo: one prover asked a sequence of bests in a round
// answers each as a fresh prover would.
func TestProveMemo(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := rng.New(seed)
		m, n := 1+r.Intn(6), 1+r.Intn(10)
		base, etc, allowed := floorRound(r, m, n)
		var p prover
		if _, ok := p.reset(m, allowed, base, etc); !ok {
			continue
		}
		pop := make([]ga.Chromosome, 12)
		for i := range pop {
			pop[i] = make(ga.Chromosome, n)
			for j, a := range allowed {
				pop[i][j] = a[r.Intn(len(a))]
			}
		}
		for i, b := range scoreAll(m, base, etc, pop) {
			if got, want := p.prove(b), proveOnce(m, allowed, base, etc, 0, b); got != want {
				t.Fatalf("seed %d, query %d: memoised prove(%v) = %v, fresh %v", seed, i, b, got, want)
			}
		}
	}
}

// FuzzProve holds the prover to its contract on fuzzed rounds of 1–16
// sites and 1–48 jobs: a best it proves is undercut by no legal
// chromosome found by enumeration (when the round has at most 4096),
// by random sampling, or by a descent of single-gene moves from the
// best sample; candidates are scored through either decode. A non-zero
// mode plants one input outside spanFloor's domain (a zero, negative,
// NaN or infinite allowed ETC, or a non-finite base), which must leave
// the round with no proof at all.
func FuzzProve(f *testing.F) {
	for i, c := range []struct{ m, n uint8 }{{12, 21}, {1, 1}, {3, 40}, {16, 8}, {12, 1}, {5, 5}, {2, 12}, {4, 6}} {
		f.Add(uint64(i+1), c.m-1, c.n-1, uint8(0))
	}
	for mode := range badFloorInputs {
		f.Add(uint64(100+mode), uint8(11), uint8(20), uint8(mode+1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, nRaw, modeRaw uint8) {
		m, n := 1+int(mRaw)%16, 1+int(nRaw)%48
		mode := int(modeRaw) % (len(badFloorInputs) + 1)
		r := rng.New(seed)
		base, etc, allowed := floorRound(r, m, n)
		if r.Intn(2) == 0 { // small integers: ties and exact optima
			for i := range etc {
				etc[i] = float64(1 + r.Intn(3))
			}
			for i := range base {
				base[i] = float64(r.Intn(2))
			}
		}
		if mode > 0 {
			bad := badFloorInputs[mode-1]
			if bad.inBase {
				base[r.Intn(m)] = bad.v
			} else {
				j := r.Intn(n)
				etc[j*m+allowed[j][r.Intn(len(allowed[j]))]] = bad.v
			}
			for _, b := range []float64{0, 1, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
				if proveOnce(m, allowed, base, etc, 1<<20, b) {
					t.Fatalf("seed=%d m=%d n=%d: planted %v (base: %v) yet proved %v", seed, m, n, bad.v, bad.inBase, b)
				}
			}
			return
		}
		var pop []ga.Chromosome
		size := 1.0
		for _, a := range allowed {
			size *= float64(len(a))
		}
		if size <= 4096 {
			pop = allLegal(allowed)
		}
		for range 16 {
			c := make(ga.Chromosome, n)
			for j, a := range allowed {
				c[j] = a[r.Intn(len(a))]
			}
			pop = append(pop, c)
		}
		defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
		for _, on := range decodePaths() {
			useDecodeKernel = on
			fit := scoreAll(m, base, etc, pop)
			lowest, at := math.Inf(1), 0
			for i, f := range fit {
				if f < lowest {
					lowest, at = f, i
				}
			}
			// Descend by single-gene moves from the best candidate.
			c := pop[at].Clone()
			for improved := true; improved; {
				improved = false
				for j, a := range allowed {
					for _, s := range a {
						old := c[j]
						c[j] = s
						if f := scoreAll(m, base, etc, []ga.Chromosome{c})[0]; f < lowest {
							lowest, improved = f, true
						} else {
							c[j] = old
						}
					}
				}
			}
			for i, b := range fit {
				if i%4 != 0 && b != lowest {
					continue
				}
				if proveOnce(m, allowed, base, etc, 0, b) && b > lowest {
					t.Fatalf("seed=%d m=%d n=%d (%s decode): proved %v, but a schedule scores %v", seed, m, n, DecodeKernel(), b, lowest)
				}
			}
		}
	})
}

// TestProofKeepsPlacements: a golden-scale NAS simulation under the
// stall rule places every job exactly as the same run with the prover
// disabled (budget −1: no attempt gets past the root), while proofs end
// some of its rounds and cut the generations it runs. Disabled, the
// run builds every seed, as the scheduler did before the prover. At
// Stall 0 the prover changes nothing, down to the GA work counted.
func TestProofKeepsPlacements(t *testing.T) {
	r := rng.New(11)
	sites, err := grid.NASPlatform().Generate(r.Derive("sites"))
	if err != nil {
		t.Fatal(err)
	}
	tc := trace.DefaultNASConfig()
	tc.Jobs, tc.Span, tc.LoadFactor = 400, 2*24*3600, 1.15
	jobs, err := tc.Generate(r.Derive("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget, stall int) (*sched.Result, sched.GAWork) {
		cfg := DefaultConfig()
		cfg.GA.PopulationSize, cfg.GA.Generations, cfg.GA.Stall = 40, 40, stall
		sc := New(cfg, rng.New(77))
		sc.prover.budget = budget
		sc.Train(grid.CloneAll(jobs[:60]), sites, 20)
		res, err := sched.Run(sched.RunConfig{
			Jobs: grid.CloneAll(jobs[60:]), Sites: sites, Scheduler: sc,
			BatchInterval: 3600, Rand: rng.New(5),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sc.GAWork()
	}
	want, off := run(-1, 10)
	got, on := run(0, 10)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("proofs changed the job records")
	}
	if off.ProvedStops != 0 || on.ProvedStops == 0 || on.Generations >= off.Generations {
		t.Fatalf("proved stops %d (disabled: %d), generations %d (disabled: %d)",
			on.ProvedStops, off.ProvedStops, on.Generations, off.Generations)
	}
	if on.HistoryHits != off.HistoryHits || on.HistoryMisses != off.HistoryMisses {
		t.Fatalf("history hits/misses %d/%d, disabled %d/%d", on.HistoryHits, on.HistoryMisses, off.HistoryHits, off.HistoryMisses)
	}
	want, off = run(-1, 0)
	got, on = run(0, 0)
	if !reflect.DeepEqual(got.Records, want.Records) || !reflect.DeepEqual(on, off) {
		t.Fatal("at Stall 0 the prover changed the run")
	}
}

package stga

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"trustgrid/internal/cpu"
	"trustgrid/internal/ga"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/trace"
)

// decodePaths lists the decode paths this CPU can run: the portable
// decode always, the 4-way kernel where cpu.HasAVX2.
func decodePaths() []bool {
	if cpu.HasAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// forEachDecodePath runs f once per decode path, named after
// DecodeKernel, and restores the start-up choice afterwards.
func forEachDecodePath(t *testing.T, f func(t *testing.T)) {
	defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
	for _, on := range decodePaths() {
		useDecodeKernel = on
		t.Run(DecodeKernel(), f)
	}
}

// decodeSpecials are the edge values the fuzz inputs mix in: both
// zeros, the smallest subnormal and the largest finite double.
var decodeSpecials = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}

// outOfGate are the values that put a round outside the kernel's gate,
// indexed by the fuzz input's mode-1: ETC values first, then base values.
var outOfGate = []struct {
	v      float64
	inBase bool
}{
	{math.NaN(), false}, {-1, false}, {math.Copysign(math.SmallestNonzeroFloat64, -1), false},
	{math.Inf(1), false}, {math.Inf(-1), false},
	{math.NaN(), true}, {math.Inf(1), true}, {math.Inf(-1), true},
}

// unscored marks fit elements a scorer must not write.
var unscored = math.Float64frombits(0x7ff8_0000_dead_beef)

// checkDecodeBatch draws an m-site, n-gene round from seed (ETCs and
// base with the specials mixed in, and one out-of-gate value when mode
// is non-zero), scores dirty distinct indices of a 12-chromosome
// population through the round's scorer, and holds the result to the
// scalar decode bit for bit, with every other fit element untouched.
// It also holds the gate to its domain: the kernel runs exactly when
// the CPU has it and the inputs are in range. It returns "" or what
// differed.
func checkDecodeBatch(seed uint64, m, n, dirty, mode int) string {
	r := rng.New(seed)
	// Magnitudes and the rate of specials vary per case. A base scale
	// far above the ETC scale makes an unassigned site's base the
	// largest candidate, which only the load > 0 mask excludes; a
	// frequent MaxFloat64 would make every span overflow alike.
	etcScale, baseScale := math.Ldexp(1, r.Intn(40)-10), math.Ldexp(1, r.Intn(40)-10)
	specialEvery := []int{0, 32, 4}[r.Intn(3)]
	draw := func(scale float64) float64 {
		if specialEvery > 0 && r.Intn(specialEvery) == 0 {
			return decodeSpecials[r.Intn(len(decodeSpecials))]
		}
		return r.Float64() * scale
	}
	etc := make([]float64, n*m)
	for i := range etc {
		etc[i] = draw(etcScale)
	}
	base := make([]float64, m)
	for i := range base {
		base[i] = draw(baseScale)
		if r.Intn(4) == 0 {
			base[i] = -base[i]
		}
	}
	inGate := mode == 0
	if !inGate {
		bad := outOfGate[(mode-1)%len(outOfGate)]
		if bad.inBase {
			base[r.Intn(m)] = bad.v
		} else {
			etc[r.Intn(len(etc))] = bad.v
		}
	}
	pop := make([]ga.Chromosome, 12)
	for i := range pop {
		pop[i] = make(ga.Chromosome, n)
		for g := range pop[i] {
			pop[i][g] = r.Intn(m)
		}
	}
	idx := r.Perm(len(pop))[:dirty]

	var d decoder
	fit := fillUnscored(len(pop))
	d.scorers(m, base, etc, 0)().Score(pop, idx, fit)
	if want := useDecodeKernel && inGate; (d.kernelRounds == 1) != want {
		return fmt.Sprintf("kernel ran %d rounds, want the kernel: %v", d.kernelRounds, want)
	}
	scalar := makespanFitness(m, base, etc, 0)
	scored := make([]bool, len(pop))
	for _, i := range idx {
		scored[i] = true
		if got, want := fit[i], scalar(pop[i]); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("chromosome %d scored %v (%#x), scalar decode %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, f := range fit {
		if !scored[i] && math.Float64bits(f) != math.Float64bits(unscored) {
			return fmt.Sprintf("scorer wrote fit[%d], outside its batch", i)
		}
	}
	return ""
}

func fillUnscored(n int) []float64 {
	fit := make([]float64, n)
	for i := range fit {
		fit[i] = unscored
	}
	return fit
}

// FuzzDecodeBatch holds the round's scorer to the scalar decode, bit
// for bit, on fuzzed m ∈ 1..12, n ∈ 1..64 and 0–9 dirty indices, with
// the kernel on and off. A non-zero mode plants one value outside the
// gate (NaN, negative or infinite ETC; NaN or infinite base), which
// must send the round to the scalar decode.
func FuzzDecodeBatch(f *testing.F) {
	for _, c := range []struct {
		seed          uint64
		m, n, d, mode uint8
	}{
		{1, 12, 21, 9, 0}, {2, 11, 21, 5, 0}, {3, 1, 1, 1, 0}, {4, 12, 64, 7, 0},
		{5, 5, 3, 4, 0}, {6, 12, 21, 6, 0}, {7, 7, 40, 2, 0}, {8, 12, 1, 3, 0},
		{9, 12, 21, 9, 1}, {10, 12, 21, 9, 2}, {11, 8, 21, 9, 3}, {12, 12, 21, 9, 4},
		{13, 12, 21, 9, 5}, {14, 3, 21, 9, 6}, {15, 12, 21, 9, 7}, {16, 12, 21, 9, 8},
	} {
		f.Add(c.seed, c.m-1, c.n-1, c.d, c.mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, nRaw, dRaw, modeRaw uint8) {
		m, n := 1+int(mRaw)%laneSites, 1+int(nRaw)%64
		dirty, mode := int(dRaw)%10, int(modeRaw)%(len(outOfGate)+1)
		defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
		for _, on := range decodePaths() {
			useDecodeKernel = on
			if err := checkDecodeBatch(seed, m, n, dirty, mode); err != "" {
				t.Fatalf("%s seed=%d m=%d n=%d dirty=%d mode=%d: %s", DecodeKernel(), seed, m, n, dirty, mode, err)
			}
		}
	})
}

// TestDecodeGateRejectsLoadTerm: the load-weighted fitness is not the
// kernel's function, so it always takes the scalar decode.
func TestDecodeGateRejectsLoadTerm(t *testing.T) {
	var d decoder
	if d.stage(2, []float64{0, 0}, []float64{1, 2}, 0.5) != nil {
		t.Fatal("a round with LoadWeight > 0 passed the kernel's gate")
	}
	if d.stage(13, make([]float64, 13), make([]float64, 13), 0) != nil {
		t.Fatal("a 13-site round passed the kernel's gate")
	}
}

// nasRound is one NAS-platform round's decode inputs: the first n
// jobs of the synthetic NAS trace on the 12-site platform.
func nasRound(n int) (base, etc []float64, m int) {
	r := rng.New(1)
	sites, err := grid.NASPlatform().Generate(r.Derive("sites"))
	if err != nil {
		panic(err)
	}
	jobs, err := trace.DefaultNASConfig().Generate(r.Derive("nas"))
	if err != nil {
		panic(err)
	}
	st := freshState(sites)
	for i := range st.Ready {
		st.Ready[i] = float64(i) * 900
	}
	return fitnessBase(st), grid.ETCMatrix(jobs[:n], sites), len(sites)
}

// TestScorerMatchesFitnessInRun: a GA run on a NAS round gives the
// same Result — best chromosome, fitness trajectory and evaluation
// count — through the round's batch scorer at Workers 1, 2 and 3 as
// through the per-chromosome scalar decode, on every decode path.
func TestScorerMatchesFitnessInRun(t *testing.T) {
	base, etc, m := nasRound(21)
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	allowed := make([][]int, 21)
	for i := range allowed {
		allowed[i] = all
	}
	cfg := ga.DefaultConfig()
	cfg.PopulationSize, cfg.Generations = 30, 20
	cfg.Workers = 1
	want, err := ga.Run(&ga.Problem{Length: 21, Allowed: allowed, Fitness: makespanFitness(m, base, etc, 0)}, cfg, nil, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	forEachDecodePath(t, func(t *testing.T) {
		for _, w := range []int{1, 2, 3} {
			var d decoder
			cfg.Workers = w
			got, err := ga.Run(&ga.Problem{Length: 21, Allowed: allowed, NewScorer: d.scorers(m, base, etc, 0)}, cfg, nil, rng.New(3))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: batch scorer's run diverged from the per-chromosome decode", w)
			}
			if kernel := d.kernelRounds == 1; kernel != useDecodeKernel {
				t.Fatalf("workers=%d: kernel ran: %v, want %v", w, kernel, useDecodeKernel)
			}
		}
	})
}

// TestNASRunTakesKernelPath: a golden-scale STGA simulation on the NAS
// platform (the experiments' TestSetup sizes) runs every round through
// the 4-way kernel where the CPU has AVX2, at Workers 1 and 2, and
// replays the portable decode's run record for
// record. The committed goldens never reach the kernel — their STGA
// runs are all on the 20-site PSA platform — so this is its
// golden-scale check, and it runs in the race job.
func TestNASRunTakesKernelPath(t *testing.T) {
	if !cpu.HasAVX2 {
		t.Skip("no AVX2: every round takes the portable decode")
	}
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
	run := func(workers int) (*sched.Result, *Scheduler) {
		cfg := DefaultConfig()
		cfg.GA.PopulationSize, cfg.GA.Generations, cfg.GA.Workers = 40, 25, workers
		sc := New(cfg, rng.New(77))
		res, err := sched.Run(sched.RunConfig{
			Jobs: grid.CloneAll(jobs), Sites: sites, Scheduler: sc,
			BatchInterval: 3600, Rand: rng.New(5),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, sc
	}
	defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
	useDecodeKernel = false
	want, _ := run(1)
	useDecodeKernel = true
	for _, w := range []int{1, 2} {
		got, sc := run(w)
		if sc.batch == 0 || sc.dec.kernelRounds != sc.batch {
			t.Fatalf("workers=%d: %d of %d rounds ran the kernel", w, sc.dec.kernelRounds, sc.batch)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("workers=%d: kernel run's job records diverged from the portable decode's", w)
		}
	}
}

// BenchmarkDecodeBatch scores 200 chromosomes of a 21-job NAS round
// through the round's scorer, on each decode path this CPU runs.
func BenchmarkDecodeBatch(b *testing.B) {
	base, etc, m := nasRound(21)
	r := rng.New(2)
	pop := make([]ga.Chromosome, 200)
	idx := make([]int, len(pop))
	for i := range pop {
		pop[i] = make(ga.Chromosome, 21)
		for g := range pop[i] {
			pop[i][g] = r.Intn(m)
		}
		idx[i] = i
	}
	fit := make([]float64, len(pop))
	defer func(v bool) { useDecodeKernel = v }(useDecodeKernel)
	for _, on := range decodePaths() {
		useDecodeKernel = on
		var d decoder
		sc := d.scorers(m, base, etc, 0)()
		b.Run(DecodeKernel(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.Score(pop, idx, fit)
			}
		})
	}
}

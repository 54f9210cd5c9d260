package stga

import (
	"math"

	"trustgrid/internal/cpu"
	"trustgrid/internal/ga"
)

// laneSites is the widest platform decode4 takes: each chromosome's
// site loads fill three 4-lane YMM accumulators, and the kernel reads
// ETC rows and the base vector at this stride.
const laneSites = 12

// useDecodeKernel routes gated rounds through decode4. It is fixed at
// start-up from the CPU (cpu.HasAVX2); tests clear it to run the
// portable decode.
var useDecodeKernel = cpu.HasAVX2

// DecodeKernel names the path a gated round's fitness decode takes in
// this process: "avx2x4" or "portable". Both produce the same bits.
func DecodeKernel() string {
	if useDecodeKernel {
		return "avx2x4"
	}
	return "portable"
}

// decoder holds the fitness decode's per-Scheduler scratch, reused
// across rounds so a steady-state round allocates nothing for it.
type decoder struct {
	rows []float64          // the round's ETC rows at stride laneSites, when m < laneSites
	base [laneSites]float64 // the round's base, zero past m
	// kernelRounds counts the rounds whose scorers ran decode4.
	kernelRounds int
}

// scorers returns one round's ga.Problem.NewScorer: the 4-way kernel
// when the round passes stage's gate, else the scalar makespanFitness.
func (d *decoder) scorers(m int, base, etc []float64) func() ga.Scorer {
	if rows := d.stage(m, base, etc); rows != nil {
		d.kernelRounds++
		// The kernel scorer keeps no scratch, so the workers share it.
		k := &kernelScorer{n: len(etc) / m, rows: rows, base: &d.base}
		return func() ga.Scorer { return k }
	}
	return func() ga.Scorer { return makespanFitness(m, base, etc) }
}

// stage is the kernel's gate. It returns the round's ETC rows at stride
// laneSites, with base copied into d.base, or nil when the round must
// take the scalar decode: no kernel on this CPU, more than laneSites
// sites, or an input outside the domain where decode4 equals the
// scalar decode. That domain is finite base values and finite,
// non-negative ETCs. There each site's partial sums only rise, so the
// scalar's running maximum over partial sums equals decode4's maximum
// over final sums; a masked +0 changes no sum (loads start at +0, so
// -0 ETCs fold to +0 on both paths); and the per-site addition order is
// the scalar's. The check is one pass over the n·m ETCs, folded into the
// copy when m < laneSites.
func (d *decoder) stage(m int, base, etc []float64) []float64 {
	if !useDecodeKernel || m == 0 || m > laneSites {
		return nil
	}
	d.base = [laneSites]float64{}
	for i, b := range base {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil
		}
		d.base[i] = b
	}
	if m == laneSites {
		for _, e := range etc {
			if !(e >= 0 && e <= math.MaxFloat64) {
				return nil
			}
		}
		return etc
	}
	n := len(etc) / m
	if cap(d.rows) < n*laneSites {
		d.rows = make([]float64, n*laneSites)
	}
	rows := d.rows[:n*laneSites]
	for j := 0; j < n; j++ {
		row := rows[j*laneSites : (j+1)*laneSites]
		for k, e := range etc[j*m : (j+1)*m] {
			if !(e >= 0 && e <= math.MaxFloat64) {
				return nil
			}
			row[k] = e
		}
		clear(row[m:]) // padded lanes: no gene matches them
	}
	return rows
}

// kernelScorer scores a gated round's chromosomes four per decode4
// call. A last group of fewer than four repeats its final index in the
// spare lanes and keeps only the real lanes' results.
type kernelScorer struct {
	n    int       // chromosome length
	rows []float64 // ETC rows at stride laneSites
	base *[laneSites]float64
}

// Score implements ga.Scorer.
func (k *kernelScorer) Score(pop []ga.Chromosome, idx []int, fit []float64) {
	var g [4]*int
	var out [4]float64
	for lo := 0; lo < len(idx); lo += 4 {
		grp := idx[lo:min(lo+4, len(idx))]
		for l := range g {
			g[l] = &pop[grp[min(l, len(grp)-1)]][0]
		}
		decode4(&g, k.n, &k.rows[0], k.base, &out)
		for l, i := range grp {
			fit[i] = out[l]
		}
	}
}

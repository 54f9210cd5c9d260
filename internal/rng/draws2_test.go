package rng

import (
	"math"
	"testing"
)

// cloneBlock deep-copies a Block so a bulk path and the element-wise
// reference can be compared from identical states.
func cloneBlock(b *Block) *Block {
	c := *b
	return &c
}

// TestBlockFillMatchesNext pins the bulk contract: Fill produces
// exactly the draws repeated Next calls would, from any cursor
// alignment and for any length including the unrolled-loop tails.
func TestBlockFillMatchesNext(t *testing.T) {
	for _, misalign := range []int{0, 1, 2, 3} {
		for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 1000} {
			b := NewBlock(New(uint64(17 + n)))
			for i := 0; i < misalign; i++ {
				b.Next()
			}
			ref := cloneBlock(b)
			got := make([]uint64, n)
			b.Fill(got)
			for i := range got {
				if want := ref.Next(); got[i] != want {
					t.Fatalf("misalign %d n %d: Fill[%d] = %#x, want %#x", misalign, n, i, got[i], want)
				}
			}
			// The states must agree afterwards too: a second bulk read
			// continues the same sequence.
			if b.Next() != ref.Next() {
				t.Fatalf("misalign %d n %d: cursor diverged after Fill", misalign, n)
			}
		}
	}
}

// TestBlockFillBernoulliMatchesElementwise pins the bit-vector path to
// the element-wise threshold draw, including degenerate probabilities
// (which consume no draws, like Bernoulli.Hit) and partial last words,
// on every FillBernoulli path this CPU runs.
func TestBlockFillBernoulliMatchesElementwise(t *testing.T) {
	probs := []float64{0, -1, 1, 2, 0.01, 0.5, 0.8, 1e-9, 1 - 1e-9, math.NaN()}
	forEachMaskPath(t, func(t *testing.T) {
		for _, p := range probs {
			bn := NewBernoulli(p)
			for _, misalign := range []int{0, 3} {
				for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
					if err := checkFillBernoulli(uint64(1234+n), n, bn, misalign); err != "" {
						t.Fatalf("p=%v %s", p, err)
					}
				}
			}
		}
	})
}

// TestDrawsV2LanesPairwiseDisjoint checks the per-phase lanes (and the
// mutation Block's stripes) are decorrelated: across the first 512
// draws of each, no 64-bit value appears in two different lanes. A
// collision among these ~4600 draws has probability ~2^-51 under
// independence, so any overlap means two lanes share a state.
func TestDrawsV2LanesPairwiseDisjoint(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		d := NewDrawsV2(New(seed))
		const k = 512
		lanes := map[string][]uint64{
			"init":   drawN(d.Init, k),
			"select": drawN(d.Select, k),
			"cross":  drawN(d.Cross, k),
			"mutval": drawN(d.MutVal, k),
		}
		mutbits := make([]uint64, k)
		d.MutBit.Fill(mutbits)
		lanes["mutbit"] = mutbits
		seen := make(map[uint64]string, 5*k)
		for name, vals := range lanes {
			for _, v := range vals {
				if other, ok := seen[v]; ok && other != name {
					t.Fatalf("seed %d: value %#x appears in lanes %s and %s", seed, v, other, name)
				}
				seen[v] = name
			}
		}
	}
}

// TestNewDrawsV2DoesNotAdvanceParent pins the property the versioned
// contract depends on: splitting the run stream into lanes must not
// perturb the run stream's own sequence (the STGA keeps drawing
// batch-level decisions from it).
func TestNewDrawsV2DoesNotAdvanceParent(t *testing.T) {
	a, b := New(42), New(42)
	NewDrawsV2(a)
	for i := 0; i < 64; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("NewDrawsV2 advanced the parent stream (draw %d)", i)
		}
	}
}

func drawN(r *Stream, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

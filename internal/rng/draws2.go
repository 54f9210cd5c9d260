package rng

import "trustgrid/internal/cpu"

// This file is the GA's draw contract (V2). One serial stream threaded
// through every GA phase in loop order would pin the whole loop to the
// latency of one xoshiro chain and weld the phases' draw counts
// together. V2 splits the run stream into per-phase lanes (Fork is a
// pure function of state and index, so the layout is stable) and draws
// the mutation hit mask as a Bernoulli bit vector from a 4-stripe
// Block, whose interleaved recurrences break the serial dependency
// chain: four independent states advance per loop iteration, so the
// CPU overlaps what one chain would serialize.

// blockStripes is the Block interleave width. Part of the V2 contract:
// changing it changes every V2 draw sequence.
const blockStripes = 4

// Block generates the stream formed by interleaving blockStripes
// xoshiro256** stripes round-robin: draw k comes from stripe k mod 4.
// Next is the element-wise reference; Fill and FillBernoulli produce
// the identical sequence in bulk (property-tested), letting hot loops
// consume a slab of draws without a call per draw.
type Block struct {
	lane [blockStripes]Stream
	next int // stripe of the next element-wise draw
}

// NewBlock builds a Block whose stripes are r.Fork(0..3). It does not
// advance r.
func NewBlock(r *Stream) *Block {
	b := &Block{}
	for i := range b.lane {
		b.lane[i] = *r.Fork(i)
	}
	return b
}

// Next returns the next interleaved draw.
func (b *Block) Next() uint64 {
	v := b.lane[b.next].Uint64()
	b.next = (b.next + 1) % blockStripes
	return v
}

// Fill writes the next len(dst) draws into dst — exactly the values
// len(dst) Next calls would return, but generated four stripes at a
// time so the four recurrences pipeline.
func (b *Block) Fill(dst []uint64) {
	i := 0
	for b.next != 0 && i < len(dst) {
		dst[i] = b.Next()
		i++
	}
	l0, l1, l2, l3 := b.lane[0], b.lane[1], b.lane[2], b.lane[3]
	for ; i+blockStripes <= len(dst); i += blockStripes {
		dst[i] = l0.Uint64()
		dst[i+1] = l1.Uint64()
		dst[i+2] = l2.Uint64()
		dst[i+3] = l3.Uint64()
	}
	b.lane[0], b.lane[1], b.lane[2], b.lane[3] = l0, l1, l2, l3
	for ; i < len(dst); i++ {
		dst[i] = b.Next()
	}
}

// FillBernoulli draws count Bernoulli(bn) trials and packs them one
// bit per trial into dst, LSB-first: trial j lands in bit j&63 of
// dst[j>>6]. Trial j succeeds iff bn.Hit would succeed on the j-th
// element-wise draw; like Hit, degenerate probabilities (p ≤ 0, p ≥ 1)
// consume no draws. dst must have at least (count+63)/64 words; words
// are fully overwritten, with tail bits past count left zero (or one
// for p ≥ 1 within the last partial word's valid range only).
func (b *Block) FillBernoulli(dst []uint64, count int, bn Bernoulli) {
	words := (count + 63) >> 6
	if bn.never || bn.always {
		var fill uint64
		if bn.always {
			fill = ^uint64(0)
		}
		for w := 0; w < words; w++ {
			dst[w] = fill
		}
		if bn.always && count&63 != 0 {
			dst[words-1] &= (1 << uint(count&63)) - 1
		}
		return
	}
	thr := bn.threshold
	w := 0
	if useMaskKernel && b.next == 0 && count >= 64 {
		// Every full word, four stripes in the four lanes of one vector
		// register (mask_amd64.s): the same words, bit for bit, as the
		// aligned branch below, and the same stripe states afterwards.
		w = count >> 6
		fillBernoulliAVX2(&b.lane, dst[:w], thr<<11)
	}
	for ; w < words; w++ {
		var word uint64
		nbits := count - w<<6
		if nbits >= 64 && b.next == 0 {
			// Aligned full word. Within a word, stripe j owns bits
			// j, j+4, j+8, … — and the stripes are independent streams,
			// so the word can be assembled one stripe at a time: 16
			// draws from a single stripe whose four state words (plus
			// the bit accumulator) fit in registers, where interleaving
			// all four stripes spills 16 state words to the stack. Each
			// stripe's bits rotate in through the top (constant shift
			// counts — variable shifts serialize on CL under GOAMD64=v1):
			// iteration k's bit lands at 4k after 15−k right-shifts, and
			// the stripe's accumulator slides left j to its home lane.
			// v>>11 < thr ⟺ v < thr<<11: thr < 2⁵³ for non-degenerate
			// probabilities (NewBernoulli), so the shift cannot overflow
			// and the raw draws compare directly.
			rawThr := thr << 11
			for j := range b.lane {
				l := b.lane[j]
				var acc uint64
				for k := 0; k < 64/blockStripes; k++ {
					acc = acc>>4 | b2u(l.Uint64() < rawThr)<<60
				}
				b.lane[j] = l
				word |= acc << uint(j)
			}
			nbits = 64
		} else {
			if nbits > 64 {
				nbits = 64
			}
			for k := uint(0); k < uint(nbits); k++ {
				word |= b2u(b.Next()>>11 < thr) << k
			}
		}
		dst[w] = word
	}
}

// useMaskKernel routes FillBernoulli's aligned full words through the
// vector kernel. It is fixed at start-up from the CPU (cpu.HasAVX2);
// tests clear it to run the portable loop.
var useMaskKernel = cpu.HasAVX2

// MaskKernel names the path FillBernoulli's aligned words take in this
// process: "avx2" or "portable". Both produce the same bits.
func MaskKernel() string {
	if useMaskKernel {
		return "avx2"
	}
	return "portable"
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// V2 lane indices: the Fork offsets of each GA phase's stream under
// the DrawsV2 contract. Stable — reordering them is a new version.
const (
	laneInit   = 0 // population construction and chromosome repair
	laneSelect = 1 // parent selection
	laneCross  = 2 // crossover gates and cut points
	laneMutVal = 3 // replacement gene values for mutation hits
	laneMutBit = 4 // Block root for the mutation hit mask
)

// DrawsV2 is the per-run draw layout of the V2 contract: one
// independent lane per GA phase, all forked from the run stream, so
// no phase's draw count perturbs another phase's sequence and each
// lane can be consumed in bulk.
type DrawsV2 struct {
	Init   *Stream // population construction and repair
	Select *Stream // parent selection
	Cross  *Stream // crossover gates and cut points
	MutVal *Stream // replacement values for mutation hits
	MutBit *Block  // batched Bernoulli mutation hit mask
}

// NewDrawsV2 splits r into the five V2 lanes. It does not advance r.
func NewDrawsV2(r *Stream) *DrawsV2 { return CompleteDrawsV2(r, InitLaneV2(r)) }

// InitLaneV2 forks NewDrawsV2(r)'s Init lane alone. It does not advance r.
func InitLaneV2(r *Stream) *Stream { return r.Fork(laneInit) }

// CompleteDrawsV2 forks r's other four V2 lanes beside init, which
// InitLaneV2(r) returned and may have drawn since. It does not advance r.
func CompleteDrawsV2(r, init *Stream) *DrawsV2 {
	return &DrawsV2{
		Init:   init,
		Select: r.Fork(laneSelect),
		Cross:  r.Fork(laneCross),
		MutVal: r.Fork(laneMutVal),
		MutBit: NewBlock(r.Fork(laneMutBit)),
	}
}

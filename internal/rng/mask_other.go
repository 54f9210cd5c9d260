//go:build !amd64

package rng

// hasAVX2 is false off amd64: FillBernoulli runs its portable loop.
const hasAVX2 = false

func fillBernoulliAVX2(lanes *[blockStripes]Stream, dst []uint64, rawThr uint64) {
	panic("rng: no vector mask kernel on this architecture")
}

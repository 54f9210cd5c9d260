//go:build !amd64

package rng

// Off amd64 cpu.HasAVX2 is false and FillBernoulli runs its portable
// loop; this stub only satisfies the compiler.
func fillBernoulliAVX2(lanes *[blockStripes]Stream, dst []uint64, rawThr uint64) {
	panic("rng: no vector mask kernel on this architecture")
}

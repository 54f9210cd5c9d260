// Package rng provides deterministic, splittable pseudo-random number
// streams and the distributions used by the trustgrid simulator.
//
// The simulator must be exactly reproducible across runs and Go versions,
// so we implement the generators ourselves (SplitMix64 for seeding and
// xoshiro256** for the main stream) rather than rely on math/rand, whose
// default source and seeding behaviour have changed between releases.
//
// Streams are identified by a string label. Deriving a stream from a parent
// hashes the label into the seed, so independently labelled components
// (arrival process, security levels, failure draws, GA operators, ...)
// receive decorrelated streams and can be added or removed without
// perturbing one another. This is the standard substream discipline for
// discrete-event simulation experiments.
//
// The module is stdlib-only. One path in this package is not pure Go:
// on amd64, Block.FillBernoulli (the GA's DrawsV2 mutation hit mask) runs its
// aligned full words through an AVX2 kernel (mask_amd64.s) that steps
// the Block's four xoshiro256** stripes in the four 64-bit lanes of one
// register. The kernel is chosen once at start-up (cpu.HasAVX2), emits
// the portable loop's words bit for bit and leaves the stripes where
// the loop would; other architectures, CPUs without AVX2, a misaligned
// cursor and the partial last word run the Go loop. MaskKernel names
// the path in use.
//
// DESIGN.md §1.1 inventory row: deterministic random streams (xoshiro256**): labelled substreams, per-worker forks, 2^128 jump-ahead; the DrawsV2 mutation mask, with an AVX2 kernel on amd64.
package rng

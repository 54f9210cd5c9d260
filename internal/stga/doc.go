// Package stga implements the paper's contribution: the Space-Time
// Genetic Algorithm (§3). The STGA evolves job→site assignments not only
// over the solution space ("space") but also over previous scheduling
// results ("time"): a history lookup table stores the inputs and best
// schedules of earlier batches, and entries similar to the current batch
// (Eq. 2) seed the initial population, so only a few generations are
// needed to reach high-quality solutions.
//
// The GA's fitness decode has one path that is not pure Go: on amd64,
// rounds on platforms of at most 12 sites, with finite non-negative
// ETCs and finite ready times, score four chromosomes per AVX2 pass
// (decode_amd64.s), bit for bit what the scalar decode returns. The
// kernel is chosen once at start-up (cpu.HasAVX2); every other round,
// CPU and architecture runs the scalar decode. DecodeKernel names the
// path in use.
//
// DESIGN.md §1.1 inventory row: the paper's contribution: Space-Time GA with the Eq. 2 similarity-indexed history table; the fitness decode, four chromosomes per AVX2 pass on amd64 at m ≤ 12.
package stga

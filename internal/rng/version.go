package rng

// Version names the GA's draw-sequence contract. There is one: V2
// (DrawsV2). The original serial contract, v1, was removed; its last
// commit is recorded in DESIGN.md §13.1.
//
// The type survives only because the frozen benchmark harness assigns
// ga.Config.RNG from it. 0 and V2 both mean the one contract, and
// ga.Config.Validate refuses every other value. ROADMAP item 6(d), the
// next benchmark change, deletes the type together with its assignments.
type Version int

// V2 is the batched contract (DrawsV2): independent per-phase lanes
// forked from the run stream, with mutation hits drawn as Bernoulli bit
// vectors from a 4-stripe Block.
const V2 Version = 2

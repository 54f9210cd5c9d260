// Package kernel is the columnar scheduling core: a struct-of-arrays
// snapshot of one scheduling round that every layer above it — the
// greedy heuristics, the STGA's GA fitness, and the batch/online engine
// — streams over instead of chasing *grid.Job/*grid.Site pointers.
//
// A Snapshot flattens the round into dense arrays (per-site ready,
// speed and security-level columns; per-job workload, security-demand
// and must-be-safe columns) and builds on first use what only some
// schedulers read: the flat row-major execution-time matrix, and policy
// admission per (policy, security-demand, must-be-safe) class as
// bitsets, so eligibility is derived once per batch instead of
// re-filtered per (job, site) probe. A class costs O(log m + m/64): the
// sites are kept ordered by security level, so a class is a prefix of
// that order plus a strip decided by the exact admission rule. The
// engine builds one Snapshot per Δ-round and hands it to the scheduler
// through sched.State, which is what lets the daemon path, the batch
// experiments and the STGA's internal heuristic seeding all share one
// setup pass. See DESIGN.md §8.
package kernel

// Package stats provides the small statistical helpers used by the
// experiment harness: means, standard deviations, confidence intervals
// over replicated runs, and simple series utilities.
//
// Degenerate-input contract (every helper follows it):
//
//   - Aggregates that are undefined on an empty slice — Mean, Min, Max,
//     Median, Percentile — return NaN: an absent value must poison
//     downstream arithmetic loudly rather than masquerade as zero.
//   - Spread estimators — StdDev, CI95, TCI95 — return 0 for n < 2: a single
//     observation is real data with no measured spread, and the ±0
//     half-width renders sensibly in reports at Reps = 1.
//   - Index selectors — ArgMin — return -1 for empty input.
//   - NaN elements in non-empty input propagate per IEEE-754 (order
//     statistics follow sort.Float64s, which places NaN first); callers
//     filter if they need different behavior.
//
// DESIGN.md §1.1 inventory row: small sample/aggregation helpers (means, confidence intervals, percentiles).
package stats

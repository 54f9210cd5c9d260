// Package obs holds the daemon's in-process instruments: fixed-bucket
// histograms that count wall-clock durations without allocating, for
// exposition on /metrics.prom. Nothing recorded here reaches an event,
// a WAL record or any other part of the determinism contract.
//
// DESIGN.md §1.1 inventory row: allocation-free wall-clock histograms (the round-phase timers on /metrics.prom, §9.5).
package obs

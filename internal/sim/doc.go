// Package sim implements the discrete-event simulation engine that every
// trustgrid experiment runs on.
//
// The engine is a classic event-list simulator: a priority queue of events
// ordered by (time, sequence), a virtual clock, and a run loop. Handlers
// may schedule further events at or after the current time. Determinism is
// guaranteed: ties in time are broken by insertion order, so a simulation
// driven by deterministic handlers and deterministic random streams always
// produces byte-identical results.
//
// DESIGN.md §1.1 inventory row: discrete-event engine: event list ordered by (time, insertion sequence) — fully deterministic; run to a deadline (RunUntil) or dry (Run).
package sim

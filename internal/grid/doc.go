// Package grid models the computational grid of the paper: heterogeneous
// resource sites with security levels, independent jobs with security
// demands, the ETC (expected time to complete) matrix, and the
// security/risk model of §2 — the exponential failure law (Eq. 1) and the
// three risk modes (secure, risky, f-risky).
//
// The dynamic-grid extension adds the site-churn model (DESIGN.md §7.2):
// ChurnEvent/ChurnConfig describe and generate deterministic, seeded
// join/leave/outage/degradation traces, serialized as JSONL by a
// hand-written line codec (ChurnEvent.AppendJSON and ScanJSON,
// ParseChurnEvent; DESIGN.md §9.7), and
// DeceptiveLevels builds ground-truth security vectors for sites that
// overstate their declarations.
//
// DESIGN.md §1.1 inventory row: core model: Job, Site, Eq. 1 SecurityModel, risk-mode admission Policy, platform generators, churn traces (§7.2).
package grid

// Package dag models dependent-job workloads: dependency-graph
// validation (self-edges, duplicate edges, dangling references,
// cycles), a deterministic ready-set tracker that releases jobs as
// their parents complete, HEFT-style upward-rank computation for
// critical-path-aware scheduling, and a layered random DAG generator
// shared by tracegen and the DAG study experiment (DESIGN.md §14).
//
// DESIGN.md §1.1 inventory row: dependent-job graphs: validation, ready-set release, upward ranks and the layered generator (§14).
package dag

// Package idset is the ordered int-keyed map behind the service's two
// history-long ID sets — the server's job-owner registry and each
// engine's DAG done-set: an ascending key column with a parallel value
// column, plus a small hashed "late" set for keys that arrive below the
// column's maximum, folded in by one sort and one linear merge — and the
// varint gap byte column a snapshot stores such a key set as
// (DESIGN.md §10.2).
package idset

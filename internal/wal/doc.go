// Package wal provides the daemon's durable-state layer (DESIGN.md
// §10): a write-ahead log of the three deterministic input streams —
// accepted arrivals, tenant mutations, and the churn trace — plus
// atomically written engine snapshots, so a killed daemon can rebuild
// exactly the state it held and every post-recovery placement matches
// what the uninterrupted run would have produced.
//
// The log is a sequence of segment files ("wal-%016d.log", named by the
// first sequence number they hold) of CRC-guarded JSONL frames. The
// reader is torn-tail tolerant: a truncated, torn or bit-flipped tail
// stops decoding at the last valid record, and Open repairs the
// directory to that prefix. Snapshots ("snap-%016d.json", named by the
// last WAL sequence they cover, or in a nested Set by its global
// sequence counter) are written to a temp file, fsynced and renamed, so
// a crash mid-snapshot leaves the previous one intact.
// Recovery is: newest readable snapshot + replay of the WAL records
// after it — over a Set, the one control log and per-shard logs of a
// daemon or a fleet worker in either on-disk layout: Set.Recover decides
// what a crash left of the set's total order, Apply re-applies one
// record to an engine (§10.4). Event-journal files ("events-%016d.bin",
// or "events-%016d.ndjson" as older daemons wrote them, named by the
// first event sequence number they hold) are stored beside the
// snapshots the same way; the log keeps and prunes them and knows
// nothing of their contents (§10.2).
package wal

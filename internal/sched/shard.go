package sched

import (
	"fmt"
	"hash/fnv"

	"trustgrid/internal/grid"
)

// Sharding primitives (DESIGN.md §11): the coordinator tier splits one
// logical engine into N independent shards. Tenants are assigned to
// shards by a stable hash, the platform is split round-robin, and the
// churn trace is filtered per partition. Everything here is a pure
// function of its arguments — the router in particular takes part in
// the determinism contract (a tenant's shard must survive restarts,
// registration reordering and process boundaries), which is why it
// hashes the tenant ID rather than consulting any registration state.

// RouteTenant returns the shard that owns a tenant: FNV-1a over the
// tenant ID, mod shards. Pure and stable — the same (tenantID, shards)
// pair always yields the same shard, independent of registration order
// or process lifetime. shards <= 1 routes everything to shard 0.
func RouteTenant(tenantID string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(tenantID))
	return int(h.Sum64() % uint64(shards))
}

// PartitionSites splits global site indices 0..nSites-1 round-robin
// across shards: global site j lands on shard j%shards as local index
// j/shards. Round-robin (rather than contiguous ranges) keeps the
// speed/security mix of a heterogeneous platform roughly even across
// shards. The returned table maps parts[s][local] = global index.
func PartitionSites(nSites, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	parts := make([][]int, shards)
	for j := 0; j < nSites; j++ {
		s := j % shards
		parts[s] = append(parts[s], j)
	}
	return parts
}

// ShardSites projects the global platform onto one shard's partition.
// Sites are cloned with shard-local positional IDs (the engine requires
// ID == index); the coordinator remaps event site indices back to
// global through the partition table, so local IDs never leak out.
func ShardSites(sites []*grid.Site, part []int) []*grid.Site {
	out := make([]*grid.Site, len(part))
	for local, global := range part {
		c := *sites[global]
		c.ID = local
		out[local] = &c
	}
	return out
}

// PartitionDynamics projects a dynamics config onto one shard's site
// partition: churn events for the shard's sites are kept (site index
// remapped to the shard-local index), the rest dropped; TrueLevels is
// subset the same way. Churn generation derives per-site streams
// (grid.ChurnConfig uses DeriveIndexed("churn/site", site)), so
// filtering a global trace by site yields exactly the trace a per-site
// generator would have produced — partitioning commutes with
// generation. Returns nil for a nil input.
func PartitionDynamics(dyn *DynamicsConfig, part []int) *DynamicsConfig {
	if dyn == nil {
		return nil
	}
	local := make(map[int]int, len(part))
	for l, g := range part {
		local[g] = l
	}
	out := &DynamicsConfig{Reputation: dyn.Reputation}
	for _, ev := range dyn.Churn {
		if l, ok := local[ev.Site]; ok {
			ev.Site = l
			out.Churn = append(out.Churn, ev)
		}
	}
	if dyn.TrueLevels != nil {
		out.TrueLevels = make([]float64, len(part))
		for l, g := range part {
			out.TrueLevels[l] = dyn.TrueLevels[g]
		}
	}
	return out
}

// ShardRNGLabel names a shard's derived RNG stream. One shard keeps the
// bare label ("engine", "scheduler") so a -shards 1 daemon draws the
// exact sequences the pre-sharding engine drew — that bit-parity is
// pinned by TestTraceReplayParity. N > 1 derives per-shard substreams.
func ShardRNGLabel(base string, shards, shard int) string {
	if shards <= 1 {
		return base
	}
	return fmt.Sprintf("%s/shard/%d", base, shard)
}

// MergeShardEvents merges per-shard event buffers into one totally
// ordered stream: ascending Time, shard index breaking ties, emission
// order within a shard preserved. Each buffer is consumed as a queue —
// the merge never reorders within a shard, never drops and never
// duplicates, whatever the input (FuzzEventMerge pins that). When every
// buffer is time-sorted (as engine emission order guarantees), the
// output is globally time-sorted. The coordinator runs the same merge
// without the output slice (mergeShardEvents).
func MergeShardEvents(bufs [][]EngineEvent) []EngineEvent {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]EngineEvent, 0, total)
	mergeShardEvents(bufs, make([]int, len(bufs)), func(ev *EngineEvent) { out = append(out, *ev) })
	return out
}

// mergeShardEvents hands every event of bufs to fn, in place and in
// MergeShardEvents' order. heads is the caller's scratch, one cursor per
// buffer; it is reset here.
func mergeShardEvents(bufs [][]EngineEvent, heads []int, fn func(*EngineEvent)) {
	clear(heads)
	for {
		best := -1
		for s, b := range bufs {
			if heads[s] >= len(b) {
				continue
			}
			// Strict < keeps the first (lowest-index) shard on ties; a NaN
			// timestamp compares false both ways and resolves by shard
			// index, so even garbage input terminates.
			if best < 0 || b[heads[s]].Time < bufs[best][heads[best]].Time {
				best = s
			}
		}
		if best < 0 {
			return
		}
		fn(&bufs[best][heads[best]])
		heads[best]++
	}
}

package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/obs"
)

// ErrShardDown reports that a shard is (temporarily) unreachable — a
// fleet worker whose connection dropped or whose heartbeat TTL expired.
// In-process shards never return it. The coordinator treats it as a
// degradation, not a failure: AdvanceTo skips a down shard (its barrier
// window is made up on reattach, see internal/fleet), while submissions
// routed to it surface the error so the service layer can 503 the
// owning tenants. Match with errors.Is.
var ErrShardDown = errors.New("sched: shard down")

// Shard is the seam between the coordinator and one engine shard: the
// exact method set Coordinator needs to route submissions, drive the
// Δ-round barrier and aggregate what it reports. *Online implements it
// in process; fleet.RemoteShard implements it over a framed TCP
// connection to a trustgrid-worker. The concurrency contract matches
// Online: every method belongs to the goroutine driving the coordinator.
type Shard interface {
	Submit(j *grid.Job) error
	AdvanceTo(t float64) error
	Drain() (*Result, error)
	Now() float64
	Seen() int
	InFlight() int
	Batches() int
	LargestBatch() int
	SetTenantWeight(tenant string, weight float64)
	SiteStatuses() []SiteStatus
	NeverPlaced() []grid.Job
	Snapshot() (*EngineSnapshot, error)
	// MetricsState exposes the incremental §4.1 accumulator and the
	// per-site (local index) busy vector for cross-shard aggregation.
	MetricsState() (metrics.AccumulatorState, []float64)
	// SetEventSink installs the coordinator's event observer. Events
	// only fire while the shard executes (AdvanceTo/Drain on
	// the driving goroutine), so installing the sink between construction
	// and the first barrier is race-free.
	SetEventSink(fn func(EngineEvent))
}

// CoordinatorConfig assembles a coordinator over N in-process engine
// shards: one RunConfig per shard whose Sites/Dynamics are already the
// shard's partition (PartitionSites, ShardSites and PartitionDynamics
// build those), plus the partition table and the merged event observer
// AttachCoordinator takes.
type CoordinatorConfig struct {
	Shards  []RunConfig
	Parts   [][]int
	OnEvent func(EngineEvent)
}

// Coordinator is the tier above N engine shards (DESIGN.md §11): it
// routes submissions to the owning shard (RouteTenant), fans
// AdvanceTo/Drain out to every shard as a shared Δ-round barrier, and
// merges the shards' event streams into one total order. With one shard
// it is a transparent wrapper — same RNG labels, pass-through events,
// bit-identical behavior to the unsharded engine. AttachCoordinator
// wires it to shards that live in process (*Online) or behind a wire
// (fleet.RemoteShard); the barrier, merge and routing logic do not know
// the difference.
//
// Concurrency contract: same as Online — every method belongs to the
// single loop goroutine. During a barrier each shard advances on its
// own goroutine, but that parallelism is internal — events are buffered
// per shard and merged after the join, so observers see one serialized
// stream.
type Coordinator struct {
	shards  []Shard
	parts   [][]int
	nSites  int
	onEvent func(*EngineEvent)
	// buf[s] collects shard s's events during a barrier. Only shard s's
	// goroutine appends to buf[s] while the fan-out runs; the merge on
	// the driving goroutine happens strictly after the join, and heads
	// is its cursor per buffer.
	buf   [][]EngineEvent
	heads []int
	// one holds a single shard's event while onEvent reads it, so the
	// pass-through hands out a pointer without the event escaping.
	one EngineEvent
}

// NewCoordinator builds one in-process engine per config and attaches
// a coordinator to them.
func NewCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	shards := make([]Shard, len(cc.Shards))
	for i := range cc.Shards {
		o, err := NewOnline(cc.Shards[i])
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		shards[i] = o
	}
	var onEvent func(*EngineEvent)
	if cc.OnEvent != nil {
		onEvent = func(ev *EngineEvent) { cc.OnEvent(*ev) }
	}
	return AttachCoordinator(cc.Parts, shards, onEvent)
}

// AttachCoordinator builds the coordinator over shards that already
// exist: in-process engines (*Online) or fleet.RemoteShard handles to
// out-of-process workers. It is the one place a coordinator is wired to
// its shards. parts[s] is shard s's partition (global site indices in
// local order): not empty, and one entry per site status the shard
// reports; together the parts hold each of 0..n-1 once. onEvent
// receives the merged stream — ascending time, shard index breaking
// ties, global site indices — on the goroutine driving AdvanceTo/Drain,
// after the barrier joins, never concurrently. The event it is handed
// is the coordinator's until onEvent returns: it reads it in place and
// must not keep the pointer. It replaces each shard's event sink, so an
// OnEvent set on an engine's RunConfig never fires.
func AttachCoordinator(parts [][]int, shards []Shard, onEvent func(*EngineEvent)) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sched: coordinator needs at least one shard")
	}
	if len(parts) != len(shards) {
		return nil, fmt.Errorf("sched: %d partitions for %d shards", len(parts), len(shards))
	}
	nSites := 0
	for _, part := range parts {
		nSites += len(part)
	}
	seen := make(map[int]bool)
	for s, part := range parts {
		if len(part) == 0 {
			return nil, fmt.Errorf("sched: shard %d has no sites (need at least as many sites as shards)", s)
		}
		if n := len(shards[s].SiteStatuses()); n != len(part) {
			return nil, fmt.Errorf("sched: shard %d has %d sites but a partition of %d", s, n, len(part))
		}
		for _, g := range part {
			if g < 0 {
				return nil, fmt.Errorf("sched: negative global site %d in shard %d's partition", g, s)
			}
			if g >= nSites {
				return nil, fmt.Errorf("sched: global site %d in shard %d's partition is past the table's %d sites", g, s, nSites)
			}
			if seen[g] {
				return nil, fmt.Errorf("sched: global site %d appears twice in the partition table", g)
			}
			seen[g] = true
		}
	}
	c := &Coordinator{
		shards:  shards,
		parts:   parts,
		nSites:  nSites,
		onEvent: onEvent,
		buf:     make([][]EngineEvent, len(shards)),
		heads:   make([]int, len(shards)),
	}
	c.wireSinks()
	return c, nil
}

// wireSinks installs the coordinator's event delivery on every shard:
// straight pass-through for a single shard (site indices are already
// global, so a -shards 1 run is the unsharded engine to the byte — no
// buffering, no barrier re-ordering, events visible the instant they
// fire), per-shard remap-and-buffer closures otherwise.
func (c *Coordinator) wireSinks() {
	if len(c.shards) == 1 {
		if c.onEvent == nil {
			c.shards[0].SetEventSink(nil)
			return
		}
		c.shards[0].SetEventSink(func(ev EngineEvent) {
			c.one = ev
			c.onEvent(&c.one)
		})
		return
	}
	for i, o := range c.shards {
		i := i
		o.SetEventSink(func(ev EngineEvent) {
			if ev.Site >= 0 {
				ev.Site = c.parts[i][ev.Site]
			}
			c.buf[i] = append(c.buf[i], ev)
		})
	}
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Shard exposes one shard for per-shard introspection (metrics,
// snapshots). Loop goroutine only, like the engine itself.
func (c *Coordinator) Shard(i int) Shard { return c.shards[i] }

// RoundPhases sums the round-phase histograms of the in-process
// shards. A fleet worker's rounds run in its own process and are not
// counted here. Safe from any goroutine.
func (c *Coordinator) RoundPhases() [NumPhases]obs.Counts {
	var sum [NumPhases]obs.Counts
	for _, sh := range c.shards {
		if o, ok := sh.(*Online); ok {
			for i := range o.st.phases {
				sum[i].Add(o.st.phases[i].Load())
			}
		}
	}
	return sum
}

// GAWork sums the GA work counters of the in-process shards'
// schedulers, as RoundPhases sums their phases. Safe from any
// goroutine.
func (c *Coordinator) GAWork() GAWork {
	var sum GAWork
	for _, sh := range c.shards {
		if o, ok := sh.(*Online); ok {
			if g, ok := o.cfg.Scheduler.(GAWorker); ok {
				sum.Add(g.GAWork())
			}
		}
	}
	return sum
}

// Part returns shard i's site partition (global indices, local order).
// The returned slice is the coordinator's own — read only.
func (c *Coordinator) Part(i int) []int { return c.parts[i] }

// Owner returns the shard that owns a tenant.
func (c *Coordinator) Owner(tenantID string) int {
	return RouteTenant(tenantID, len(c.shards))
}

// flush delivers the per-shard barrier buffers in the total order,
// straight out of the buffers, and empties them. Driving goroutine
// only, after the barrier join. A single-shard coordinator never
// buffers, so this is a no-op there.
func (c *Coordinator) flush() {
	if len(c.shards) == 1 {
		return
	}
	if c.onEvent != nil {
		mergeShardEvents(c.buf, c.heads, c.onEvent)
	}
	for i := range c.buf {
		c.buf[i] = c.buf[i][:0]
	}
}

// barrier fans fn out to every shard — in parallel when there is real
// fan-out to hide, inline for one shard — joins, then flushes the
// merged event window. The surviving shards' buffered events are
// delivered exactly once even when a sibling errors; the caller folds
// the per-shard error vector with firstErr.
func (c *Coordinator) barrier(fn func(i int, o Shard) error) []error {
	if len(c.shards) == 1 {
		if err := fn(0, c.shards[0]); err != nil {
			return []error{err}
		}
		return nil
	}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, o := range c.shards {
		i, o := i, o
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, o)
		}()
	}
	wg.Wait()
	c.flush()
	return errs
}

// firstErr returns the lowest-indexed shard's error (deterministic
// under -race reruns), optionally treating ErrShardDown as tolerable.
func firstErr(errs []error, tolerateDown bool) error {
	for _, err := range errs {
		if err == nil || (tolerateDown && errors.Is(err, ErrShardDown)) {
			continue
		}
		return err
	}
	return nil
}

// AdvanceTo drives every shard to virtual time t — the shared Δ-round
// barrier — then emits the window's merged events. Shards already past
// t (a prior Drain ran them ahead) only run the arrivals submitted at
// their own clock.
// A shard that reports ErrShardDown is skipped: its window is missing
// from the merged stream until it reattaches and backfills, but the
// survivors keep scheduling (the degradation contract a fleet needs —
// one dead worker must not stop the service). Loop goroutine only.
func (c *Coordinator) AdvanceTo(t float64) error {
	return firstErr(c.barrier(func(_ int, o Shard) error {
		target := t
		if now := o.Now(); now > target {
			target = now
		}
		return o.AdvanceTo(target)
	}), true)
}

// Drain runs every shard until everything submitted so far has
// completed, merges the final event window, and aggregates the result.
// Unlike AdvanceTo, a down shard fails the drain: a drain's contract is
// "everything accepted has completed", which a dead shard cannot
// promise. Loop goroutine only.
func (c *Coordinator) Drain() (*Result, error) {
	if len(c.shards) == 1 {
		return c.shards[0].Drain()
	}
	results := make([]*Result, len(c.shards))
	errs := c.barrier(func(i int, o Shard) error {
		var err error
		results[i], err = o.Drain()
		return err
	})
	if err := firstErr(errs, false); err != nil {
		return nil, err
	}
	out := &Result{Summary: c.Summary()}
	for _, r := range results {
		out.Records = append(out.Records, r.Records...)
		out.Batches += r.Batches
		out.Events += r.Events
		out.SchedulerTime += r.SchedulerTime
		if r.LargestBatch > out.LargestBatch {
			out.LargestBatch = r.LargestBatch
		}
	}
	return out, nil
}

// Submit routes a job to its tenant's shard. Loop goroutine only.
func (c *Coordinator) Submit(j *grid.Job) error {
	return c.shards[c.Owner(j.Tenant)].Submit(j)
}

// SetTenantWeight installs a fair-share weight on the tenant's owning
// shard — the only shard whose batch former ever sees the tenant's
// jobs. Loop goroutine only.
func (c *Coordinator) SetTenantWeight(tenant string, weight float64) {
	c.shards[c.Owner(tenant)].SetTenantWeight(tenant, weight)
}

// Now returns the coordinator clock: the maximum shard clock. Shards
// share barrier targets so clocks only diverge past the last barrier
// (a Drain runs each shard to its own completion time); max is what
// "the service's virtual time" means then, and the floor the next
// barrier target is validated against.
func (c *Coordinator) Now() float64 {
	now := c.shards[0].Now()
	for _, o := range c.shards[1:] {
		if t := o.Now(); t > now {
			now = t
		}
	}
	return now
}

// Seen sums the shards' ingested-job counts. Loop goroutine only.
func (c *Coordinator) Seen() int {
	n := 0
	for _, o := range c.shards {
		n += o.Seen()
	}
	return n
}

// InFlight sums the shards' incomplete-job counts. Loop goroutine only.
func (c *Coordinator) InFlight() int {
	n := 0
	for _, o := range c.shards {
		n += o.InFlight()
	}
	return n
}

// Batches sums the shards' dispatching rounds. Loop goroutine only.
func (c *Coordinator) Batches() int {
	n := 0
	for _, o := range c.shards {
		n += o.Batches()
	}
	return n
}

// LargestBatch is the largest single-shard round. Loop goroutine only.
func (c *Coordinator) LargestBatch() int {
	m := 0
	for _, o := range c.shards {
		if b := o.LargestBatch(); b > m {
			m = b
		}
	}
	return m
}

// Summary merges the shards' incremental summaries: per-job sums and
// counts add, makespan is the max, and the utilization vector is
// reassembled in global site order. Identical to Online.Summary for one
// shard. Loop goroutine only.
func (c *Coordinator) Summary() metrics.Summary {
	var acc metrics.Accumulator
	busy := make([]float64, c.nSites)
	for i, o := range c.shards {
		st, shardBusy := o.MetricsState()
		acc.Merge(st)
		for local, g := range c.parts[i] {
			if local < len(shardBusy) {
				busy[g] = shardBusy[local]
			}
		}
	}
	return acc.Summarize(busy)
}

// SiteStatuses reports every site's live state in global site order.
// Loop goroutine only.
func (c *Coordinator) SiteStatuses() []SiteStatus {
	out := make([]SiteStatus, c.nSites)
	for i, o := range c.shards {
		for local, st := range o.SiteStatuses() {
			st.ID = c.parts[i][local]
			out[st.ID] = st
		}
	}
	return out
}

// NeverPlaced aggregates the shards' accepted-but-never-placed jobs,
// sorted by ID like the single-engine form. Loop goroutine only.
func (c *Coordinator) NeverPlaced() []grid.Job {
	var out []grid.Job
	for _, o := range c.shards {
		out = append(out, o.NeverPlaced()...)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Snapshots captures every shard's engine snapshot, in shard order.
// Same preconditions as Online.Snapshot, per shard. Loop goroutine (or
// post-loop owner) only.
func (c *Coordinator) Snapshots() ([]*EngineSnapshot, error) {
	out := make([]*EngineSnapshot, len(c.shards))
	for i, o := range c.shards {
		snap, err := o.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		out[i] = snap
	}
	return out, nil
}

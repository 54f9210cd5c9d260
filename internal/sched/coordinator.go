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
// Online: Submit/SubmitOr/Backlog are safe from any goroutine, the rest
// belongs to the goroutine driving the coordinator.
type Shard interface {
	Submit(j *grid.Job) error
	SubmitOr(done <-chan struct{}, j *grid.Job) error
	SubmitLocal(j *grid.Job) error
	AdvanceTo(t float64) error
	Drain() (*Result, error)
	Now() float64
	Backlog() int
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
	// only fire while the shard executes (AdvanceTo/Drain/SubmitLocal on
	// the driving goroutine), so installing the sink between construction
	// and the first barrier is race-free.
	SetEventSink(fn func(EngineEvent))
}

// CoordinatorConfig assembles a coordinator over N engine shards. The
// caller (the server, or a test) prepares one RunConfig per shard whose
// Sites/Dynamics are already the shard's partition — PartitionSites,
// ShardSites and PartitionDynamics build those — plus the partition
// table itself so the coordinator can translate shard-local site
// indices back to global ones in everything it reports.
type CoordinatorConfig struct {
	// Shards holds one engine config per shard. Each config's OnEvent
	// must be unset: the coordinator owns event delivery (it remaps site
	// indices and establishes the merged total order) and forwards to
	// OnEvent below.
	Shards []RunConfig
	// Parts maps Parts[s][local] = global site index; every global site
	// must appear exactly once across all shards.
	Parts [][]int
	// OnEvent receives the merged, globally ordered event stream:
	// ascending time, shard index breaking ties, with site indices
	// translated to global. Called on the goroutine driving AdvanceTo /
	// Drain, after the Δ-round barrier joins — never concurrently.
	OnEvent func(EngineEvent)
}

// Coordinator is the tier above N engine shards (DESIGN.md §11): it
// routes submissions to the owning shard (RouteTenant), fans
// AdvanceTo/Drain out to every shard as a shared Δ-round barrier, and
// merges the shards' event streams into one total order. With one shard
// it is a transparent wrapper — same RNG labels, pass-through events,
// bit-identical behavior to the unsharded engine. The shards may live
// in process (NewCoordinator) or behind a wire (AttachCoordinator over
// fleet.RemoteShard values); the barrier, merge and routing logic do
// not know the difference.
//
// Concurrency contract: same as Online. Submit/SubmitOr/Backlog are
// safe from any goroutine; everything else belongs to the single loop
// goroutine. During a barrier each shard advances on its own goroutine,
// but that parallelism is internal — events are buffered per shard and
// merged after the join, so observers see one serialized stream.
type Coordinator struct {
	shards  []Shard
	parts   [][]int
	nSites  int
	onEvent func(EngineEvent)
	// buf[s] collects shard s's events during a barrier. Only shard s's
	// goroutine appends to buf[s] while the fan-out runs; the merge on
	// the driving goroutine happens strictly after the join.
	buf [][]EngineEvent
}

// NewCoordinator builds the shards and the tier above them.
func NewCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	c, err := prepCoordinator(cc)
	if err != nil {
		return nil, err
	}
	for i := range cc.Shards {
		o, err := NewOnline(cc.Shards[i])
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		c.shards[i] = o
	}
	c.wireSinks()
	return c, nil
}

// RestoreCoordinator rebuilds a coordinator mid-run from one engine
// snapshot per shard (snaps[i] pairs with cc.Shards[i]).
func RestoreCoordinator(cc CoordinatorConfig, snaps []*EngineSnapshot) (*Coordinator, error) {
	if len(snaps) != len(cc.Shards) {
		return nil, fmt.Errorf("sched: %d engine snapshots for %d shards", len(snaps), len(cc.Shards))
	}
	c, err := prepCoordinator(cc)
	if err != nil {
		return nil, err
	}
	for i := range cc.Shards {
		o, err := RestoreOnline(cc.Shards[i], snaps[i])
		if err != nil {
			return nil, fmt.Errorf("sched: shard %d: %w", i, err)
		}
		c.shards[i] = o
	}
	c.wireSinks()
	return c, nil
}

// AttachCoordinator builds a coordinator over shards that already exist
// — fleet.RemoteShard handles to out-of-process workers, or any other
// Shard implementation. The partition table is validated exactly like
// the in-process constructors', except the per-shard site count check
// (a remote shard's platform is not visible here; the worker validates
// its own partition against the spec it was attached with).
func AttachCoordinator(parts [][]int, shards []Shard, onEvent func(EngineEvent)) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sched: coordinator needs at least one shard")
	}
	if len(parts) != len(shards) {
		return nil, fmt.Errorf("sched: %d partitions for %d shards", len(parts), len(shards))
	}
	nSites, err := checkParts(parts)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		shards:  shards,
		parts:   parts,
		nSites:  nSites,
		onEvent: onEvent,
		buf:     make([][]EngineEvent, len(shards)),
	}
	c.wireSinks()
	return c, nil
}

// checkParts validates a partition table: no empty shard, no negative
// site index, every global site at most once.
func checkParts(parts [][]int) (nSites int, err error) {
	seen := make(map[int]bool)
	for s, part := range parts {
		if len(part) == 0 {
			return 0, fmt.Errorf("sched: shard %d has no sites (need at least as many sites as shards)", s)
		}
		for _, g := range part {
			if g < 0 {
				return 0, fmt.Errorf("sched: negative global site %d in shard %d's partition", g, s)
			}
			if seen[g] {
				return 0, fmt.Errorf("sched: global site %d appears twice in the partition table", g)
			}
			seen[g] = true
			nSites++
		}
	}
	return nSites, nil
}

// prepCoordinator validates the configuration for the in-process
// constructors, which build their own shards from RunConfigs.
func prepCoordinator(cc CoordinatorConfig) (*Coordinator, error) {
	n := len(cc.Shards)
	if n == 0 {
		return nil, fmt.Errorf("sched: coordinator needs at least one shard")
	}
	if len(cc.Parts) != n {
		return nil, fmt.Errorf("sched: %d partitions for %d shards", len(cc.Parts), n)
	}
	for s, part := range cc.Parts {
		if len(part) != 0 && len(part) != len(cc.Shards[s].Sites) {
			return nil, fmt.Errorf("sched: shard %d has %d sites but a partition of %d", s, len(cc.Shards[s].Sites), len(part))
		}
	}
	nSites, err := checkParts(cc.Parts)
	if err != nil {
		return nil, err
	}
	for i := range cc.Shards {
		if cc.Shards[i].OnEvent != nil {
			return nil, fmt.Errorf("sched: shard %d sets OnEvent (the coordinator owns event delivery)", i)
		}
	}
	return &Coordinator{
		shards:  make([]Shard, n),
		parts:   cc.Parts,
		nSites:  nSites,
		onEvent: cc.OnEvent,
		buf:     make([][]EngineEvent, n),
	}, nil
}

// wireSinks installs the coordinator's event delivery on every shard:
// straight pass-through for a single shard (site indices are already
// global, so a -shards 1 run is the unsharded engine to the byte — no
// buffering, no barrier re-ordering, events visible the instant they
// fire), per-shard remap-and-buffer closures otherwise.
func (c *Coordinator) wireSinks() {
	if len(c.shards) == 1 {
		c.shards[0].SetEventSink(c.onEvent)
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

// Part returns shard i's site partition (global indices, local order).
// The returned slice is the coordinator's own — read only.
func (c *Coordinator) Part(i int) []int { return c.parts[i] }

// Owner returns the shard that owns a tenant.
func (c *Coordinator) Owner(tenantID string) int {
	return RouteTenant(tenantID, len(c.shards))
}

// flush merges the per-shard barrier buffers into the total order and
// delivers them. Driving goroutine only, after the barrier join. A
// single-shard coordinator never buffers, so this is a no-op there.
func (c *Coordinator) flush() {
	if len(c.shards) == 1 {
		return
	}
	merged := MergeShardEvents(c.buf)
	for i := range c.buf {
		c.buf[i] = c.buf[i][:0]
	}
	if c.onEvent == nil {
		return
	}
	for _, ev := range merged {
		c.onEvent(ev)
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
// t (a prior Drain ran them ahead) only ingest their arrival backlog.
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

// Submit routes a job to its tenant's shard. Safe from any goroutine.
func (c *Coordinator) Submit(j *grid.Job) error {
	return c.shards[c.Owner(j.Tenant)].Submit(j)
}

// SubmitOr is Submit with an abort signal, like Online.SubmitOr.
func (c *Coordinator) SubmitOr(done <-chan struct{}, j *grid.Job) error {
	return c.shards[c.Owner(j.Tenant)].SubmitOr(done, j)
}

// SubmitLocal ingests a job directly onto the owning shard's event
// queue (manual-mode replay path). Loop goroutine only.
func (c *Coordinator) SubmitLocal(j *grid.Job) error {
	return c.shards[c.Owner(j.Tenant)].SubmitLocal(j)
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

// Backlog sums the shards' not-yet-ingested arrivals. Any goroutine.
func (c *Coordinator) Backlog() int {
	n := 0
	for _, o := range c.shards {
		n += o.Backlog()
	}
	return n
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
	if len(c.shards) == 1 {
		acc, busy := c.shards[0].MetricsState()
		var a metrics.Accumulator
		a.SetState(acc)
		return a.Summarize(busy)
	}
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
	if len(c.shards) == 1 {
		return c.shards[0].SiteStatuses()
	}
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
	if len(c.shards) == 1 {
		return c.shards[0].NeverPlaced()
	}
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

package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"trustgrid/internal/obs"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/stga"
)

// handleProm renders the existing counters in Prometheus text
// exposition format (version 0.0.4) — no client library, just the
// format: `# TYPE` lines, optional {tenant="..."} labels, one sample
// per line. Scrape path: GET /metrics.prom.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	rep, err := s.buildReport(r, "")
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	var b strings.Builder
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter("trustgrid_submitted_jobs_total", "Jobs accepted by the HTTP layer.", float64(rep.Submitted))
	counter("trustgrid_arrived_jobs_total", "Jobs ingested by the engine.", float64(rep.Arrived))
	counter("trustgrid_placed_total", "Placement events, retries included.", float64(rep.Placed))
	counter("trustgrid_failed_attempts_total", "Failed execution attempts (Eq. 1).", float64(rep.Failures))
	counter("trustgrid_interrupted_attempts_total", "Attempts cut short by site crashes.", float64(rep.Interrupted))
	counter("trustgrid_completed_jobs_total", "Jobs completed successfully.", float64(rep.Completed))
	counter("trustgrid_rejected_jobs_total", "Submissions rejected with 429 (quota).", float64(rep.Rejected))
	counter("trustgrid_batches_total", "Scheduling rounds that dispatched jobs.", float64(rep.Batches))
	gauge("trustgrid_in_flight_jobs", "Ingested jobs not yet completed.", float64(rep.InFlight))
	gauge("trustgrid_sites_alive", "Sites currently in service.", float64(rep.SitesAlive))
	gauge("trustgrid_registry_ids", "Accepted job IDs the registry holds, those above the retention horizon.", float64(rep.RegistryIDs))
	if rep.RetentionHorizon != nil {
		gauge("trustgrid_retention_horizon", "Largest job ID such that every accepted ID at or below it has completed.",
			float64(*rep.RetentionHorizon))
	}
	gauge("trustgrid_virtual_time_seconds", "Engine virtual clock.", rep.VirtualNow)
	gauge("trustgrid_uptime_seconds", "Wall-clock uptime.", rep.UptimeS)
	gauge("trustgrid_sched_latency_p50_milliseconds", "Submit-to-first-placement latency p50.", rep.Latency.P50)
	gauge("trustgrid_sched_latency_p99_milliseconds", "Submit-to-first-placement latency p99.", rep.Latency.P99)

	// Round phases as one histogram per phase label: cumulative buckets,
	// then sum and count, as the exposition format defines them.
	fmt.Fprintf(&b, "# HELP trustgrid_round_phase_seconds Wall time of each scheduling-round phase, over in-process shards.\n"+
		"# TYPE trustgrid_round_phase_seconds histogram\n")
	for i, c := range s.online.RoundPhases() {
		phaseHistogram(&b, "trustgrid_round_phase_seconds", sched.PhaseNames[i], c)
	}

	// GA work over in-process shards, and the mutation-mask and
	// fitness-decode paths this process runs (rng.MaskKernel,
	// stga.DecodeKernel), so a profile or a benchmark run can be tied
	// to them.
	work := s.online.GAWork()
	counter("trustgrid_ga_generations_total", "GA generations run, over in-process shards.", float64(work.Generations))
	counter("trustgrid_ga_evaluations_total", "GA fitness decodes run after carry-forward, over in-process shards.", float64(work.Evaluations))
	fmt.Fprintf(&b, "# HELP trustgrid_stga_history_lookups_total STGA history-table lookups by result, over in-process shards.\n"+
		"# TYPE trustgrid_stga_history_lookups_total counter\n"+
		"trustgrid_stga_history_lookups_total{result=\"hit\"} %d\n"+
		"trustgrid_stga_history_lookups_total{result=\"miss\"} %d\n", work.HistoryHits, work.HistoryMisses)
	// The last generation that improved each round's best: where a stall
	// count (ga.Config.Stall) would have cut the round. Power-of-two
	// buckets, counted in generations.
	fmt.Fprintf(&b, "# HELP trustgrid_stga_last_improvement_generation Last generation that strictly improved a GA round's best fitness (0: none did), over in-process shards.\n"+
		"# TYPE trustgrid_stga_last_improvement_generation histogram\n")
	var rounds uint64
	for k, n := range work.LastImproved.Buckets {
		rounds += n
		le := "+Inf"
		if k < obs.Buckets {
			le = strconv.Itoa(1 << k)
		}
		fmt.Fprintf(&b, "trustgrid_stga_last_improvement_generation_bucket{le=%q} %d\n", le, rounds)
	}
	fmt.Fprintf(&b, "trustgrid_stga_last_improvement_generation_sum %d\ntrustgrid_stga_last_improvement_generation_count %d\n",
		work.LastImproved.Sum.Microseconds(), rounds)
	counter("trustgrid_stga_floor_stops_total", "GA rounds that ended with their best on the round's span floor (provably optimal), over in-process shards.", float64(work.FloorStops))
	counter("trustgrid_stga_proved_stops_total", "GA rounds that ended on a branch-and-bound proof that their seeds' or initial population's best was optimal, over in-process shards.", float64(work.ProvedStops))
	fmt.Fprintf(&b, "# HELP trustgrid_rng_mask_kernel The path the GA's mutation hit mask runs on in this process.\n"+
		"# TYPE trustgrid_rng_mask_kernel gauge\ntrustgrid_rng_mask_kernel{kernel=%q} 1\n", rng.MaskKernel())
	fmt.Fprintf(&b, "# HELP trustgrid_stga_decode_kernel The path the STGA's fitness decode runs on in this process, for rounds within the kernel's gate.\n"+
		"# TYPE trustgrid_stga_decode_kernel gauge\ntrustgrid_stga_decode_kernel{kernel=%q} 1\n", stga.DecodeKernel())

	// Recovery phases of this process's boot, the phases of its
	// snapshots and its WAL fsyncs (durable daemons only).
	if s.cfg.WALDir != "" {
		fmt.Fprintf(&b, "# HELP trustgrid_recovery_seconds Wall time of each recovery phase at the last boot.\n"+
			"# TYPE trustgrid_recovery_seconds gauge\n")
		for p, d := range s.recovery {
			fmt.Fprintf(&b, "trustgrid_recovery_seconds{phase=%q} %g\n", recoveryPhaseNames[p], d.Seconds())
		}
		fmt.Fprintf(&b, "# HELP trustgrid_snapshot_seconds Wall time of each phase of a snapshot write.\n"+
			"# TYPE trustgrid_snapshot_seconds histogram\n")
		for p := range s.snapPhases {
			phaseHistogram(&b, "trustgrid_snapshot_seconds", snapshotPhaseNames[p], s.snapPhases[p].Load())
		}
		file, dir := s.walSyncs()
		fmt.Fprintf(&b, "# HELP trustgrid_wal_syncs_total Fsyncs the durable state has issued, of files and of directories.\n"+
			"# TYPE trustgrid_wal_syncs_total counter\n"+
			"trustgrid_wal_syncs_total{kind=\"file\"} %d\ntrustgrid_wal_syncs_total{kind=\"dir\"} %d\n", file, dir)
	}

	// Per-tenant counters, deterministically ordered for scrape diffs.
	ids := make([]string, 0, len(rep.Tenants))
	for id := range rep.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// %q escapes exactly what the exposition format needs for label
	// values (backslash, quote, newline); tenant IDs are restricted to
	// [a-zA-Z0-9._-] anyway, this covers unknown tenants from replayed
	// traces.
	tc := func(name, help string, val func(t string) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s{tenant=%q} %g\n", name, id, val(id))
		}
	}
	tc("trustgrid_tenant_submitted_jobs_total", "Jobs accepted per tenant.",
		func(t string) float64 { return float64(rep.Tenants[t].Submitted) })
	tc("trustgrid_tenant_placed_total", "Placement events per tenant.",
		func(t string) float64 { return float64(rep.Tenants[t].Placed) })
	tc("trustgrid_tenant_completed_jobs_total", "Completed jobs per tenant.",
		func(t string) float64 { return float64(rep.Tenants[t].Completed) })
	tc("trustgrid_tenant_rejected_jobs_total", "429-rejected submissions per tenant.",
		func(t string) float64 { return float64(rep.Tenants[t].Rejected) })
	fmt.Fprintf(&b, "# HELP trustgrid_tenant_queued_jobs Jobs accepted but not yet placed, per tenant.\n"+
		"# TYPE trustgrid_tenant_queued_jobs gauge\n")
	for _, id := range ids {
		fmt.Fprintf(&b, "trustgrid_tenant_queued_jobs{tenant=%q} %g\n",
			id, float64(rep.Tenants[id].Queued))
	}

	// Per-shard series (sharded daemons only): shard index as a label,
	// in shard order, so dashboards can spot a skewed partition.
	if len(rep.Shards) > 0 {
		sg := func(name, help string, val func(sm *ShardMetrics) float64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for i := range rep.Shards {
				fmt.Fprintf(&b, "%s{shard=\"%d\"} %g\n", name, rep.Shards[i].Shard, val(&rep.Shards[i]))
			}
		}
		sg("trustgrid_shard_sites_alive", "Sites in service per shard.",
			func(sm *ShardMetrics) float64 { return float64(sm.SitesAlive) })
		sg("trustgrid_shard_seen_jobs", "Jobs ingested per shard.",
			func(sm *ShardMetrics) float64 { return float64(sm.Seen) })
		sg("trustgrid_shard_in_flight_jobs", "Ingested jobs not yet completed, per shard.",
			func(sm *ShardMetrics) float64 { return float64(sm.InFlight) })
		sg("trustgrid_shard_batches", "Scheduling rounds that dispatched jobs, per shard.",
			func(sm *ShardMetrics) float64 { return float64(sm.Batches) })
		sg("trustgrid_shard_virtual_time_seconds", "Shard virtual clock.",
			func(sm *ShardMetrics) float64 { return sm.VirtualNow })
		sg("trustgrid_shard_sched_latency_p99_milliseconds", "Submit-to-first-placement latency p99 per shard.",
			func(sm *ShardMetrics) float64 { return sm.Latency.P99 })
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// phaseHistogram writes the samples of one phase label of a histogram
// whose HELP and TYPE lines are written: cumulative buckets, then sum and
// count, as the exposition format defines them.
func phaseHistogram(b *strings.Builder, name, phase string, c obs.Counts) {
	var cum uint64
	for k, n := range c.Buckets {
		cum += n
		le := strconv.FormatFloat(obs.UpperBound(k), 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{phase=%q,le=%q} %d\n", name, phase, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{phase=%q} %g\n", name, phase, c.Sum.Seconds())
	fmt.Fprintf(b, "%s_count{phase=%q} %d\n", name, phase, cum)
}

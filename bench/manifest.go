package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is the measured window the driver asks for.
const runSeconds = 20

// metricDef declares one reported metric, in BENCHMARK.json's own shape
// (per-layer metrics have no bound). The tables below are the one place
// metrics are named: the result line, the report, -compare and
// BENCHMARK.json (bench -manifest) all derive from them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service would see. Every
// workload reports every one; README.md says what each means on a
// replay and on a live workload. Bound is the share of the parent's
// median a change may lose before it counts as a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "place_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "place_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "makespan_ratio", Unit: "ratio", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, named <module>.<metric>.
// They come from the traced run: client-side spans and counters of the
// end-to-end run, plus in-process probes around each module's exported
// entry points, shaped like the workload they annotate.
var perLayer = []metricDef{
	// GA path: moves replay-nas-stga.
	{Name: "stga.schedule_ms_per_round", Unit: "ms", Better: "lower"},
	{Name: "stga.history_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "stga.train_s", Unit: "s", Better: "lower"},
	{Name: "stga.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "ga.run_ms", Unit: "ms", Better: "lower"},
	{Name: "ga.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rng.draws_per_us", Unit: "1/us", Better: "higher"},
	// Kernel and greedy path: moves live-wide-minmin.
	{Name: "kernel.build_ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "kernel.build_us_per_round", Unit: "us", Better: "lower"},
	{Name: "kernel.allocs_per_round", Unit: "count", Better: "lower"},
	{Name: "heuristics.schedule_us_per_round", Unit: "us", Better: "lower"},
	{Name: "heuristics.schedule_ns_per_job_site", Unit: "ns", Better: "lower"},
	// Durable path: moves the two PSA workloads.
	{Name: "wal.append_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "wal.replay_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sched.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_durable_us_per_job", Unit: "us", Better: "lower"},
	{Name: "server.restart_s", Unit: "s", Better: "lower"},
	{Name: "server.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "server.recover_records", Unit: "count", Better: "lower"},
	{Name: "server.recover_lost_jobs", Unit: "count", Better: "lower"},
	{Name: "server.ack_stall_count", Unit: "count", Better: "lower"},
	{Name: "server.ack_stall_ms_max", Unit: "ms", Better: "lower"},
	// Engine loop.
	{Name: "sched.engine_us_per_job", Unit: "us", Better: "lower"},
	{Name: "sched.engine_allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "sched.retries_per_job", Unit: "ratio", Better: "lower"},
	{Name: "sched.events_per_job", Unit: "ratio", Better: "lower"},
	{Name: "sched.rounds", Unit: "count", Better: "higher"},
	{Name: "sched.batch_p50", Unit: "count", Better: "lower"},
	{Name: "sched.batch_max", Unit: "count", Better: "lower"},
	// Coordinator: moves replay-psa-durable only.
	{Name: "sched.barrier_us_per_round", Unit: "us", Better: "lower"},
	{Name: "sched.merge_ns_per_event", Unit: "ns", Better: "lower"},
	// HTTP surface and client.
	{Name: "api.decode_us_per_job", Unit: "us", Better: "lower"},
	{Name: "server.submit_us_per_job", Unit: "us", Better: "lower"},
	{Name: "server.advance_us_per_round", Unit: "us", Better: "lower"},
	{Name: "server.events_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "server.http_overhead_us_per_req", Unit: "us", Better: "lower"},
	{Name: "client.events_us_per_event", Unit: "us", Better: "lower"},
	{Name: "client.submit_encode_us_per_job", Unit: "us", Better: "lower"},
	// Client-side spans of the replay loop (zero on live workloads).
	{Name: "span.submit_share", Unit: "ratio", Better: "lower"},
	{Name: "span.advance_share", Unit: "ratio", Better: "lower"},
	{Name: "span.events_share", Unit: "ratio", Better: "lower"},
	{Name: "span.client_self_share", Unit: "ratio", Better: "lower"},
	{Name: "span.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "span.advance_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "span.drain_s", Unit: "s", Better: "lower"},
	// Declared gap: no end-to-end workload runs the fleet or DAG jobs.
	{Name: "fleet.barrier_rtt_us", Unit: "us", Better: "lower"},
	{Name: "fleet.submit_us_per_job", Unit: "us", Better: "lower"},
	{Name: "dag.ranks_us_per_round", Unit: "us", Better: "lower"},
	{Name: "dag.release_ns_per_job", Unit: "ns", Better: "lower"},
	// The host's speed against the reference host, over the measured
	// window and over set-up: what the normalised timings were divided by.
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
	{Name: "host.setup_speed", Unit: "ratio", Better: "higher"},
	// Diagnostics: too unsteady to gate (README.md, "Not gated").
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.blocked_frac", Unit: "ratio", Better: "lower"},
	{Name: "gen.event_gap_count", Unit: "count", Better: "lower"},
	{Name: "tail.place_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.place_max_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.within_3_ticks_frac", Unit: "ratio", Better: "higher"},
	{Name: "sut.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "sut.cpu_ms_per_kjob", Unit: "ms", Better: "lower"},
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{Name: w.name, Why: w.why})
	}
	return m
}

func printManifest(stdout, stderr io.Writer) int {
	raw, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return 0
}

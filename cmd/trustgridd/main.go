// Command trustgridd is the online trusted-scheduling daemon: a
// long-running HTTP service that accepts job submissions, buffers them
// into batch intervals, schedules each batch with any of the paper's
// algorithms (the STGA carries its similarity-indexed history across
// rounds), and streams placement/completion events back.
//
// Usage:
//
//	trustgridd [-config FILE]
//	           [-addr :8421] [-workload psa|nas] [-algo minmin|...|stga]
//	           [-mode secure|risky|frisky] [-f 0.5] [-seed 1]
//	           [-batch SECONDS] [-tick 100ms] [-manual] [-shards N]
//	           [-workers ADDR1,ADDR2,...] [-scale small|paper]
//	           [-round-budget N] [-trace-out FILE] [-max-wall DURATION]
//	           [-pprof-addr ADDR]
//	           [-churn-mtbf SECONDS] [-churn-outage SECONDS]
//	           [-churn-horizon SECONDS] [-churn-trace FILE]
//	           [-reputation] [-deceptive-frac F] [-deceptive-gap G]
//	           [-wal-dir DIR] [-snapshot-every N] [-wal-keep N]
//
// Every tick of wall-clock time the virtual clock advances by one batch
// interval and a scheduling round fires; -manual disables the ticker so
// clients drive the clock through /v1/advance and /v1/drain (the
// deterministic trace-replay mode). -trace-out records the accepted
// arrival trace; replaying it reproduces every placement byte-for-byte
// (DESIGN.md §6). SIGINT/SIGTERM (or -max-wall expiring) shuts down
// gracefully: accepted jobs are drained in virtual time and the final
// summary is printed.
//
// The dynamic-grid flags (DESIGN.md §7) put the daemon on a churning
// platform: -churn-mtbf enables a generated join/leave/degrade schedule
// (or load one with -churn-trace, e.g. from tracegen -churn),
// -reputation re-derives the scheduler-visible trust vector online from
// observed job outcomes, and -deceptive-frac/-deceptive-gap make a
// fraction of sites truly run below what they declare. Live site state
// streams at /v1/sites and through site_* events on /v1/events.
//
// Every flag can also come from a flat YAML config file (-config, or
// the TRUSTGRIDD_CONFIG environment variable; keys are flag names) or
// from TRUSTGRIDD_* environment overrides, with fixed precedence:
// flag > environment > file > default (internal/config).
//
// -wal-dir makes the daemon durable (DESIGN.md §10): accepted
// submissions, tenant registrations and the churn trace are written to
// a write-ahead log (committed before the request is acknowledged) and
// the full scheduling state is snapshotted every -snapshot-every
// records. On boot the daemon recovers from the latest snapshot plus
// the WAL tail — in manual mode, placements after recovery are
// byte-identical to a run that never crashed.
//
// -shards N splits the engine into N shards behind an in-process
// coordinator (DESIGN.md §11): sites are partitioned round-robin,
// tenants are routed to shards by a stable hash of their id, and every
// clock advance fans out to all shards as a shared Δ-round barrier
// whose merged event stream carries one total order (time, then shard
// index). Per-shard gauges appear under /v2/metrics and /metrics.prom;
// a durable sharded daemon keeps one WAL segment stream per shard
// under -wal-dir, and recovery refuses a directory written under a
// different shard count.
//
// -workers moves the shards out of process (DESIGN.md §12): each
// address is one trustgrid-worker hosting one shard behind a framed
// TCP protocol, attached in list order (worker i is shard i). The
// fleet is byte-identical to -shards N. Durability becomes
// worker-owned — run each worker with -wal and restart it in place; a
// down worker's tenants get 503s until it reattaches at the next
// barrier, while the rest of the fleet keeps scheduling. -workers is
// mutually exclusive with -wal-dir and overrides -shards.
//
// The daemon serves the multi-tenant /v2 API alongside the /v1 shim
// (DESIGN.md §9): tenants register over POST /v2/tenants (their own
// weight, queue quota, SD defaults and risk policy), submit to
// /v2/tenants/{id}/jobs, and -round-budget caps each Δ-round's batch —
// under backlog, jobs enter rounds in weighted deficit-round-robin
// order by tenant. Prometheus counters are at /metrics.prom.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trustgrid/internal/config"
	"trustgrid/internal/experiments"
	"trustgrid/internal/fuzzy"
	"trustgrid/internal/grid"
	"trustgrid/internal/rng"
	"trustgrid/internal/sched"
	"trustgrid/internal/server"
	"trustgrid/internal/stats"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that opens connections and stalls cannot
// hold them open forever. Bodies are bounded by size in the handlers.
const readHeaderTimeout = 10 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trustgridd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "flat YAML config file; keys are flag names (precedence: flag > TRUSTGRIDD_* env > file > default)")
	addr := fs.String("addr", ":8421", "HTTP listen address")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address for production profiling of the scheduling kernel (empty = disabled)")
	workload := fs.String("workload", "psa", "platform family: psa (20 sites) or nas (12 sites)")
	algo := fs.String("algo", "minmin", "scheduler: minmin, sufferage, mct, met, olb, random, stga, coldga")
	mode := fs.String("mode", "frisky", "heuristic admission mode: secure, risky, frisky")
	f := fs.Float64("f", 0.5, "f-risky threshold")
	seed := fs.Uint64("seed", 1, "root seed for every stochastic decision")
	batch := fs.Float64("batch", 0, "virtual seconds per scheduling round (0 = workload default)")
	tick := fs.Duration("tick", 100*time.Millisecond, "wall-clock duration of one batch interval (live mode)")
	manual := fs.Bool("manual", false, "manual clock: clients drive /v1/advance and /v1/drain")
	shards := fs.Int("shards", 1, "engine shards behind the in-process coordinator: sites are partitioned, tenants are hash-routed, and every Δ-round is a shared clock barrier (1 = the single unsharded engine)")
	workers := fs.String("workers", "", "comma-separated trustgrid-worker addresses; each hosts one out-of-process shard (worker i is shard i — keep the order stable across restarts). Mutually exclusive with -wal-dir; byte-identical to -shards N")
	roundBudget := fs.Int("round-budget", 0, "max jobs admitted per Δ-round; excess backlog is rationed by weighted deficit-round-robin across tenants (0 = unlimited)")
	scale := fs.String("scale", "small", "GA sizing: small (service defaults) or paper (Table 1)")
	rngVersion := fs.Int("rng-version", 1, "GA draw contract: 1 = original serial sequence, 2 = batched per-phase lanes (faster; different schedules). Part of the durable-state and fleet fingerprints: every fleet member and every restart must agree")
	train := fs.Bool("train", true, "warm the STGA history table before serving")
	traceOut := fs.String("trace-out", "", "record the accepted arrival trace (JSONL) to FILE")
	maxWall := fs.Duration("max-wall", 0, "exit cleanly after this wall-clock duration (0 = until signalled)")
	churnMTBF := fs.Float64("churn-mtbf", 0, "enable generated site churn with this mean up-time between incidents, virtual seconds (0 = no churn)")
	churnOutage := fs.Float64("churn-outage", 0, "mean crash/drain down-time, virtual seconds (0 = horizon/20)")
	churnHorizon := fs.Float64("churn-horizon", 500000, "virtual seconds of generated churn")
	churnTrace := fs.String("churn-trace", "", "load a churn trace (JSONL, e.g. from tracegen -churn) instead of generating one")
	reputation := fs.Bool("reputation", false, "re-derive the trust vector online from observed job outcomes")
	deceptiveFrac := fs.Float64("deceptive-frac", 0, "fraction of sites whose true security level sits below their declaration")
	deceptiveGap := fs.Float64("deceptive-gap", 0.4, "how far below declaration a deceptive site truly runs")
	walDir := fs.String("wal-dir", "", "durable-state directory (WAL + snapshots); on boot the daemon recovers queues, tenants and scheduler state from it (empty = stateless)")
	snapshotEvery := fs.Int("snapshot-every", 0, "write a state snapshot every N WAL records (0 = server default)")
	walKeep := fs.Int("wal-keep", 0, "snapshots to retain; older snapshots and fully-covered WAL segments are removed (0 = server default, -1 = keep everything)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Layer config-file values and TRUSTGRIDD_* environment overrides
	// under the explicit flags. TRUSTGRIDD_CONFIG can name the file when
	// -config is absent (the one env override Apply leaves to us).
	path := *configPath
	if path == "" {
		path = os.Getenv("TRUSTGRIDD_CONFIG")
	}
	var fileVals map[string]string
	if path != "" {
		var err error
		if fileVals, err = config.Load(path); err != nil {
			fmt.Fprintln(stderr, "trustgridd:", err)
			return 2
		}
	}
	if err := config.Apply(fs, "TRUSTGRIDD", fileVals); err != nil {
		fmt.Fprintln(stderr, "trustgridd:", err)
		return 2
	}
	// Reject dependent flags whose primary is absent: a dynamics knob
	// that silently does nothing would make the operator measure the
	// wrong scenario. Visit runs after Apply, so file- and env-set knobs
	// are held to the same rule as command-line ones.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if (explicit["churn-outage"] || explicit["churn-horizon"]) && *churnMTBF == 0 {
		fmt.Fprintln(stderr, "trustgridd: -churn-outage/-churn-horizon only shape generated churn; set -churn-mtbf (a -churn-trace carries its own schedule)")
		return 2
	}
	if explicit["deceptive-gap"] && *deceptiveFrac == 0 {
		fmt.Fprintln(stderr, "trustgridd: -deceptive-gap requires -deceptive-frac > 0")
		return 2
	}

	setup := experiments.DefaultSetup()
	if *scale == "small" {
		setup = experiments.TestSetup()
	} else if *scale != "paper" {
		fmt.Fprintf(stderr, "trustgridd: unknown scale %q\n", *scale)
		return 2
	}
	setup.Seed = *seed
	setup.F = *f
	if _, err := rng.ParseVersion(*rngVersion); err != nil {
		fmt.Fprintln(stderr, "trustgridd:", err)
		return 2
	}
	setup.RNGVersion = *rngVersion

	var w *experiments.Workload
	var err error
	switch *workload {
	case "psa":
		w, err = setup.PSAWorkload(*seed, 1)
	case "nas":
		setup.NASJobs = 1 // the service only needs the platform + training set
		w, err = setup.NASWorkload(*seed)
	default:
		fmt.Fprintf(stderr, "trustgridd: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "trustgridd:", err)
		return 1
	}
	if *batch <= 0 {
		*batch = w.Batch
	}
	training := w.Training
	if !*train {
		training = nil
	}

	var traceW *bufio.Writer
	if *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "trustgridd:", err)
			return 1
		}
		defer fh.Close()
		traceW = bufio.NewWriter(fh)
		// Flush on every exit path: a crashed daemon's trace must stay
		// replayable (§6.5). The success path flushes again, reporting
		// errors; this one is the safety net for early returns.
		defer func() { _ = traceW.Flush() }()
	}

	var dyn *sched.DynamicsConfig
	if *churnTrace != "" || *churnMTBF > 0 || *reputation || *deceptiveFrac > 0 {
		dyn = &sched.DynamicsConfig{}
		switch {
		case *churnTrace != "":
			fh, err := os.Open(*churnTrace)
			if err != nil {
				fmt.Fprintln(stderr, "trustgridd:", err)
				return 1
			}
			dyn.Churn, err = grid.ReadChurnTrace(fh)
			fh.Close()
			if err != nil {
				fmt.Fprintln(stderr, "trustgridd:", err)
				return 1
			}
		case *churnMTBF > 0:
			ccfg := grid.DefaultChurnConfig(*churnHorizon)
			ccfg.MTBF = *churnMTBF
			if *churnOutage > 0 {
				ccfg.Outage = *churnOutage
			}
			var err error
			dyn.Churn, err = ccfg.Generate(rng.New(*seed).Derive("churn"), len(w.Sites))
			if err != nil {
				fmt.Fprintln(stderr, "trustgridd:", err)
				return 1
			}
		}
		if *reputation {
			repCfg := fuzzy.DefaultReputationConfig()
			dyn.Reputation = &repCfg
		}
		if *deceptiveFrac > 0 {
			dyn.TrueLevels = grid.DeceptiveLevels(w.Sites, *deceptiveFrac, *deceptiveGap,
				rng.New(*seed).Derive("deceptive"))
		}
	}

	cfg := server.Config{
		Sites: w.Sites, Training: training,
		Algo: *algo, Mode: *mode, BatchInterval: *batch,
		Seed: *seed, Setup: setup, Tick: *tick, Manual: *manual,
		Shards: *shards, Dynamics: dyn, RoundBudget: *roundBudget,
		WALDir: *walDir, SnapshotEvery: *snapshotEvery, WALKeep: *walKeep,
	}
	if *workers != "" {
		for _, addr := range strings.Split(*workers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				cfg.Workers = append(cfg.Workers, addr)
			}
		}
	}
	if traceW != nil {
		cfg.TraceWriter = traceW
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "trustgridd:", err)
		return 1
	}
	if *walDir != "" {
		fmt.Fprintf(stdout, "trustgridd: durable state in %s\n", *walDir)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "trustgridd:", err)
		return 1
	}
	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling surface
		// stays off the public API port and off by default.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "trustgridd:", err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Handler: pmux}
		go func() { _ = psrv.Serve(pln) }()
		defer psrv.Close()
		fmt.Fprintf(stdout, "trustgridd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	clock := fmt.Sprintf("tick %s", *tick)
	if *manual {
		clock = "manual clock"
	}
	fmt.Fprintf(stdout, "trustgridd: serving on http://%s (%s sites, algo %s/%s, Δ=%gs, %s, seed %d)\n",
		ln.Addr(), w.Name, *algo, *mode, *batch, clock, *seed)

	// BaseContext flows into every request context: cancelling it on
	// shutdown releases /v1/events followers, which would otherwise hold
	// open connections for the whole Shutdown timeout.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	hs := &http.Server{
		Handler:           srv.Handler(),
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
		ReadHeaderTimeout: readHeaderTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var wallC <-chan time.Time
	if *maxWall > 0 {
		wallC = time.After(*maxWall)
	}
	loopFailed := false
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "trustgridd:", err)
			return 1
		}
	case s := <-sig:
		fmt.Fprintf(stdout, "trustgridd: received %s, draining\n", s)
	case <-wallC:
		fmt.Fprintln(stdout, "trustgridd: max-wall reached, draining")
	case <-srv.Done():
		// The scheduling loop died on its own; don't linger as a zombie
		// serving 503s. Stop below surfaces the cause.
		loopFailed = true
		fmt.Fprintln(stderr, "trustgridd: scheduling loop exited, shutting down")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	baseCancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "trustgridd: http shutdown:", err)
	}
	res, err := srv.Stop(!loopFailed)
	if err != nil {
		fmt.Fprintln(stderr, "trustgridd: drain:", err)
		return 1
	}
	if loopFailed {
		return 1
	}
	if traceW != nil {
		if err := traceW.Flush(); err != nil {
			fmt.Fprintln(stderr, "trustgridd: trace flush:", err)
			return 1
		}
	}
	s := res.Summary
	fmt.Fprintf(stdout, "trustgridd: done — %d jobs in %d batches, makespan %s, avg response %s, %d risk-takers, %d failures\n",
		s.Jobs, res.Batches, stats.HumanSeconds(s.Makespan), stats.HumanSeconds(s.AvgResponse), s.NRisk, s.NFail)
	return 0
}

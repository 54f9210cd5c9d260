package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/server"
)

// childEnv names the variable that turns this binary into the system
// under test: its value is the path of a childConfig JSON file.
const childEnv = "TRUSTGRID_BENCH_CHILD"

// usage is the child's own resource accounting, served beside the
// daemon's API so the parent can window CPU time exactly. (The child also
// serves /bench/ref: one timing of the reference kernel, hostspeed.go.)
type usage struct {
	CPUMicros int64 `json:"cpu_us"`     // user + system
	MaxRSSKB  int64 `json:"max_rss_kb"` // peak resident set
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	micros := func(tv syscall.Timeval) int64 { return int64(tv.Sec)*1e6 + int64(tv.Usec) }
	return usage{CPUMicros: micros(ru.Utime) + micros(ru.Stime), MaxRSSKB: int64(ru.Maxrss)}
}

// drainReport is the child's last word after a graceful stop.
type drainReport struct {
	Summary metrics.Summary `json:"summary"`
	Batches int             `json:"batches"`
}

// childMain hosts server.New(cfg).Handler() on a loopback listener. It
// prints "READY <addr>" once serving; on SIGTERM it drains in virtual
// time, prints "SUMMARY <json>" and exits 0. It exits when its parent is
// gone, so an orphaned child never outlives the benchmark. (It polls for
// that: a goroutine parked in a blocking read of stdin held the child's
// only P until sysmon took it back, up to 10 ms into every start-up.)
func childMain(cfgPath string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cc childConfig
	if err := json.Unmarshal(raw, &cc); err != nil {
		return fail(err)
	}
	wl, err := findWorkload(cc.Workload)
	if err != nil {
		return fail(err)
	}
	w := *wl
	if cc.Quick {
		w = w.quick()
	}
	var churn []grid.ChurnEvent
	if cc.ChurnFile != "" {
		if churn, err = readChurn(cc.ChurnFile); err != nil {
			return fail(err)
		}
	}
	cfg, err := w.serverConfig(cc.WALDir, churn)
	if err != nil {
		return fail(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/usage", func(rw http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(rw).Encode(readUsage())
	})
	mux.HandleFunc("GET /bench/ref", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, "%d\n", timeRefKernel().Nanoseconds())
	})
	mux.Handle("/", srv.Handler())
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	hs := &http.Server{Handler: mux, BaseContext: func(net.Listener) context.Context { return baseCtx }}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	orphaned := make(chan struct{})
	go func() {
		for os.Getppid() == cc.ParentPID {
			time.Sleep(100 * time.Millisecond)
		}
		close(orphaned)
	}()
	fmt.Printf("READY %s\n", ln.Addr())

	select {
	case err := <-serveErr:
		return fail(err)
	case <-srv.Done():
		_, err := srv.Stop(false)
		return fail(fmt.Errorf("scheduling loop exited: %v", err))
	case <-orphaned:
		return 3
	case <-sig:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	baseCancel() // releases event followers
	_ = hs.Shutdown(ctx)
	res, err := srv.Stop(true)
	if err != nil {
		return fail(fmt.Errorf("drain: %w", err))
	}
	out, err := json.Marshal(drainReport{Summary: res.Summary, Batches: res.Batches})
	if err != nil {
		return fail(err)
	}
	fmt.Printf("SUMMARY %s\n", out)
	return 0
}

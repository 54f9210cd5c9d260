package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"trustgrid/internal/client"
)

// harness owns everything one benchmark invocation creates outside its
// own memory: the work directory and the child processes. close reaps
// and removes all of it, on success and on failure alike.
type harness struct {
	w     workload
	quick bool
	exe   string
	dir   string // work directory inside the checkout

	mu       sync.Mutex
	children []*sut
}

func newHarness(w workload, quick bool) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Durable state goes under the current directory, never a shared
	// temp location: the run reads and writes only inside its checkout,
	// and fsync costs what the checkout's filesystem makes it cost.
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	return &harness{w: w, quick: quick, exe: exe, dir: dir}, nil
}

// childProcs is the system under test's GOMAXPROCS: every CPU but one,
// which is left to this process, so the load generator does not compete
// with what it measures. (On the 2-CPU box the benchmark was sized on,
// letting both processes use both CPUs was slower and twice as noisy.)
func childProcs() int { return max(runtime.NumCPU()-1, 1) }

// workRoot is where every invocation keeps its scratch state.
const workRoot = ".bench_work"

func (h *harness) close() {
	h.mu.Lock()
	kids := append([]*sut(nil), h.children...)
	h.mu.Unlock()
	for _, s := range kids {
		s.kill()
	}
	_ = os.RemoveAll(h.dir)
	_ = os.Remove(workRoot) // only succeeds when no other run is using it
}

// childStderr returns what the children wrote to standard error, for the
// message of a failed run (the children are reaped first, which is what
// makes their buffers safe to read).
func (h *harness) childStderr() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out strings.Builder
	for i, s := range h.children {
		s.kill()
		if s.stderr.Len() > 0 {
			fmt.Fprintf(&out, "\nchild %d stderr:\n%s", i+1, s.stderr.String())
		}
	}
	return out.String()
}

// sut is one child process hosting the system under test.
type sut struct {
	cmd    *exec.Cmd
	out    *bufio.Reader
	stderr bytes.Buffer
	base   string
	// ctl is the parent's one control/submit connection; events uses a
	// second one. Together they are the benchmark's whole client side.
	ctl    *http.Client
	events *http.Client
	c      *client.Client
	reaped bool
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// spawn starts a child on walDir (ignored by workloads without a WAL)
// and returns once GET /v2/healthz answers 200.
func (h *harness) spawn(walDir, churnFile string) (*sut, error) {
	h.mu.Lock()
	cfgPath := filepath.Join(h.dir, fmt.Sprintf("child-%d.json", len(h.children)+1))
	h.mu.Unlock()
	raw, err := json.Marshal(childConfig{Workload: h.w.name, Quick: h.quick, ParentPID: os.Getpid(), WALDir: walDir, ChurnFile: churnFile})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}
	s := &sut{cmd: exec.Command(h.exe), ctl: oneConnClient(), events: oneConnClient()}
	s.cmd.Env = append(os.Environ(), childEnv+"="+cfgPath, fmt.Sprintf("GOMAXPROCS=%d", childProcs()))
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.out = bufio.NewReader(stdout)
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.children = append(h.children, s)
	h.mu.Unlock()
	line, err := s.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "READY ") {
		s.kill()
		return nil, fmt.Errorf("child did not come up (%q, %v); stderr:\n%s", line, err, s.stderr.String())
	}
	s.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, "READY "))
	s.c = client.New(s.base).WithHTTPClient(s.ctl)
	resp, err := s.ctl.Get(s.base + "/v2/healthz")
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.kill()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

// kill is SIGKILL plus reaping; safe to call on a child already gone.
func (s *sut) kill() {
	if s.reaped {
		return
	}
	_ = s.cmd.Process.Kill()
	s.wait()
}

func (s *sut) wait() {
	_, _ = io.Copy(io.Discard, s.out) // Wait closes the pipe; drain it first
	_ = s.cmd.Wait()
	s.reaped = true
	s.ctl.CloseIdleConnections()
	s.events.CloseIdleConnections()
}

// term stops the child gracefully and returns the drain report it
// prints after scheduling everything accepted to completion.
func (s *sut) term() (*drainReport, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	var rep *drainReport
	for {
		line, err := s.out.ReadString('\n')
		if strings.HasPrefix(line, "SUMMARY ") {
			rep = &drainReport{}
			if jerr := json.Unmarshal([]byte(strings.TrimPrefix(line, "SUMMARY ")), rep); jerr != nil {
				s.kill()
				return nil, jerr
			}
		}
		if err != nil {
			break
		}
	}
	s.wait()
	if rep == nil {
		return nil, fmt.Errorf("child exited without a drain summary (%v); stderr:\n%s", s.cmd.ProcessState, s.stderr.String())
	}
	return rep, nil
}

// usage reads the child's own CPU and memory accounting.
func (s *sut) usage(ctx context.Context) (usage, error) {
	var u usage
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/bench/usage", nil)
	if err != nil {
		return u, err
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return u, err
	}
	defer resp.Body.Close()
	return u, json.NewDecoder(resp.Body).Decode(&u)
}

// refSample times the reference kernel inside the child: in the process,
// and on the one P, that do the measured work.
func (s *sut) refSample(ctx context.Context) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/bench/ref", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.ctl.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ns int64
	if _, err := fmt.Fscan(resp.Body, &ns); err != nil {
		return 0, fmt.Errorf("reference sample: %w", err)
	}
	return time.Duration(ns), nil
}

// setup spawns a child and registers the workload's tenants, returning
// the time from spawn to ready-with-tenants.
func (h *harness) setup(ctx context.Context, walDir, churnFile string) (*sut, time.Duration, error) {
	start := time.Now()
	s, err := h.spawn(walDir, churnFile)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range h.w.tenants {
		if _, err := s.c.CreateTenant(ctx, t); err != nil {
			s.kill()
			return nil, 0, fmt.Errorf("register tenant %s: %w", t.ID, err)
		}
	}
	return s, time.Since(start), nil
}

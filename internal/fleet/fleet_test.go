package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

func testSpec(algo string) *Spec {
	return &Spec{
		Sites: []*grid.Site{
			{ID: 0, Speed: 10, Nodes: 8, SecurityLevel: 0.95},
			{ID: 1, Speed: 20, Nodes: 16, SecurityLevel: 0.5},
			{ID: 2, Speed: 5, Nodes: 4, SecurityLevel: 0.8},
			{ID: 3, Speed: 15, Nodes: 8, SecurityLevel: 0.7},
		},
		Algo:          algo,
		Mode:          "frisky",
		BatchInterval: 500,
		Seed:          42,
		Setup:         experiments.DefaultSetup(),
		Shards:        1,
	}
}

func testJobs(n int) []*grid.Job {
	jobs := make([]*grid.Job, n)
	for i := range jobs {
		window := float64(i / 4)
		jobs[i] = &grid.Job{
			ID:             i + 1,
			Arrival:        window*500 + 50 + float64(i%4)*100,
			Workload:       300 + float64(i%5)*120,
			Nodes:          1,
			SecurityDemand: 0.3 + float64(i%7)*0.1,
			Tenant:         fmt.Sprintf("t%d", i%3),
		}
	}
	return jobs
}

func cloneJob(j *grid.Job) *grid.Job { cp := *j; return &cp }

func TestFrameRoundTrip(t *testing.T) {
	spec := testSpec("minmin")
	in := frame{
		Type: frameAttach, Version: ProtoVersion, Spec: spec, Shard: 2, Since: 17,
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out frame
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Type != frameAttach || out.Version != ProtoVersion || out.Shard != 2 || out.Since != 17 {
		t.Fatalf("round trip mangled header fields: %+v", out)
	}
	inFP, _ := in.Spec.Fingerprint()
	outFP, err := out.Spec.Fingerprint()
	if err != nil || outFP != inFP {
		t.Fatalf("spec fingerprint changed across the wire: %q -> %q (%v)", inFP, outFP, err)
	}

	// A corrupt length prefix is refused at read time, before any
	// allocation in its image.
	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	if err := readFrame(bad, &out); err == nil {
		t.Fatal("absurd length prefix accepted")
	}
}

func TestSpecFingerprint(t *testing.T) {
	a, err := testSpec("minmin").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec("minmin").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical specs fingerprint differently: %q vs %q", a, b)
	}
	changed := testSpec("minmin")
	changed.Seed++
	c, err := changed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seeds share a fingerprint")
	}
}

func TestEventRingHorizon(t *testing.T) {
	r := eventRing{max: 8}
	for i := 1; i <= 12; i++ {
		r.append(seqEvent{Seq: uint64(i)})
	}
	// Capacity trims drop the oldest half; the tail must stay
	// contiguous and addressable.
	evs, err := r.after(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Seq != 9 || evs[len(evs)-1].Seq != 12 {
		t.Fatalf("after(8) = %+v, want seqs 9..12", evs)
	}
	if _, err := r.after(0); err == nil {
		t.Fatal("evicted horizon served without error")
	}
	if evs, err := r.after(12); err != nil || len(evs) != 0 {
		t.Fatalf("after(head) = %v, %v; want empty, nil", evs, err)
	}
}

// startWorker serves a worker on a fresh loopback listener (or, when
// addr is non-empty, re-listens on that exact address — the restart
// path) and returns it with its address.
func startWorker(t *testing.T, cfg WorkerConfig, addr string) (*Worker, string) {
	t.Helper()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })
	return w, ln.Addr().String()
}

// driveLocal runs the reference: an in-process engine built from the
// same ShardConfig the worker derives, fed the same operations.
func driveLocal(t *testing.T, spec *Spec, jobs []*grid.Job, horizon float64) ([]sched.EngineEvent, *sched.Result) {
	t.Helper()
	cfg, err := spec.ShardConfig(0, false)
	if err != nil {
		t.Fatal(err)
	}
	var events []sched.EngineEvent
	cfg.OnEvent = func(ev sched.EngineEvent) { events = append(events, ev) }
	eng, err := sched.NewOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for tick := spec.BatchInterval; tick <= horizon; tick += spec.BatchInterval {
		for next < len(jobs) && jobs[next].Arrival < tick {
			if err := eng.Submit(cloneJob(jobs[next])); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := eng.AdvanceTo(tick); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// TestWorkerLoopbackParity drives one worker over real TCP with the
// exact operation sequence an in-process engine gets, and demands the
// identical event stream and drain result on both sides.
func TestWorkerLoopbackParity(t *testing.T) {
	for _, algo := range []string{"minmin", "stga"} {
		t.Run(algo, func(t *testing.T) {
			spec := testSpec(algo)
			jobs := testJobs(24)
			const horizon = 3000

			wantEvents, wantRes := driveLocal(t, spec, jobs, horizon)
			if len(wantEvents) == 0 {
				t.Fatal("reference run produced no events; test is vacuous")
			}

			_, addr := startWorker(t, WorkerConfig{Heartbeat: 50 * time.Millisecond}, "")
			rs, err := Dial(addr, spec, 0, DialConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			var got []sched.EngineEvent
			rs.SetEventSink(func(ev sched.EngineEvent) { got = append(got, ev) })

			next := 0
			for tick := spec.BatchInterval; tick <= horizon; tick += spec.BatchInterval {
				for next < len(jobs) && jobs[next].Arrival < tick {
					if err := rs.Submit(cloneJob(jobs[next])); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if err := rs.AdvanceTo(tick); err != nil {
					t.Fatal(err)
				}
				if now := rs.Now(); now != tick {
					t.Fatalf("cached Now = %v after AdvanceTo(%v)", now, tick)
				}
			}
			res, err := rs.Drain()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("event streams diverge: remote %d events, local %d", len(got), len(wantEvents))
			}
			if got, want := res.Summary, wantRes.Summary; !reflect.DeepEqual(got, want) {
				t.Fatalf("drain summaries diverge:\nremote %+v\nlocal  %+v", got, want)
			}
			if rs.Seen() != len(jobs) {
				t.Fatalf("cached Seen = %d, want %d", rs.Seen(), len(jobs))
			}
		})
	}
}

// TestWorkerRefusesOtherProtoVersion: an attach from a coordinator of
// another protocol version is refused outright. A version-2 coordinator
// reads a spec with no Setup.RNGVersion as the removed v1 draws.
func TestWorkerRefusesOtherProtoVersion(t *testing.T) {
	_, addr := startWorker(t, WorkerConfig{}, "")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, &frame{Type: frameAttach, Version: 2, Spec: testSpec("minmin")}); err != nil {
		t.Fatal(err)
	}
	var resp frame
	if err := readFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("fleet: protocol version 2, worker speaks %d", ProtoVersion); resp.Type != frameAttached || resp.Err != want {
		t.Fatalf("attach at version 2 got %q %q, want the refusal %q", resp.Type, resp.Err, want)
	}
}

// TestWorkerRefusesMismatchedAttach locks a configured worker to its
// first spec: a different fingerprint or a different shard index is
// turned away instead of silently corrupting the run.
func TestWorkerRefusesMismatchedAttach(t *testing.T) {
	spec := testSpec("minmin")
	_, addr := startWorker(t, WorkerConfig{}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	other := testSpec("minmin")
	other.Seed++
	if _, err := Dial(addr, other, 0, DialConfig{}); err == nil {
		t.Fatal("worker accepted an attach under a different spec fingerprint")
	}
	if _, err := Dial(addr, spec, 1, DialConfig{}); err == nil {
		t.Fatal("worker accepted an attach under a different shard index")
	}
}

// TestWorkerCrashRestartParity kills a durable worker mid-run (no
// goodbye — the socket just dies), restarts it from its WAL on the
// same address, and reattaches by advancing. The surviving RemoteShard
// must deliver the uninterrupted run's exact event stream: replay
// re-derives the worker's event sequence, and the Since watermark
// filters the overlap.
func TestWorkerCrashRestartParity(t *testing.T) {
	spec := testSpec("minmin")
	jobs := testJobs(24)
	const horizon = 3000
	wantEvents, wantRes := driveLocal(t, spec, jobs, horizon)

	dir := t.TempDir()
	w, addr := startWorker(t, WorkerConfig{WALDir: dir, Heartbeat: 50 * time.Millisecond}, "")
	rs, err := Dial(addr, spec, 0, DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var got []sched.EngineEvent
	rs.SetEventSink(func(ev sched.EngineEvent) { got = append(got, ev) })

	next := 0
	advance := func(tick float64) error {
		for next < len(jobs) && jobs[next].Arrival < tick {
			if err := rs.Submit(cloneJob(jobs[next])); err != nil {
				return err
			}
			next++
		}
		return rs.AdvanceTo(tick)
	}
	// First half of the run against the original worker.
	var tick float64
	for tick = spec.BatchInterval; tick <= horizon/2; tick += spec.BatchInterval {
		if err := advance(tick); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: the worker process is gone. Everything acknowledged so far
	// is committed; the coordinator's next submit fails fast.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rs.Down() {
		if time.Now().After(deadline) {
			t.Fatal("remote shard never noticed the dead worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rs.Submit(cloneJob(jobs[next])); err == nil {
		t.Fatal("submit to a dead worker succeeded")
	} else if !errors.Is(err, sched.ErrShardDown) {
		t.Fatalf("submit to a dead worker: %v, want ErrShardDown", err)
	}

	// Restart from the WAL on the same address; the next barrier
	// reattaches and the run continues as if nothing happened.
	if _, addr2 := startWorker(t, WorkerConfig{WALDir: dir, Heartbeat: 50 * time.Millisecond}, addr); addr2 != addr {
		t.Fatalf("restarted worker listens on %s, want %s", addr2, addr)
	}
	// The drive loop submits before it advances, so reattach explicitly
	// (in the daemon the next barrier does this; submissions in the gap
	// are 503s the client retries).
	if err := rs.Reattach(); err != nil {
		t.Fatal(err)
	}
	for ; tick <= horizon; tick += spec.BatchInterval {
		if err := advance(tick); err != nil {
			t.Fatal(err)
		}
	}
	res, err := rs.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("event streams diverge across the crash: got %d events, want %d", len(got), len(wantEvents))
	}
	if !reflect.DeepEqual(res.Summary, wantRes.Summary) {
		t.Fatalf("drain summaries diverge across the crash:\ngot  %+v\nwant %+v", res.Summary, wantRes.Summary)
	}
}

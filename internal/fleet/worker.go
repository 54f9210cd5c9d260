package fleet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"trustgrid/internal/api"
	"trustgrid/internal/experiments"
	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
	"trustgrid/internal/wal"
)

// WorkerConfig configures one trustgrid-worker process.
type WorkerConfig struct {
	// WALDir, when non-empty, makes the shard durable: the worker
	// write-ahead-logs every input (arrivals, weights, barriers, its
	// churn prefix), persists the spec it was configured with, and a
	// restart replays the log — re-deriving the same engine state, the
	// same events and the same event sequence numbers — before
	// reattaching. Empty keeps the shard in memory only.
	WALDir string
	// EventBuffer bounds the retained event ring (default 65536). A
	// reattaching coordinator can only backfill from within the ring;
	// a `since` older than the ring's horizon fails the attach.
	EventBuffer int
	// Heartbeat is the unsolicited status cadence (default 1s). It must
	// be comfortably under the coordinator's TTL: heartbeats are what
	// keep the connection visibly alive through a long advance.
	Heartbeat time.Duration
}

// specFile is the worker's persisted configuration: written on first
// configure, verified on every recovery and reattach. The shard index
// is pinned — a WAL written as shard 2 must never replay into shard 1.
type specFile struct {
	Fingerprint string `json:"fingerprint"`
	Shard       int    `json:"shard"`
	Spec        *Spec  `json:"spec"`
}

// Worker hosts one engine shard behind the fleet protocol. It is
// configured by the first attach (the coordinator ships the Spec) or,
// on restart, by its own persisted spec + WAL before any connection
// arrives. One coordinator connection is active at a time — the latest
// attach wins and the previous connection is closed.
type Worker struct {
	cfg WorkerConfig

	// mu guards the engine, the WAL, the ring and the configured-state
	// fields. Every engine operation — attach-time recovery included —
	// runs under it; the engine's "loop goroutine" is whoever holds it.
	mu    sync.Mutex
	spec  *Spec
	shard int
	fp    string
	eng   *sched.Online
	log   *wal.Set // the shard's one flat log; nil when not durable
	ring  eventRing
	seq   uint64

	// statusMu guards the cached status the heartbeat sender reads; the
	// cache is refreshed at the end of every operation so heartbeats
	// never need mu (a heartbeat must go out even mid-drain — it is
	// what keeps the coordinator's read deadline alive).
	statusMu   sync.Mutex
	lastStatus *shardStatus

	connMu sync.Mutex
	active *wconn

	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// wconn is one coordinator connection: the socket, a write mutex
// (operation responses and heartbeats interleave), and the event
// watermark already delivered on this connection.
type wconn struct {
	c    net.Conn
	wmu  sync.Mutex
	sent uint64
}

func (wc *wconn) write(f *frame) error {
	wc.wmu.Lock()
	defer wc.wmu.Unlock()
	return writeFrame(wc.c, f)
}

// eventRing retains the tail of the shard's event stream, stamped with
// contiguous sequence numbers, so a reconnect can backfill exactly
// what it missed.
type eventRing struct {
	events []seqEvent
	max    int
}

func (r *eventRing) append(e seqEvent) {
	if len(r.events) >= r.max {
		half := (len(r.events) + 1) / 2
		r.events = append(r.events[:0], r.events[half:]...)
	}
	r.events = append(r.events, e)
}

// after returns every retained event with Seq > since, or an error if
// the ring has already evicted part of that range.
func (r *eventRing) after(since uint64) ([]seqEvent, error) {
	if len(r.events) == 0 {
		return nil, nil
	}
	base := r.events[0].Seq
	if since+1 < base {
		return nil, fmt.Errorf("fleet: event horizon lost (need seq %d, ring starts at %d)", since+1, base)
	}
	idx := int(since + 1 - base)
	if idx >= len(r.events) {
		return nil, nil
	}
	out := make([]seqEvent, len(r.events)-idx)
	copy(out, r.events[idx:])
	return out, nil
}

// NewWorker builds a worker. If WALDir holds a persisted spec the
// shard is rebuilt immediately — recovery before reattach, so the
// first attach after a crash finds a caught-up engine.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1 << 16
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	w := &Worker{cfg: cfg, quit: make(chan struct{})}
	w.ring.max = cfg.EventBuffer
	if cfg.WALDir != "" {
		if _, err := os.Stat(w.specPath()); err == nil {
			w.mu.Lock()
			err := w.recoverLocked()
			w.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("fleet: worker recovery: %w", err)
			}
		}
	}
	return w, nil
}

func (w *Worker) specPath() string { return filepath.Join(w.cfg.WALDir, "spec.json") }

// Fingerprint returns the configured spec's fingerprint ("" before the
// first attach configures the worker).
func (w *Worker) Fingerprint() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fp
}

// Serve accepts coordinator connections until Close. It owns the
// listener and the heartbeat sender.
func (w *Worker) Serve(ln net.Listener) error {
	w.wg.Add(1)
	go w.heartbeats()
	defer w.wg.Wait()
	go func() { <-w.quit; ln.Close() }()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-w.quit:
				return nil
			default:
				return err
			}
		}
		w.wg.Add(1)
		go w.handleConn(c)
	}
}

// Close stops the worker: listener, active connection, WAL.
func (w *Worker) Close() error {
	w.once.Do(func() { close(w.quit) })
	w.connMu.Lock()
	if w.active != nil {
		w.active.c.Close()
		w.active = nil
	}
	w.connMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log != nil {
		err := w.log.Close()
		w.log = nil
		return err
	}
	return nil
}

// heartbeats pushes the cached status over the active connection on a
// timer. A write failure closes the connection; the handler's next
// read unblocks and the coordinator redials.
func (w *Worker) heartbeats() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		w.connMu.Lock()
		wc := w.active
		w.connMu.Unlock()
		if wc == nil {
			continue
		}
		w.statusMu.Lock()
		st := w.lastStatus
		w.statusMu.Unlock()
		if st == nil {
			continue
		}
		if err := wc.write(&frame{Type: frameHB, Status: st}); err != nil {
			wc.c.Close()
		}
	}
}

func (w *Worker) setActive(wc *wconn) {
	w.connMu.Lock()
	prev := w.active
	w.active = wc
	w.connMu.Unlock()
	if prev != nil && prev != wc {
		prev.c.Close()
	}
}

// handleConn speaks the protocol on one connection: exactly one attach
// frame, then a request loop. Any protocol error drops the connection;
// the coordinator's reattach logic owns retries.
func (w *Worker) handleConn(c net.Conn) {
	defer w.wg.Done()
	defer c.Close()
	var at frame
	if err := readFrame(c, &at); err != nil {
		return
	}
	wc := &wconn{c: c}
	reply, ok := w.attach(wc, &at)
	if err := wc.write(reply); err != nil || !ok {
		return
	}
	w.setActive(wc)
	for {
		var req frame
		if err := readFrame(c, &req); err != nil {
			return
		}
		if req.Type != frameReq {
			return
		}
		resp := w.handleReq(wc, &req)
		if err := wc.write(resp); err != nil {
			return
		}
	}
}

// attach validates (and on first contact, applies) the coordinator's
// configuration, then computes the event backfill its Since watermark
// asks for. It returns the attached frame and whether the attach is
// accepted.
func (w *Worker) attach(wc *wconn, f *frame) (*frame, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	reject := func(format string, args ...any) (*frame, bool) {
		return &frame{Type: frameAttached, Err: fmt.Sprintf(format, args...)}, false
	}
	if f.Type != frameAttach {
		return reject("fleet: first frame is %q, want attach", f.Type)
	}
	if f.Version != ProtoVersion {
		return reject("fleet: protocol version %d, worker speaks %d", f.Version, ProtoVersion)
	}
	if f.Spec == nil {
		return reject("fleet: attach without spec")
	}
	offered, err := f.Spec.Fingerprint()
	if err != nil {
		return reject("fleet: spec fingerprint: %v", err)
	}
	if w.spec == nil {
		if err := w.configureLocked(f.Spec, f.Shard, offered, true); err != nil {
			return reject("%v", err)
		}
	} else {
		if offered != w.fp {
			return reject("fleet: spec fingerprint %.12s does not match configured %.12s (refusing to mix runs)", offered, w.fp)
		}
		if f.Shard != w.shard {
			return reject("fleet: attach as shard %d, worker is configured as shard %d", f.Shard, w.shard)
		}
	}
	backfill, err := w.ring.after(f.Since)
	if err != nil {
		return reject("%v", err)
	}
	wc.sent = w.seq
	st := w.refreshStatusLocked()
	return &frame{
		Type: frameAttached, Shard: w.shard, Fingerprint: w.fp,
		Events: backfill, Status: st,
	}, true
}

// configureLocked builds the shard spec describes — on the first attach
// (persist set: the coordinator shipped the spec) or on a restart (the
// spec came from spec.json). A durable worker recovers its engine from
// the log either way, through the calls the daemon's recovery makes
// (wal.Set.Recover, wal.Apply): the first attach is the recovery of an
// empty log, which records the shard's churn prefix; a restart replays
// every logged input at its recorded clock, which regenerates the
// engine's event stream from sequence 1, so the ring and the seq
// counter come back exactly as a coordinator that stayed attached
// would have seen them. The spec is made durable before the log gets
// its first record, so a log with records and no spec.json is not a
// first attach: its inputs ran under a spec nobody can vouch for, and
// configuring a fresh engine over it would replay them into a different
// run on the next restart.
func (w *Worker) configureLocked(spec *Spec, shard int, fp string, persist bool) (err error) {
	durable := w.cfg.WALDir != ""
	cfg, err := spec.ShardConfig(shard, durable)
	if err != nil {
		return err
	}
	cfg.OnEvent = w.stampEvent
	eng, err := sched.NewOnline(cfg)
	if err != nil {
		return err
	}
	var log *wal.Set
	if durable {
		if log, err = wal.OpenSet(w.cfg.WALDir, 1); err != nil {
			return err
		}
		defer func() {
			if err != nil {
				log.Close()
			}
		}()
		if persist {
			if n := log.Control().LastSeq(); n > 0 {
				return fmt.Errorf("fleet: wal directory %s holds %d log records and no spec.json to replay them under "+
					"(refusing to configure a fresh engine over another run's log)", w.cfg.WALDir, n)
			}
			payload, err := json.Marshal(specFile{Fingerprint: fp, Shard: shard, Spec: spec})
			if err != nil {
				return err
			}
			if err := wal.WriteFileAtomic(w.specPath(), payload); err != nil {
				return err
			}
		}
		var churn []grid.ChurnEvent
		if d := cfg.Dynamics; d != nil {
			churn = d.Churn
		}
		tail, err := log.Recover(wal.Marks{}, [][]grid.ChurnEvent{churn})
		if err != nil {
			return err
		}
		for _, rec := range tail {
			if err := wal.Apply(eng, rec); err != nil {
				return err
			}
		}
	}
	w.spec, w.shard, w.fp = spec, shard, fp
	w.eng, w.log = eng, log
	return nil
}

// recoverLocked rebuilds the shard from its persisted spec and its log.
func (w *Worker) recoverLocked() error {
	payload, err := os.ReadFile(w.specPath())
	if err != nil {
		return err
	}
	var sf specFile
	if err := json.Unmarshal(payload, &sf); err != nil || sf.Spec == nil {
		return fmt.Errorf("fleet: unreadable spec file %s: %v", w.specPath(), err)
	}
	fp, err := sf.Spec.Fingerprint()
	if err != nil {
		return err
	}
	if fp != sf.Fingerprint {
		return fmt.Errorf("fleet: spec file fingerprint %.12s does not match its spec (%.12s)", sf.Fingerprint, fp)
	}
	// A GA's log replayed under v2 would contradict the events the
	// coordinator already saw under v1.
	if experiments.RemovedDraws(sf.Spec.Algo, sf.Spec.Setup.RNGVersion) {
		return fmt.Errorf("fleet: spec file %s was written under draw contract v1, which this trustgrid-worker no longer runs "+
			"(refusing to restore it: drain and stop the fleet with the binary that wrote it, or start the worker on a fresh -wal directory)",
			w.specPath())
	}
	return w.configureLocked(sf.Spec, sf.Shard, fp, false)
}

// stampEvent is the engine's event sink: stamp the next sequence
// number, retain in the ring. Runs under mu (the engine only executes
// under mu).
func (w *Worker) stampEvent(ev sched.EngineEvent) {
	w.seq++
	w.ring.append(seqEvent{Seq: w.seq, Ev: ev})
}

// refreshStatusLocked rebuilds the cached status from the engine.
func (w *Worker) refreshStatusLocked() *shardStatus {
	acc, busy := w.eng.MetricsState()
	st := &shardStatus{
		Now:          w.eng.Now(),
		Seen:         w.eng.Seen(),
		InFlight:     w.eng.InFlight(),
		Batches:      w.eng.Batches(),
		LargestBatch: w.eng.LargestBatch(),
		Sites:        w.eng.SiteStatuses(),
		Acc:          acc,
		Busy:         append([]float64(nil), busy...),
		EventSeq:     w.seq,
	}
	w.statusMu.Lock()
	w.lastStatus = st
	w.statusMu.Unlock()
	return st
}

// logInput appends one record and, with sync set, commits it. The
// worker's durability discipline is log-before-execute and
// commit-before-ack: an acknowledged input must survive a kill -9.
func (w *Worker) logInput(rec wal.Record) error {
	if w.log == nil {
		return nil
	}
	rec.At = w.eng.Now()
	return w.log.Append(0, rec)
}

func (w *Worker) commit() error {
	if w.log == nil {
		return nil
	}
	return w.log.Commit()
}

// handleReq executes one operation. All engine work happens here,
// under mu; the response carries the operation's payload, the events
// emitted since this connection's watermark, and a fresh status.
func (w *Worker) handleReq(wc *wconn, f *frame) *frame {
	w.mu.Lock()
	defer w.mu.Unlock()
	resp := &frame{Type: frameResp, ID: f.ID}
	fail := func(err error) *frame {
		resp.Err = err.Error()
		if w.eng != nil {
			resp.Status = w.refreshStatusLocked()
		}
		return resp
	}
	if w.eng == nil {
		return fail(fmt.Errorf("fleet: worker not configured"))
	}
	switch f.Op {
	case opSubmit:
		if f.Job == nil {
			return fail(fmt.Errorf("fleet: submit without job"))
		}
		j := f.Job
		// Validate before logging: a rejected job must leave no WAL
		// record, or the recovery replay would re-reject it and refuse
		// to boot. (The daemon pre-validates too, but the worker cannot
		// assume a well-behaved coordinator.)
		if err := j.Validate(); err != nil {
			return fail(err)
		}
		rec := api.NewTraceRecord(j)
		if err := w.logInput(wal.Record{Kind: wal.KindArrival, Arrival: &rec}); err != nil {
			return fail(err)
		}
		if err := w.eng.Submit(j); err != nil {
			return fail(err)
		}
		if err := w.commit(); err != nil {
			return fail(err)
		}
	case opAdvance:
		if err := w.logInput(wal.Record{Kind: wal.KindBarrier, Barrier: &wal.BarrierRecord{To: f.To}}); err != nil {
			return fail(err)
		}
		if err := w.eng.AdvanceTo(f.To); err != nil {
			return fail(err)
		}
		if err := w.commit(); err != nil {
			return fail(err)
		}
	case opDrain:
		if err := w.logInput(wal.Record{Kind: wal.KindBarrier, Barrier: &wal.BarrierRecord{Drain: true}}); err != nil {
			return fail(err)
		}
		res, err := w.eng.Drain()
		if err != nil {
			return fail(err)
		}
		if err := w.commit(); err != nil {
			return fail(err)
		}
		resp.Result = res
	case opWeight:
		if err := w.logInput(wal.Record{Kind: wal.KindTenant, Tenant: &api.TenantSpec{
			ID: f.Tenant, Weight: f.Weight,
		}}); err != nil {
			return fail(err)
		}
		w.eng.SetTenantWeight(f.Tenant, f.Weight)
		if err := w.commit(); err != nil {
			return fail(err)
		}
	case opSnapshot:
		snap, err := w.eng.Snapshot()
		if err != nil {
			return fail(err)
		}
		resp.Snapshot = snap
	case opNeverPlaced:
		resp.Jobs = w.eng.NeverPlaced()
	default:
		return fail(fmt.Errorf("fleet: unknown op %q", f.Op))
	}
	evs, err := w.ring.after(wc.sent)
	if err != nil {
		return fail(err)
	}
	resp.Events = evs
	wc.sent = w.seq
	resp.Status = w.refreshStatusLocked()
	return resp
}

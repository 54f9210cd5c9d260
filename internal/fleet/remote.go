package fleet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/sched"
)

// RemoteShard plugs into the coordinator anywhere an in-process engine
// does.
var _ sched.Shard = (*RemoteShard)(nil)

// DialConfig tunes one worker connection.
type DialConfig struct {
	// TTL is the liveness deadline: the reader expects SOME frame
	// (response or heartbeat) within every TTL window, and marks the
	// worker down otherwise. Must exceed the worker's heartbeat cadence
	// by a comfortable factor. Default 5s.
	TTL time.Duration
	// DialTimeout bounds each connection attempt. Default 2s.
	DialTimeout time.Duration
}

func (dc *DialConfig) fill() {
	if dc.TTL <= 0 {
		dc.TTL = 5 * time.Second
	}
	if dc.DialTimeout <= 0 {
		dc.DialTimeout = 2 * time.Second
	}
}

// RemoteShard implements sched.Shard over one worker connection, so
// sched.Coordinator drives a fleet exactly as it drives in-process
// engines. Liveness is asymmetric by design:
//
//   - Barrier operations (AdvanceTo, Drain) run on the coordinator's
//     driving goroutines — they are the only callers that redial and
//     reattach a down worker, and the backfilled events land in the
//     very barrier that re-established contact.
//   - Everything else fails fast while down: submissions return
//     ErrShardDown (the server's existing 503 + quota-unwind path),
//     weight changes queue for replay on reattach, introspection serves
//     the last cached status, and NeverPlaced reports nothing — a
//     merely-down shard must not look like a shard that stranded jobs.
type RemoteShard struct {
	addr string
	spec *Spec
	idx  int
	dc   DialConfig

	// mu serializes every operation on this shard (wire order on the
	// connection IS the worker's execution order) and guards all mutable
	// state below. Each shard has its own mu, so barrier fan-out across
	// shards still runs in parallel.
	mu       sync.Mutex
	conn     net.Conn
	down     bool
	fp       string // pinned at first attach
	nextID   uint64
	lastSeen uint64 // highest event seq delivered to the sink
	sink     func(sched.EngineEvent)
	pendingW map[string]float64 // weight ops queued while down
	closed   bool

	// smu guards the cached status alone. The reader goroutine updates
	// it from heartbeats, so it must never need mu — an operation holds
	// mu for its whole exchange, and the reader has to stay free to
	// deliver that operation's response.
	smu    sync.Mutex
	status shardStatus

	// calls routes responses (by frame ID) from the reader goroutine to
	// the operation waiting in reqLocked. A dying reader closes every
	// pending channel — without touching mu, for the same reason.
	cmu   sync.Mutex
	calls map[uint64]chan *frame
}

// Dial connects to a worker, attaches it as shard idx of spec, and
// returns the Shard. The first attach configures a blank worker; later
// attaches (and restarts of a durable worker) are verified against the
// spec fingerprint.
func Dial(addr string, spec *Spec, idx int, dc DialConfig) (*RemoteShard, error) {
	dc.fill()
	rs := &RemoteShard{
		addr: addr, spec: spec, idx: idx, dc: dc,
		pendingW: map[string]float64{},
		calls:    map[uint64]chan *frame{},
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.reattachLocked(); err != nil {
		return nil, err
	}
	return rs, nil
}

// Addr returns the worker's address.
func (rs *RemoteShard) Addr() string { return rs.addr }

// Down reports whether the worker is currently unreachable.
func (rs *RemoteShard) Down() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.down
}

// Close tears the connection down for good.
func (rs *RemoteShard) Close() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.closed = true
	if rs.conn != nil {
		err := rs.conn.Close()
		rs.conn = nil
		rs.down = true
		return err
	}
	return nil
}

// downErr wraps ErrShardDown with this shard's identity so errors.Is
// still matches while logs say which worker vanished.
func (rs *RemoteShard) downErr(cause error) error {
	if cause != nil {
		return fmt.Errorf("fleet: worker %s (shard %d): %w: %v", rs.addr, rs.idx, sched.ErrShardDown, cause)
	}
	return fmt.Errorf("fleet: worker %s (shard %d): %w", rs.addr, rs.idx, sched.ErrShardDown)
}

// reattachLocked (re)establishes the connection: dial, attach with the
// last delivered event sequence, verify identity, deliver the backfill,
// replay weight changes queued while down, then hand the socket to a
// fresh reader goroutine. Caller holds mu.
func (rs *RemoteShard) reattachLocked() error {
	if rs.closed {
		return rs.downErr(errors.New("closed"))
	}
	if rs.conn != nil && !rs.down {
		return nil
	}
	if rs.conn != nil {
		rs.conn.Close()
		rs.conn = nil
	}
	conn, err := net.DialTimeout("tcp", rs.addr, rs.dc.DialTimeout)
	if err != nil {
		rs.down = true
		return rs.downErr(err)
	}
	fail := func(err error) error {
		conn.Close()
		rs.down = true
		return err
	}
	attach := &frame{
		Type: frameAttach, Version: ProtoVersion,
		Spec: rs.spec, Shard: rs.idx, Since: rs.lastSeen,
	}
	conn.SetDeadline(time.Now().Add(rs.dc.TTL))
	if err := writeFrame(conn, attach); err != nil {
		return fail(rs.downErr(err))
	}
	var at frame
	if err := readFrame(conn, &at); err != nil {
		return fail(rs.downErr(err))
	}
	conn.SetDeadline(time.Time{})
	if at.Type != frameAttached {
		return fail(rs.downErr(fmt.Errorf("got %q frame, want attached", at.Type)))
	}
	if at.Err != "" {
		// The worker refused: fingerprint or shard mismatch, lost event
		// horizon. Not a liveness problem — surface it verbatim.
		return fail(fmt.Errorf("fleet: worker %s refused attach: %s", rs.addr, at.Err))
	}
	if rs.fp == "" {
		rs.fp = at.Fingerprint
	} else if at.Fingerprint != rs.fp {
		return fail(fmt.Errorf("fleet: worker %s fingerprint changed across reattach (%.12s -> %.12s)",
			rs.addr, rs.fp, at.Fingerprint))
	}
	rs.conn = conn
	rs.down = false
	if at.Status != nil {
		rs.noteStatus(at.Status)
	}
	rs.deliverLocked(at.Events)
	go rs.reader(conn)
	// Weight changes made while the worker was down replay before any
	// other operation reaches it, restoring the admission state it
	// missed. (A durable worker also WALs these, so they then survive
	// its next crash too.)
	for tenant, weight := range rs.pendingW {
		resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opWeight, Tenant: tenant, Weight: weight})
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return fmt.Errorf("fleet: worker %s: replaying weight for %q: %s", rs.addr, tenant, resp.Err)
		}
		delete(rs.pendingW, tenant)
	}
	return nil
}

// deliverLocked forwards backfilled/piggybacked events to the sink in
// sequence order, dropping anything at or below the delivered
// watermark (belt and braces: the worker's per-connection watermark
// already avoids duplicates on a healthy connection).
func (rs *RemoteShard) deliverLocked(evs []seqEvent) {
	for _, se := range evs {
		if se.Seq <= rs.lastSeen {
			continue
		}
		rs.lastSeen = se.Seq
		if rs.sink != nil {
			rs.sink(se.Ev)
		}
	}
}

// reader drains one connection: heartbeats refresh the cached status,
// responses route to their waiting call. Any read error — including a
// TTL expiry with no frame at all — marks the shard down and fails
// every pending call.
func (rs *RemoteShard) reader(conn net.Conn) {
	for {
		conn.SetReadDeadline(time.Now().Add(rs.dc.TTL))
		var f frame
		if err := readFrame(conn, &f); err != nil {
			rs.connFailed(conn)
			return
		}
		switch f.Type {
		case frameHB:
			if f.Status != nil {
				rs.noteStatus(f.Status)
			}
		case frameResp:
			rs.cmu.Lock()
			ch := rs.calls[f.ID]
			delete(rs.calls, f.ID)
			rs.cmu.Unlock()
			if ch != nil {
				ch <- &f
			}
		default:
			rs.connFailed(conn)
			return
		}
	}
}

// noteStatus refreshes the cached status. Status only moves on
// operations the coordinator itself drives, so a heartbeat's snapshot
// never races ahead of a pending response in a way that matters; last
// writer wins is fine.
func (rs *RemoteShard) noteStatus(st *shardStatus) {
	rs.smu.Lock()
	rs.status = *st
	rs.smu.Unlock()
}

// connFailed is the reader's death rattle: fail every pending call by
// closing its channel FIRST (the waiter may be holding mu), then mark
// the shard down. Taking mu before releasing the waiter would deadlock
// — reqLocked waits for its channel while holding mu.
func (rs *RemoteShard) connFailed(conn net.Conn) {
	conn.Close()
	rs.cmu.Lock()
	for id, ch := range rs.calls {
		close(ch)
		delete(rs.calls, id)
	}
	rs.cmu.Unlock()
	rs.mu.Lock()
	if rs.conn == conn {
		rs.conn = nil
		rs.down = true
	}
	rs.mu.Unlock()
}

// reqLocked performs one request/response exchange. Caller holds mu —
// which is exactly what serializes operations into worker execution
// order. The wait is channel-based because the response arrives on the
// reader goroutine.
func (rs *RemoteShard) reqLocked(f *frame) (*frame, error) {
	if rs.down || rs.conn == nil {
		return nil, rs.downErr(nil)
	}
	rs.nextID++
	f.ID = rs.nextID
	ch := make(chan *frame, 1)
	rs.cmu.Lock()
	rs.calls[f.ID] = ch
	rs.cmu.Unlock()
	if err := writeFrame(rs.conn, f); err != nil {
		// mu is held: deregister our own call (it is the only one — mu
		// serializes operations) and mark down inline rather than via
		// connFailed, which relocks mu.
		rs.cmu.Lock()
		delete(rs.calls, f.ID)
		rs.cmu.Unlock()
		rs.conn.Close()
		rs.conn = nil
		rs.down = true
		return nil, rs.downErr(err)
	}
	resp, ok := <-ch
	if !ok {
		rs.down = true
		return nil, rs.downErr(errors.New("connection lost mid-call"))
	}
	if resp.Status != nil {
		rs.noteStatus(resp.Status)
	}
	rs.deliverLocked(resp.Events)
	return resp, nil
}

// opErr folds a response's application-level error. It is NOT
// ErrShardDown: the worker is alive and answered — a failing engine
// must fail the run, exactly as it does in process.
func opErr(resp *frame) error {
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// --- sched.Shard: submissions -------------------------------------

// Submit forwards the job to the worker, which applies it with
// Online.Submit semantics (clamped to the shard clock).
func (rs *RemoteShard) Submit(j *grid.Job) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.down {
		// No redial here: a dial per refused submission would stall the
		// daemon's loop goroutine behind a dead worker. The next barrier
		// reattaches; until then the server's 503 path holds the door.
		return rs.downErr(nil)
	}
	resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opSubmit, Job: j})
	if err != nil {
		return err
	}
	return opErr(resp)
}

// --- sched.Shard: barriers ----------------------------------------

// Reattach redials and reattaches a down worker immediately instead of
// waiting for the next barrier. Useful when the caller knows the
// worker is back (tests, operator tooling); the daemon's steady state
// never needs it.
func (rs *RemoteShard) Reattach() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.reattachLocked()
}

// AdvanceTo drives the shard to t, reattaching first if the worker
// went down. A reattach backfills every event the coordinator missed;
// a worker that replayed its WAL re-derives those events under the
// same sequence numbers, so the merged stream is gapless either way.
func (rs *RemoteShard) AdvanceTo(t float64) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.reattachLocked(); err != nil {
		return err
	}
	resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opAdvance, To: t})
	if err != nil {
		return err
	}
	return opErr(resp)
}

// Drain completes every admitted job.
func (rs *RemoteShard) Drain() (*sched.Result, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := rs.reattachLocked(); err != nil {
		return nil, err
	}
	resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opDrain})
	if err != nil {
		return nil, err
	}
	if err := opErr(resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("fleet: worker %s: drain response without result", rs.addr)
	}
	return resp.Result, nil
}

// --- sched.Shard: control -----------------------------------------

// SetTenantWeight forwards the weight change, or queues it for replay
// on reattach when the worker is down (the Shard interface has no
// error surface here, and a lost weight would silently skew fairness
// forever — queueing is the only correct option).
func (rs *RemoteShard) SetTenantWeight(tenant string, weight float64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.down {
		rs.pendingW[tenant] = weight
		return
	}
	if resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opWeight, Tenant: tenant, Weight: weight}); err != nil || resp.Err != "" {
		rs.pendingW[tenant] = weight
	}
}

// SetEventSink installs the coordinator's observer. Install before the
// first barrier, as with in-process shards.
func (rs *RemoteShard) SetEventSink(fn func(sched.EngineEvent)) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.sink = fn
}

// Snapshot proxies the worker's engine snapshot (durable workers only).
func (rs *RemoteShard) Snapshot() (*sched.EngineSnapshot, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.down {
		return nil, rs.downErr(nil)
	}
	resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opSnapshot})
	if err != nil {
		return nil, err
	}
	if err := opErr(resp); err != nil {
		return nil, err
	}
	return resp.Snapshot, nil
}

// NeverPlaced reports the worker's stranded jobs — or nothing while
// the worker is down: a down shard's jobs are delayed, not abandoned,
// and the server's quota sweep must not release them.
func (rs *RemoteShard) NeverPlaced() []grid.Job {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.down {
		return nil
	}
	resp, err := rs.reqLocked(&frame{Type: frameReq, Op: opNeverPlaced})
	if err != nil || resp.Err != "" {
		return nil
	}
	return resp.Jobs
}

// --- sched.Shard: introspection (cached status) --------------------
//
// These serve the worker's last piggybacked status — at most one frame
// stale on a healthy connection, frozen at the moment of failure while
// down. The coordinator only reads them between barriers, where the
// status reflects the just-completed operation exactly.

func (rs *RemoteShard) cached() shardStatus {
	rs.smu.Lock()
	defer rs.smu.Unlock()
	return rs.status
}

func (rs *RemoteShard) Now() float64      { return rs.cached().Now }
func (rs *RemoteShard) Seen() int         { return rs.cached().Seen }
func (rs *RemoteShard) InFlight() int     { return rs.cached().InFlight }
func (rs *RemoteShard) Batches() int      { return rs.cached().Batches }
func (rs *RemoteShard) LargestBatch() int { return rs.cached().LargestBatch }

func (rs *RemoteShard) SiteStatuses() []sched.SiteStatus {
	st := rs.cached()
	return append([]sched.SiteStatus(nil), st.Sites...)
}

func (rs *RemoteShard) MetricsState() (metrics.AccumulatorState, []float64) {
	st := rs.cached()
	return st.Acc, append([]float64(nil), st.Busy...)
}

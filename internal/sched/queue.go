package sched

import (
	"fmt"
	"math"
)

// evKind says what a queued event does when it fires.
type evKind uint8

const (
	evArrival evKind = iota // admit the job in slot event.ref
	evBatch                 // run the armed Δ-round
	evAttempt               // the outcome of the attempt in slot event.ref
	evChurn                 // apply cfg.Dynamics.Churn[event.ref]
)

// event is one entry of the engine's queue: plain data, so a snapshot
// reads the queue itself. Each kind uses one reference: the slot
// (engineState.slots) of an arrival's job or of an attempt, the churn
// trace index of a churn event; a batch needs none. An event holds no
// pointer, so the heap's moves are copies the garbage collector never
// has to see.
type event struct {
	at   float64 // absolute simulation time
	seq  uint64  // tie-breaker: scheduling order
	ref  int32
	kind evKind
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq): the
// sifts move a hole rather than swap, and four children a node halve
// the levels a pop moves through.
type eventQueue []event

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].before(&h[small]) {
				small = c
			}
		}
		if !h[small].before(&last) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = last
	return top
}

// schedule puts ev on the queue at ev.at with the next sequence number.
// A time before the clock, or NaN, is a programming error and panics:
// silently reordering time would corrupt every metric.
func (st *engineState) schedule(ev event) {
	if math.IsNaN(ev.at) || ev.at < st.now {
		panic(fmt.Sprintf("sched: event scheduled at t=%v, clock at %v", ev.at, st.now))
	}
	st.seq++
	ev.seq = st.seq
	st.events.push(ev)
}

// hold stores the payload of a pending arrival or attempt event in a
// free slot and returns the slot, for the event's ref.
func (st *engineState) hold(a attempt) int32 {
	if n := len(st.free); n > 0 {
		ref := st.free[n-1]
		st.free = st.free[:n-1]
		st.slots[ref] = a
		return ref
	}
	st.slots = append(st.slots, a)
	return int32(len(st.slots) - 1)
}

// release empties a slot whose event has fired, for hold to reuse, and
// returns what it held.
func (st *engineState) release(ref int32) attempt {
	a := st.slots[ref]
	st.slots[ref] = attempt{}
	st.free = append(st.free, ref)
	return a
}

// fail stops the run loop for good; every later run returns err.
func (st *engineState) fail(err error) {
	if st.err == nil {
		st.err = err
	}
}

// setGuard derives the runaway bound from the jobs seen so far, counting
// the next one: 200 events per job plus 10 000, and two per churn event
// for the churn itself and the round an outage holds until a rejoin.
func (st *engineState) setGuard() {
	st.maxEvents = 200*uint64(st.seen+1) + 10000
	if st.dyn != nil {
		st.maxEvents += 2 * uint64(len(st.dyn.cfg.Churn))
	}
}

// run executes queued events in (at, seq) order up to and including
// deadline, then leaves the clock at deadline; Drain passes +Inf and
// leaves it at the last event. A failure, or more events than the
// runaway guard allows, stops the loop for good: later runs execute
// nothing and return the same error.
func (st *engineState) run(deadline float64) error {
	for st.err == nil && len(st.events) > 0 && st.events[0].at <= deadline {
		ev := st.events.pop()
		st.now = ev.at
		st.executed++
		if st.executed > st.maxEvents {
			st.fail(fmt.Errorf("sched: exceeded %d events at t=%v", st.maxEvents, st.now))
			break
		}
		switch ev.kind {
		case evArrival:
			st.arrive(st.release(ev.ref).job)
		case evBatch:
			st.runBatch()
		case evAttempt:
			st.finishAttempt(ev.ref)
		case evChurn:
			st.applyChurn(st.dyn.cfg.Churn[ev.ref])
		}
	}
	if st.now < deadline && !math.IsInf(deadline, 1) {
		st.now = deadline
	}
	return st.err
}

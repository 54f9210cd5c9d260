package server

import "sync"

// eventLog is a bounded, append-only log of wire events with absolute
// sequence numbers and a broadcast channel for streaming readers. The
// loop goroutine appends; any number of HTTP readers poll or follow.
// When the bound is exceeded the oldest events are evicted; a reader
// whose cursor has been evicted resumes at the oldest retained event
// (its next event's seq tells it how much it missed).
type eventLog struct {
	mu     sync.Mutex
	max    int
	events []WireEvent
	base   int64 // seq of events[0]
	// notify is the channel WaitCh handed out, closed by the next append;
	// nil while no reader waits, so an append nobody awaits makes none.
	notify chan struct{}
}

const defaultEventBuffer = 65536

func newEventLog(max int) *eventLog {
	if max <= 0 {
		max = defaultEventBuffer
	}
	return &eventLog{max: max}
}

// Append assigns the next sequence number and stores a copy of the
// event; ev itself is left as it was. The appending goroutine is the
// only writer of events and base (see appendRecordsSince).
func (l *eventLog) Append(ev *WireEvent) {
	l.mu.Lock()
	l.events = append(l.events, *ev)
	l.events[len(l.events)-1].Seq = l.base + int64(len(l.events)-1)
	if len(l.events) > l.max {
		// Evict the oldest half in one copy so eviction is amortized
		// rather than per-append.
		drop := len(l.events) / 2
		l.base += int64(drop)
		l.events = append(l.events[:0], l.events[drop:]...)
	}
	ch := l.notify
	l.notify = nil
	l.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// appendPage appends to dst the encodings (enc) of the retained events
// with seq >= since that satisfy match (nil matches all), under the
// lock and straight out of the ring. It stops after most matches (most
// <= 0: no limit) or once dst holds limit bytes, and returns dst, the
// cursor past the last event scanned, how many matched and whether it
// stopped at limit with events left to scan. The cursor advances past
// every scanned event, so a filtered read never ends a page empty while
// matching events remain. An event with a non-finite float matches and
// counts but is not encoded: no format carries it.
func (l *eventLog) appendPage(dst []byte, since int64, most, limit int, match func(*WireEvent) bool, enc func(*WireEvent, []byte) []byte) (out []byte, next int64, matched int, full bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	since = max(since, l.base)
	for i := since - l.base; i < int64(len(l.events)); i++ {
		if len(dst) >= limit {
			return dst, since, matched, true
		}
		ev := &l.events[i]
		since = ev.Seq + 1
		if match != nil && !match(ev) {
			continue
		}
		if ev.Finite() {
			dst = enc(ev, dst)
		}
		if matched++; matched == most {
			break
		}
	}
	return dst, since, matched, false
}

// baseSeq returns the sequence number of the oldest retained event (the
// next one to be appended when none is retained).
func (l *eventLog) baseSeq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// restore installs a recovered window, taking ownership of events, so
// streaming cursors survive a restart: sequence numbers continue where
// the snapshot left off, and a reader whose cursor points past the
// recovered end simply re-reads the events the crash rewound (they are
// re-executed and re-appended with the same sequence numbers).
func (l *eventLog) restore(base int64, events []WireEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = base
	l.events = events
}

// appendEventLine appends ev's NDJSON line; ev must be Finite.
func appendEventLine(ev *WireEvent, dst []byte) []byte {
	return append(ev.AppendJSON(dst), '\n')
}

// appendRecordsSince appends to dst the journal records (api.Event's
// AppendRecord) of the retained events with seq >= since and returns it
// with the seq of the first event read and the cursor past the last
// (first >= next: none). It encodes straight out of the ring, without a
// copy and without the lock: call it only on the goroutine that
// appends, which then cannot change the ring underneath it, and whose
// reads race with nothing the readers under the lock do.
func (l *eventLog) appendRecordsSince(dst []byte, since int64) (records []byte, first, next int64) {
	first = max(since, l.base)
	next = l.base + int64(len(l.events))
	for i := first - l.base; i < int64(len(l.events)); i++ {
		dst = l.events[i].AppendRecord(dst)
	}
	return dst, first, next
}

// WaitCh returns a channel that is closed at the next append. Callers
// re-fetch after every wakeup.
func (l *eventLog) WaitCh() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.notify == nil {
		l.notify = make(chan struct{})
	}
	return l.notify
}

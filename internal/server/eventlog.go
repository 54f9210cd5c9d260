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

// Append assigns the next sequence number and stores the event. The
// appending goroutine is the only writer of events and base (see
// appendRecordsSince).
func (l *eventLog) Append(ev WireEvent) {
	l.mu.Lock()
	ev.Seq = l.base + int64(len(l.events))
	l.events = append(l.events, ev)
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

// ReadSince returns up to max retained events with seq >= since that
// satisfy match (nil matches all), and the cursor to pass next time.
// max <= 0 means no limit. The limit counts *matching* events and the
// cursor always advances past every scanned event, so a filtered read
// can never return an empty page while matching events remain.
func (l *eventLog) ReadSince(since int64, max int, match func(*WireEvent) bool) ([]WireEvent, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if since < l.base {
		since = l.base
	}
	i := int(since - l.base)
	if i >= len(l.events) {
		return nil, l.base + int64(len(l.events))
	}
	var out []WireEvent
	if match == nil {
		n := len(l.events) - i
		if max > 0 {
			n = min(n, max)
		}
		out = make([]WireEvent, 0, n)
	}
	next := since
	for ; i < len(l.events); i++ {
		ev := &l.events[i] // not a copy: one that match saw would go to the heap
		if match == nil || match(ev) {
			out = append(out, *ev)
			if max > 0 && len(out) == max {
				next = ev.Seq + 1
				return out, next
			}
		}
		next = ev.Seq + 1
	}
	return out, next
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

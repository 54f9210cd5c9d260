package server

import (
	"bytes"
	"testing"
	"time"

	"trustgrid/internal/api"
)

// TestEventLogAppendAllocs pins the appender's cost: with no follower
// waiting and a ring that has reached its steady capacity, an append
// allocates nothing — no notify channel per event.
func TestEventLogAppendAllocs(t *testing.T) {
	l := newEventLog(64)
	ev := WireEvent{Kind: "placed", Time: 12.5, Job: 7, Site: 3, Tenant: "acme"}
	for i := 0; i < 4*64; i++ { // warm: grow the ring and evict a few times
		l.Append(&ev)
	}
	if n := testing.AllocsPerRun(1000, func() { l.Append(&ev) }); n != 0 {
		t.Fatalf("Append allocates %.1f times per event, want 0", n)
	}
}

// TestEventLogWaiterWakes: a follower blocked on WaitCh wakes at the
// next append — whether appends nobody awaited came before it or not —
// and a fresh WaitCh after the wakeup waits for the append after that.
func TestEventLogWaiterWakes(t *testing.T) {
	l := newEventLog(8)
	ev := WireEvent{Kind: "arrived"}
	for round := 0; round < 3; round++ {
		for i := 0; i < round*5; i++ { // appends with nobody waiting
			l.Append(&ev)
		}
		ch := l.WaitCh()
		select {
		case <-ch:
			t.Fatalf("round %d: WaitCh returned a closed channel before any append", round)
		default:
		}
		woke := make(chan struct{})
		go func() {
			<-ch
			close(woke)
		}()
		l.Append(&ev)
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: follower blocked on WaitCh never woke at the append", round)
		}
	}
}

// readSince copies the retained events with seq >= since, and returns
// them with the cursor past them.
func readSince(l *eventLog, since int64) ([]WireEvent, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	since = max(since, l.base)
	var out []WireEvent
	if i := since - l.base; i < int64(len(l.events)) {
		out = append(out, l.events[i:]...)
	}
	return out, l.base + int64(len(l.events))
}

// TestEventLogLinesSince: the journal flush's records, encoded straight
// out of the ring, are the same bytes as the records of the retained
// events, from an evicted cursor, mid-ring and at the end, and decode
// back to those events.
func TestEventLogLinesSince(t *testing.T) {
	l := newEventLog(16)
	for i := 0; i < 40; i++ {
		l.Append(&WireEvent{Kind: "placed", Job: i, Time: float64(i) / 3})
	}
	for _, since := range []int64{0, l.baseSeq(), 35, 40, 41} {
		evs, wantNext := readSince(l, since)
		var want []byte
		for i := range evs {
			want = evs[i].AppendRecord(want)
		}
		got, first, next := l.appendRecordsSince([]byte("x"), since)
		if !bytes.Equal(got, append([]byte("x"), want...)) || next != wantNext {
			t.Fatalf("since %d: %q next %d, want %q next %d", since, got, next, want, wantNext)
		}
		for rest, i := got[1:], 0; len(rest) > 0; i++ {
			var ev WireEvent
			var err error
			if rest, err = api.ReadEventRecord(rest, &ev); err != nil || ev != evs[i] {
				t.Fatalf("since %d: record %d reads back as %+v (%v), want %+v", since, i, ev, err, evs[i])
			}
		}
		if len(evs) > 0 && first != evs[0].Seq || len(evs) == 0 && first < next {
			t.Fatalf("since %d: first %d with %d events, next %d", since, first, len(evs), next)
		}
	}
}

package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/client"
)

// bodyTransport answers every request with one response: status 200,
// the event frames media type and body as its body.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {api.EventRecordsType}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    r,
	}, nil
}

// splitFrames is the frame format read the plain way: a uvarint length
// of at most two bytes no larger than api.MaxEventFrame, then exactly
// one record. It returns the events of the frames before the first
// that is not one, and whether every byte was a frame.
func splitFrames(data []byte) (evs []api.Event, whole bool) {
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || k > 2 || n > api.MaxEventFrame || n > uint64(len(data)-k) {
			return evs, false
		}
		var ev api.Event
		if rest, err := api.ReadEventRecord(data[k:k+int(n)], &ev); err != nil || len(rest) != 0 {
			return evs, false
		}
		evs, data = append(evs, ev), data[k+int(n):]
	}
	return evs, true
}

// FuzzEventStreamRecords feeds arbitrary bytes to EventStream as a
// records response body. Next never panics; the events it returns are
// exactly ReadEventRecord's decode of the leading whole frames, bit for
// bit; it ends with io.EOF when every byte was a frame and with an
// error otherwise; and it allocates at most 2n + 160 KiB for n bytes
// (its 64 KiB read buffer, the HTTP request, and at most a copy of
// each string the records hold).
func FuzzEventStreamRecords(f *testing.F) {
	var stream []byte
	for _, ev := range []api.Event{
		{Seq: 1, Kind: "placed", Time: 615000, Job: 20417, Site: 7, Tenant: "gold", Start: 615000, Finish: 627412.3812, Risky: true},
		{Seq: 2, Kind: "site_down", Job: -1, Site: 3, Level: math.Copysign(0, -1), Speed: math.NaN()},
		{Seq: 3, Kind: string(make([]byte, 200)), Tenant: "\xff"},
	} {
		stream = ev.AppendFrame(stream)
		f.Add(stream)
	}
	f.Add(stream[:len(stream)-1])
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, whole := splitFrames(data)
		c := client.New("http://daemon").WithHTTPClient(&http.Client{Transport: bodyTransport(data)})
		got := make([]api.Event, 0, len(want))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		es := c.Events(context.Background(), client.EventsOptions{})
		var err error
		for {
			var ev api.Event
			if ev, err = es.Next(); err != nil {
				break
			}
			got = append(got, ev)
		}
		runtime.ReadMemStats(&after)
		if len(got) != len(want) {
			t.Fatalf("%d events, want %d (%v)", len(got), len(want), err)
		}
		for i := range got {
			if g, w := got[i].AppendRecord(nil), want[i].AppendRecord(nil); !bytes.Equal(g, w) {
				t.Fatalf("event %d: %+v, want %+v", i, got[i], want[i])
			}
		}
		if whole != (err == io.EOF) {
			t.Fatalf("every byte a frame: %v, yet the stream ended with %v", whole, err)
		}
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(data))+160<<10; alloc > limit {
			t.Fatalf("reading %d bytes allocated %d, want <= %d", len(data), alloc, limit)
		}
	})
}

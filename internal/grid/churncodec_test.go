package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"trustgrid/internal/rng"
	"trustgrid/internal/strictjson"
)

// scanChurn runs the fast path alone and reports whether it took line.
func scanChurn(line []byte, ev *ChurnEvent) bool {
	c := strictjson.NewCursor(line)
	ev.ScanJSON(&c)
	return c.Done()
}

// checkChurnParse is the decoder half of the churn codec contract. On
// any bytes, from any starting value of the target, ParseChurnEvent and
// json.Unmarshal agree on error-or-not and leave the same event behind;
// and the fast path takes nothing but json.Marshal's bytes — what it
// accepts, json.Marshal renders back byte for byte.
func checkChurnParse(t *testing.T, line []byte) {
	t.Helper()
	for _, start := range []ChurnEvent{{}, {Time: 4, Site: 2, Kind: ChurnDegrade, Factor: 0.5}} {
		got, want := start, start
		gotErr := ParseChurnEvent(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: ParseChurnEvent error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if got != want || math.Signbit(got.Time) != math.Signbit(want.Time) {
			t.Fatalf("%q from %+v:\nParseChurnEvent %+v\njson.Unmarshal  %+v", line, start, got, want)
		}
	}
	var fast ChurnEvent
	if !scanChurn(line, &fast) {
		return
	}
	if back, err := json.Marshal(&fast); err != nil || !bytes.Equal(back, line) {
		t.Fatalf("the fast path takes %q, which is not json.Marshal's rendering %q of what it decodes (%v)", line, back, err)
	}
}

// checkChurnAppend is the encoder half: AppendJSON's bytes are
// json.Marshal's (nothing at all where Marshal refuses the event), and
// they parse back as json.Unmarshal reads them.
func checkChurnAppend(t *testing.T, ev ChurnEvent) {
	t.Helper()
	want, err := json.Marshal(&ev)
	got := ev.AppendJSON([]byte("x"))
	if err != nil {
		if string(got) != "x" {
			t.Fatalf("%+v: json.Marshal refuses (%v) but AppendJSON wrote %q", ev, err, got[1:])
		}
		return
	}
	if string(got[1:]) != string(want) {
		t.Fatalf("%+v:\nAppendJSON   %s\njson.Marshal %s", ev, got[1:], want)
	}
	checkChurnParse(t, want)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkChurnAllocs bounds what decoding one line may allocate by its
// length n, as the WAL record decoder's test does: the fast path at most
// 32n + 16 KiB, so that a reader sizing anything from bytes it has not
// parsed fails; ParseChurnEvent, fallback included, at most 64n + 64 KiB,
// which json.Unmarshal's own worst case (about 40n, for deeply nested
// arrays) fits. The constants leave room for what the runtime allocates
// beside the measured call.
func checkChurnAllocs(t *testing.T, line []byte) {
	t.Helper()
	var ev ChurnEvent
	n := uint64(len(line))
	if fast, limit := allocated(func() { scanChurn(line, &ev) }), 32*n+16<<10; fast > limit {
		t.Fatalf("%.64q: the fast path allocated %d bytes for %d input bytes, want <= %d", line, fast, n, limit)
	}
	if whole, limit := allocated(func() { _ = ParseChurnEvent(line, &ev) }), 64*n+64<<10; whole > limit {
		t.Fatalf("%.64q: decoding allocated %d bytes for %d input bytes, want <= %d", line, whole, n, limit)
	}
}

// churnLines are decoder inputs worth keeping: canonical lines, and the
// near misses the fast path must leave to json.Unmarshal — among them
// a zero factor, which omitempty never writes, and duplicate keys, which
// json.Unmarshal takes (the last one wins) but json.Marshal never writes.
var churnLines = []string{
	`{"t":12.5,"site":3,"kind":"crash"}`,
	`{"t":0,"site":0,"kind":"degrade","factor":0.25}`,
	`{"t":1e-7,"site":7,"kind":"join"}`,
	`{"t":1e+21,"site":7,"kind":"restore"}`,
	`{"t":12.5,"site":3,"kind":"crash","factor":0}`,
	`{"t":12.5,"site":3,"kind":"crash","factor":-0}`,
	`{"t":12.5,"t":12.5,"site":3,"kind":"crash"}`,
	`{"t":12.5,"site":3,"kind":"degrade","factor":0.5,"factor":0.5}`,
	`{"t":12.5,"site":3,"site":4,"kind":"crash"}`,
	`{"t":12.50,"site":3,"kind":"crash"}`,
	`{"t":1.25e1,"site":3,"kind":"crash"}`,
	`{"t":0.0000001,"site":3,"kind":"crash"}`,
	`{"t":12.5,"site":-0,"kind":"crash"}`,
	`{"t":12.5,"site":03,"kind":"crash"}`,
	`{"t":12.5,"site":3.0,"kind":"crash"}`,
	`{"t":12.5,"site":1234567890123456789,"kind":"crash"}`,
	`{"site":3,"t":12.5,"kind":"crash"}`,
	`{"t":12.5,"site":3,"kind":"meltdown"}`,
	`{"t":12.5,"site":3,"kind":3}`,
	`{"t":12.5,"site":3,"kind":"cr\u0061sh"}`,
	`{"t":12.5,"site":3,"kind":null}`,
	`{"T":12.5,"site":3,"kind":"crash"}`,
	`{"t":12.5, "site":3,"kind":"crash"}`,
	`{"t":12.5,"site":3,"kind":"crash"} `,
	`{"t":12.5,"site":3,"kind":"crash"}x`,
	`{"t":12.5,"site":3,"kind":"crash"`,
	`{"t":12.5,"site":3,"kind":"crash","extra":1}`,
	`{"t":1e400,"site":3,"kind":"crash"}`,
	`{"t":` + strings.Repeat("[", 9000),
	`{}`,
	`null`,
	``,
}

func TestChurnCodecCases(t *testing.T) {
	for _, line := range churnLines {
		checkChurnParse(t, []byte(line))
		checkChurnAllocs(t, []byte(line))
	}
	tiny, huge := []float64{1e-7, 9.999e-7, 5e-324}, []float64{1e21, 1.5e22, math.MaxFloat64}
	for _, ts := range [][]float64{{0, math.Copysign(0, -1), 12.5, 1e-6, 999999999999999868928}, tiny, huge, {math.NaN(), math.Inf(1)}} {
		for _, f := range append(append([]float64{0, 0.3, 1, math.Copysign(0, -1), math.NaN()}, tiny...), huge...) {
			for k := ChurnKind(-1); k <= ChurnRestore+1; k++ {
				checkChurnAppend(t, ChurnEvent{Time: ts[0], Site: -3, Kind: k, Factor: f})
				checkChurnAppend(t, ChurnEvent{Time: ts[len(ts)-1], Site: math.MaxInt64, Kind: k, Factor: f})
			}
		}
	}
}

// TestWriteChurnTraceMatchesEncoder: the trace file is byte for byte
// what a json.Encoder wrote before the hand-written codec, on generated
// traces and on times and degrade factors at the edges of the float
// format (below 1e-6 and from 1e21 encoding/json switches to exponent
// form); and ReadChurnTrace gives every event back.
func TestWriteChurnTraceMatchesEncoder(t *testing.T) {
	var traces [][]ChurnEvent
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := DefaultChurnConfig(50000)
		cfg.PDegrade, cfg.DegradeMin = 0.5, 1e-7
		events, err := cfg.Generate(rng.New(seed), 12)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, events)
	}
	traces = append(traces, []ChurnEvent{
		{Time: 0, Site: 0, Kind: ChurnDegrade, Factor: 5e-324},
		{Time: 1e-7, Site: 1, Kind: ChurnDegrade, Factor: 9.99999e-7},
		{Time: 9.999999e-7, Site: 2, Kind: ChurnCrash},
		{Time: 1e-6, Site: 3, Kind: ChurnDegrade, Factor: 1e-6},
		{Time: 999999999999999868928, Site: 4, Kind: ChurnDrain},
		{Time: 1e21, Site: 5, Kind: ChurnJoin},
		{Time: 1.2345678901234567e300, Site: 6, Kind: ChurnRestore},
	})
	for i, events := range traces {
		var want bytes.Buffer
		bw := bufio.NewWriter(&want)
		enc := json.NewEncoder(bw)
		for k := range events {
			if err := enc.Encode(&events[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteChurnTrace(&got, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trace %d: WriteChurnTrace differs from json.Encoder:\n%s\nwant\n%s", i, got.Bytes(), want.Bytes())
		}
		// The fast path is one: every line the writer renders takes it.
		for _, line := range bytes.SplitAfter(got.Bytes(), []byte("\n")) {
			if len(line) > 0 && !scanChurn(line[:len(line)-1], new(ChurnEvent)) {
				t.Fatalf("trace %d: canonical line left to the fallback: %s", i, line)
			}
		}
		back, err := ReadChurnTrace(&got)
		if err != nil || len(back) != len(events) {
			t.Fatalf("trace %d: read back %d of %d events (%v)", i, len(back), len(events), err)
		}
		for k := range events {
			if back[k] != events[k] {
				t.Fatalf("trace %d event %d: read back %+v, wrote %+v", i, k, back[k], events[k])
			}
		}
	}
	// What json.Marshal refuses, the writer refuses with its error.
	err := WriteChurnTrace(&bytes.Buffer{}, []ChurnEvent{{Kind: ChurnKind(9)}})
	_, want := json.Marshal(&ChurnEvent{Kind: ChurnKind(9)})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("unknown kind: WriteChurnTrace error %v, json.Marshal error %v", err, want)
	}
}

// TestChurnCodecAllocs: a canonical line decodes without allocating,
// and renders into a warm buffer without allocating.
func TestChurnCodecAllocs(t *testing.T) {
	ev := ChurnEvent{Time: 1234.5678, Site: 17, Kind: ChurnDegrade, Factor: 0.4375}
	line := ev.AppendJSON(nil)
	buf := make([]byte, 0, 128)
	if n := testing.AllocsPerRun(100, func() { buf = ev.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON into a warm buffer: %v allocations, want 0", n)
	}
	var back ChurnEvent
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseChurnEvent(line, &back); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseChurnEvent of a canonical line: %v allocations, want 0", n)
	}
}

// FuzzChurnLine holds the churn codec to encoding/json: line feeds the
// decoder (ParseChurnEvent against json.Unmarshal, the fast path against
// json.Marshal's bytes, and an allocation bound linear in the line's
// length); the other arguments build an event for the encoder, whose
// bytes must be json.Marshal's.
func FuzzChurnLine(f *testing.F) {
	for i, line := range churnLines {
		f.Add([]byte(line), float64(i)*1.5, 0.25*float64(i%5), i, int8(i%7-1))
	}
	f.Add([]byte(`{"t":1e21,"site":2,"kind":"degrade","factor":5e-324}`), 1e21, 5e-324, -1, int8(ChurnDegrade))
	f.Add([]byte(`{"t":9.999999e-7,"site":0,"kind":"drain"}`), 9.999999e-7, math.Copysign(0, -1), 0, int8(ChurnDrain))
	f.Fuzz(func(t *testing.T, line []byte, tm, factor float64, site int, kind int8) {
		checkChurnParse(t, line)
		checkChurnAllocs(t, line)
		checkChurnAppend(t, ChurnEvent{Time: tm, Site: site, Kind: ChurnKind(kind), Factor: factor})
	})
}

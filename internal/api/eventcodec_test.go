package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// floatBits lists an event's float fields as bit patterns, so that a
// comparison tells 0 from -0.
func floatBits(e *Event) [8]uint64 {
	var out [8]uint64
	for i, f := range [...]float64{e.Time, e.Start, e.Finish, e.Arrival, e.Workload, e.SD, e.Level, e.Speed} {
		out[i] = math.Float64bits(f)
	}
	return out
}

func sameEvent(a, b *Event) bool { return *a == *b && floatBits(a) == floatBits(b) }

// checkParse is the decoder half of the codec contract: on any bytes,
// from any starting value of the target, ParseEvent and json.Unmarshal
// agree on error-or-not and leave the same struct behind.
func checkParse(t *testing.T, line []byte) {
	t.Helper()
	prior := Event{Seq: 7, Kind: "placed", Tenant: "acme", Risky: true, Start: 1.5, Nodes: 3, Speed: -0.25}
	for _, start := range []Event{{}, prior} {
		got, want := start, start
		gotErr := ParseEvent(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: ParseEvent error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if !sameEvent(&got, &want) {
			t.Fatalf("%q from %+v:\nParseEvent     %+v\njson.Unmarshal %+v", line, start, got, want)
		}
	}
}

// checkAppend is the encoder half: AppendJSON's bytes are json.Marshal's
// (nothing at all where Marshal refuses the value), and they parse back
// to the event that produced them.
func checkAppend(t *testing.T, ev Event) {
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
	checkParse(t, want)
	// The line decodes to what json.Unmarshal makes of it, which is the
	// event itself but for what omitempty drops (-0) and what invalid
	// UTF-8 becomes — so compare with the reference decode, not with ev.
	var back, ref Event
	if err := ParseEvent(want, &back); err != nil {
		t.Fatalf("%s: does not parse back: %v", want, err)
	}
	if err := json.Unmarshal(want, &ref); err != nil || !sameEvent(&back, &ref) {
		t.Fatalf("%s: parses back to %+v, json.Unmarshal gives %+v (%v)", want, back, ref, err)
	}
}

// codecLines are decoder inputs worth keeping: the canonical forms, and
// every near-miss the fast path has to leave to json.Unmarshal. The
// first group broke a prototype of the parser.
var codecLines = []string{
	`{"seq":1,"kind":"placed","t":0.E06,"job":1,"site":0}`,
	`{"seq":01,"kind":"placed","t":1,"job":1,"site":0}`,
	`{"seq":1,"kind":"placed","t":1.,"job":1,"site":0}`,
	`{"seq":1,"kind":"placed","t":+1,"job":1,"site":0}`,
	`{"seq":1,"seq":2,"kind":"placed","t":1,"job":1,"site":0}`,
	`{"seq":1,"kind":"placed","t":1,"job":1,"site":0,"extra":true}`,
	`{"seq":1,"kind":null,"t":1,"job":1,"site":0}`,
	`{"seq":1,"kind": "placed","t":1,"job":1,"site":0}`,
	`{"seq":1,"kind":"placed","t":1,"job":1,"site":0,"":}`,
	`{"seq":1,"kind":"placed","t":1,"job":1,"site":0,"":2}`,

	`{"seq":5,"kind":"arrived","t":300,"job":12,"site":-1,"tenant":"acme","safe_only":true,"arrival":250.5,"workload":120000,"nodes":2,"sd":0.72}`,
	`{"seq":6,"kind":"placed","t":600,"job":12,"site":3,"tenant":"acme","start":600,"finish":12600.000000000002,"risky":true,"fell_back":true}`,
	`{"seq":7,"kind":"site_speed","t":1e+21,"job":-1,"site":2,"speed":1e-7}`,
	`{"seq":8,"kind":"completed","t":-0,"job":1,"site":0,"level":5e-324}`,
	`{"kind":"placed","seq":9}`,
	`{}`,
	`{"seq":1}`,
	`{"seq":1} `,
	`{"seq":1}x`,
	`{"seq":1,}`,
	`{"seq":1.0}`,
	`{"seq":1e2}`,
	`{"seq":-0}`,
	`{"seq":-}`,
	`{"seq":9223372036854775807}`,
	`{"seq":9223372036854775808}`,
	`{"seq":123456789012345678}`,
	`{"job":99999999999999999999}`,
	`{"t":1e999}`,
	`{"t":0x1p4}`,
	`{"t":1_0}`,
	`{"t":Inf}`,
	`{"t":.5}`,
	`{"t":1e}`,
	`{"t":1e+}`,
	`{"t":-01}`,
	`{"t":"1"}`,
	`{"SEQ":3}`,
	`{"Kind":"x"}`,
	`{"kind":"a\"b"}`,
	`{"kind":"a\u0041"}`,
	"{\"kind\":\"a\tb\"}",
	"{\"kind\":\"caf\xc3\xa9\"}",
	"{\"kind\":\"\xff\"}",
	`{"kind":"<&>"}`,
	`{"kind":"unterminated}`,
	`{"risky":tru}`,
	`{"risky":true,"fell_back":false}`,
	`{"risky":1}`,
	`{"risky":null}`,
	`{"nodes":null}`,
	`{"nodes":-3}`,
	`[1]`,
	`null`,
	``,
	`{`,
	`{"seq"`,
	`{"seq":`,
	`{"seq":1`,
}

var codecEvents = []Event{
	{},
	{Seq: 1, Kind: "arrived", Time: 300, Job: 12, Site: -1, Tenant: "acme", SafeOnly: true, Arrival: 250.5, Workload: 120000, Nodes: 2, SD: 0.72},
	{Seq: 2, Kind: "placed", Time: 600, Job: 12, Site: 3, Tenant: "acme", Start: 600, Finish: 12600.000000000002, Risky: true, FellBack: true},
	{Seq: math.MaxInt64, Kind: "site_speed", Time: 1e21, Job: math.MinInt64, Site: math.MaxInt64, Speed: 1e-7},
	{Seq: math.MinInt64, Time: math.Copysign(0, -1), Start: math.Copysign(0, -1), Level: 5e-324, SD: 2.2250738585072014e-308},
	{Time: 999999999999999868928, Start: 1e-6, Finish: 9.999999999999999e-7, Arrival: -1e21, Workload: 1e100, SD: 1e-100, Nodes: -1},
	{Kind: `a"b\c`, Tenant: "<&>"},
	{Kind: "caf\u00e9 \u2028", Tenant: "\x00\x1f\x7f\xff"},
	{Time: math.NaN()},
	{Speed: math.Inf(-1)},
}

func TestEventCodecCases(t *testing.T) {
	for _, line := range codecLines {
		checkParse(t, []byte(line))
	}
	for _, ev := range codecEvents {
		checkAppend(t, ev)
	}
}

// TestParseEventFastPath keeps the fast path honest about being one: the
// lines the daemon writes must not fall through to json.Unmarshal. (Of
// codecEvents, 19-digit integers and escaped strings do, by design.)
func TestParseEventFastPath(t *testing.T) {
	for _, ev := range []Event{codecEvents[0], codecEvents[1], codecEvents[2], codecEvents[5]} {
		var got Event
		if line := ev.AppendJSON(nil); !parseCanonical(line, &got) {
			t.Errorf("canonical line left to the fallback: %s", line)
		}
	}
}

// TestAppendJSONAllocs pins the encoder at zero allocations into a warm
// buffer: the handler and the journal flush encode tens of thousands of
// events into one buffer.
func TestAppendJSONAllocs(t *testing.T) {
	ev := codecEvents[2]
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = ev.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON into a warm buffer allocates %v times per event", n)
	}
}

// FuzzEventCodec holds both halves of the contract over arbitrary input:
// line feeds the decoder, the remaining arguments build an event for the
// encoder. flags spreads over the three booleans.
func FuzzEventCodec(f *testing.F) {
	for i, line := range codecLines {
		ev := codecEvents[i%len(codecEvents)]
		f.Add([]byte(line), ev.Seq, ev.Kind, ev.Tenant, ev.Job, ev.Nodes, uint8(i), ev.Time, ev.Start, ev.Level)
	}
	for _, ev := range codecEvents {
		f.Add(ev.AppendJSON(nil), ev.Seq, ev.Kind, ev.Tenant, ev.Job, ev.Nodes, uint8(7), ev.Time, ev.Finish, ev.SD)
	}
	f.Fuzz(func(t *testing.T, line []byte, seq int64, kind, tenant string, job, nodes int, flags uint8, a, b, c float64) {
		checkParse(t, line)
		checkAppend(t, Event{
			Seq: seq, Kind: kind, Time: a, Job: job, Site: nodes ^ job, Tenant: tenant,
			SafeOnly: flags&1 != 0, Start: b, Finish: c, Risky: flags&2 != 0, FellBack: flags&4 != 0,
			Arrival: c, Workload: a, Nodes: nodes, SD: b, Level: c, Speed: a,
		})
	})
}

// sameBits reports whether two events are the same bit for bit: NaN
// payloads and the sign of zero included.
func sameBits(a, b *Event) bool {
	x, y := *a, *b
	x.Time, x.Start, x.Finish, x.Arrival, x.Workload, x.SD, x.Level, x.Speed = 0, 0, 0, 0, 0, 0, 0, 0
	y.Time, y.Start, y.Finish, y.Arrival, y.Workload, y.SD, y.Level, y.Speed = 0, 0, 0, 0, 0, 0, 0, 0
	return x == y && floatBits(a) == floatBits(b)
}

// checkRecord is the record codec's contract: an event's record reads
// back bit for bit, stops where the record does, and no proper prefix
// of it decodes.
func checkRecord(t *testing.T, ev Event) {
	t.Helper()
	rec := ev.AppendRecord([]byte("x"))[1:]
	back := Event{Seq: 7, Kind: "placed", Tenant: "acme", Risky: true, Start: 1.5}
	rest, err := ReadEventRecord(append(rec[:len(rec):len(rec)], 'y'), &back)
	if err != nil || string(rest) != "y" || !sameBits(&back, &ev) {
		t.Fatalf("%+v: record %x reads back as %+v, rest %q (%v)", ev, rec, back, rest, err)
	}
	for n := range rec {
		if _, err := ReadEventRecord(rec[:n], &back); err == nil {
			t.Fatalf("%+v: the %d-byte prefix of record %x decodes", ev, n, rec)
		}
	}
}

// recordEvents adds to codecEvents the values only the record carries:
// NaN payloads of both signs, infinities and the extreme ints.
var recordEvents = append(append([]Event(nil), codecEvents...),
	Event{Time: math.Float64frombits(0x7ff0000000000001), Start: math.Float64frombits(0xfff8deadbeef0001), Speed: math.Inf(1), Level: math.Inf(-1)},
	Event{Seq: math.MaxInt64, Job: math.MinInt64, Site: -1, Nodes: math.MaxInt64, Kind: string(make([]byte, 300)), Tenant: "\x00"},
)

func TestEventRecordCases(t *testing.T) {
	for _, ev := range recordEvents {
		checkRecord(t, ev)
	}
	// Bytes AppendRecord never writes: an undefined mask bit, a present
	// field holding zero (int, float and string), a non-minimal length.
	for _, bad := range [][]byte{
		{0, 0, 2, 0},
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{2, 0, 0, 0, 0},
		{2, 0, 0, 0, 0x81, 0, 'a'},
	} {
		var ev Event
		if _, err := ReadEventRecord(bad, &ev); err == nil {
			t.Errorf("%x decodes to %+v", bad, ev)
		}
	}
	// A kind the engine emits is shared, not copied.
	rec := codecEvents[2].AppendRecord(nil)
	var ev Event
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ReadEventRecord(rec, &ev); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("decoding a placed record allocates %v times, want the tenant's 1", n)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = codecEvents[2].AppendRecord(buf[:0]) }); n != 0 {
		t.Fatalf("AppendRecord into a warm buffer allocates %v times per event", n)
	}
}

// readAllRecords decodes records from data until it ends or one does
// not decode, as the journal loader does.
func readAllRecords(data []byte) (n int) {
	var ev Event
	for len(data) > 0 {
		var err error
		if data, err = ReadEventRecord(data, &ev); err != nil {
			break
		}
		n++
	}
	return n
}

// FuzzEventRecord holds the record codec to its contract over
// arbitrary input: every field value — NaN payloads, ±0, subnormals,
// extreme ints, strings of any bytes, passed as raw bits — round-trips
// bit for bit (checkRecord), and arbitrary bytes never panic the
// decoder, which allocates at most 2n + 16 KiB for n bytes of input: it
// copies at most the strings the input holds, and sizes nothing from a
// length it has not checked against what is left.
func FuzzEventRecord(f *testing.F) {
	for i, ev := range recordEvents {
		f.Add(ev.AppendRecord(nil), ev.Seq, ev.Kind, ev.Tenant, int64(ev.Job), int64(ev.Nodes), uint8(i),
			math.Float64bits(ev.Time), math.Float64bits(ev.Start), math.Float64bits(ev.Level))
	}
	f.Add([]byte{0xff, 0xff, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, int64(0), "", "", int64(0), int64(0), uint8(0), uint64(1), uint64(1<<63), uint64(0x7ff8000000000000))
	f.Fuzz(func(t *testing.T, data []byte, seq int64, kind, tenant string, job, nodes int64, flags uint8, a, b, c uint64) {
		fa, fb, fc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		checkRecord(t, Event{
			Seq: seq, Kind: kind, Time: fa, Job: int(job), Site: int(nodes ^ job), Tenant: tenant,
			SafeOnly: flags&1 != 0, Start: fb, Finish: fc, Risky: flags&2 != 0, FellBack: flags&4 != 0,
			Arrival: fc, Workload: fa, Nodes: int(nodes), SD: fb, Level: fc, Speed: fa,
		})
		n := uint64(len(data))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readAllRecords(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 2*n+16<<10; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", n, got, limit)
		}
	})
}

// TestEventFrameCases: every record event framed back to back (one of
// them past 127 bytes, so with a two-byte length) reads back bit for
// bit and then io.EOF; every proper prefix of a frame is
// io.ErrUnexpectedEOF; a length past MaxEventFrame, a three-byte
// length, an empty frame and a frame holding more than one record are
// ErrEventRecord.
func TestEventFrameCases(t *testing.T) {
	var stream []byte
	for _, ev := range recordEvents {
		at := len(stream)
		stream = ev.AppendFrame(stream)
		rec := ev.AppendRecord(nil)
		n, k := binary.Uvarint(stream[at:])
		if int(n) != len(rec) || !bytes.Equal(stream[at+k:], rec) {
			t.Fatalf("%+v: frame %x is not its record %x behind its length", ev, stream[at:], rec)
		}
		for cut := at + 1; cut < len(stream); cut++ {
			var back Event
			br := bufio.NewReader(bytes.NewReader(stream[at:cut]))
			if err := ReadEventFrame(br, &back); err != io.ErrUnexpectedEOF {
				t.Fatalf("%+v: the %d-byte prefix of its frame reads as %v", ev, cut-at, err)
			}
		}
	}
	if stream[len(stream)-len(recordEvents[len(recordEvents)-1].AppendRecord(nil))-2] < 0x80 {
		t.Fatal("no frame took a two-byte length")
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for _, want := range recordEvents {
		var ev Event
		if err := ReadEventFrame(br, &ev); err != nil || !sameBits(&ev, &want) {
			t.Fatalf("read %+v (%v), want %+v", ev, err, want)
		}
	}
	if err := ReadEventFrame(br, new(Event)); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	rec := codecEvents[2].AppendRecord(nil)
	huge := Event{Kind: strings.Repeat("k", MaxEventFrame)}
	for _, bad := range [][]byte{
		huge.AppendFrame(nil),
		{0x81, 0x80, 0x01},
		{0},
		append(append([]byte{byte(2 * len(rec))}, rec...), rec...),
		append([]byte{byte(len(rec) + 1)}, append(rec, 0)...),
	} {
		var ev Event
		if err := ReadEventFrame(bufio.NewReader(bytes.NewReader(bad)), &ev); !errors.Is(err, ErrEventRecord) {
			t.Errorf("%.40x: %v, want ErrEventRecord", bad, err)
		}
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = codecEvents[2].AppendFrame(buf[:0]) }); n != 0 {
		t.Fatalf("AppendFrame into a warm buffer allocates %v times per event", n)
	}
}

// TestEventDecoderSharesTenants: a decoder reads the same events as
// ReadEventFrame, and once it has met each of a few interleaved tenants
// it decodes their frames without allocating.
func TestEventDecoderSharesTenants(t *testing.T) {
	tenants := []string{"gold", "silver", "bronze", "iron"}
	var stream []byte
	for i := 0; i < 64; i++ {
		ev := Event{Seq: int64(i + 1), Kind: "placed", Time: float64(i), Job: i + 1, Site: 2, Tenant: tenants[i*7%len(tenants)], Start: 1, Finish: 2}
		stream = ev.AppendFrame(stream)
	}
	var dec EventDecoder
	plain := bufio.NewReader(bytes.NewReader(stream))
	shared := bufio.NewReader(bytes.NewReader(stream))
	for {
		var want, got Event
		werr := ReadEventFrame(plain, &want)
		gerr := dec.ReadFrame(shared, &got)
		if werr != gerr || want != got {
			t.Fatalf("decoder read %+v (%v), ReadEventFrame %+v (%v)", got, gerr, want, werr)
		}
		if werr == io.EOF {
			break
		}
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	var ev Event
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(stream)
		br.Reset(rd)
		for dec.ReadFrame(br, &ev) == nil {
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm decoder allocates %v times per 64-frame stream, want 0", allocs)
	}
}

package wal

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

// checkPayload holds the record encoder to json.Marshal: the same bytes,
// or both refuse (a record with a NaN or infinite float).
func checkPayload(t *testing.T, rec Record) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	got, err := appendPayload([]byte("x"), &rec)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%+v: encoder error %v, json.Marshal error %v", rec, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if string(got[1:]) != string(want) {
		t.Fatalf("%+v:\nencoder      %s\njson.Marshal %s", rec, got[1:], want)
	}
	checkDecode(t, want)
}

// fuzzRecord builds a record of either hand-rendered kind from fuzzed
// field values; deps turns into a dependency list around id.
func fuzzRecord(seq, g uint64, barrier bool, id, nodes int, at, arrival, workload, sd, deadline float64, tenant string, flags uint8, deps []byte) Record {
	rec := Record{Seq: seq, G: g, At: at}
	if barrier {
		rec.Kind, rec.Barrier = KindBarrier, &BarrierRecord{To: arrival, Drain: flags&1 != 0}
		return rec
	}
	tr := &api.TraceRecord{
		ID: id, Arrival: arrival, Workload: workload, Nodes: nodes, SD: sd,
		Tenant: tenant, SafeOnly: flags&1 != 0, Deadline: deadline,
	}
	for _, d := range deps {
		tr.DependsOn = append(tr.DependsOn, id^int(int8(d)))
	}
	if flags&2 != 0 && tr.DependsOn == nil {
		tr.DependsOn = []int{} // empty, not nil: omitted all the same
	}
	rec.Kind, rec.Arrival = KindArrival, tr
	return rec
}

// TestRecordEncodingMatchesMarshal walks the encoder over the values at
// its edges — ±0, 1e-7, 1e21, 19-digit integers, NaN and ±Inf in every
// float, tenants json.Marshal escapes — and over the kinds it leaves to
// json.Marshal.
func TestRecordEncodingMatchesMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e20, 1e21, -1e22, 0.72, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	ints := []int{0, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	for i, f := range floats {
		for j, n := range ints {
			g := floats[(i+j+1)%len(floats)]
			for _, barrier := range []bool{false, true} {
				checkPayload(t, fuzzRecord(uint64(n), uint64(j), barrier, n, -n, f, g, f, g, f, "a<b>&\"c\"\xff", uint8(i+j), []byte{1, 0x80}))
				checkPayload(t, fuzzRecord(math.MaxUint64, 0, barrier, n, n, 0, f, g, f, 0, "acme", uint8(i), nil))
			}
		}
	}
	for _, rec := range []Record{
		testRecord(1), // tenant
		testRecord(2), // churn
		{Seq: 4, Kind: KindTenant, Tenant: &api.TenantSpec{ID: "t", Weight: math.NaN()}},
		{Seq: 5, Kind: KindChurn, Churn: &grid.ChurnEvent{Time: math.Inf(1)}},
		{Seq: 6, At: 1, Kind: KindArrival, Arrival: &api.TraceRecord{ID: 1}, Tenant: &api.TenantSpec{ID: "stray"}},
		{Seq: 7, Kind: KindBarrier, Barrier: &BarrierRecord{To: 3}, Arrival: &api.TraceRecord{ID: 2}},
	} {
		checkPayload(t, rec)
	}
}

// TestWALAppendAllocs: an arrival record into a warm log costs no
// allocation — no payload, no frame, no boxed record.
func TestWALAppendAllocs(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Kind: KindArrival, At: 300, Arrival: &api.TraceRecord{
		ID: 41, Arrival: 250.5, Workload: 120000, Nodes: 1, SD: 0.72, Tenant: "acme", DependsOn: []int{7, 9},
	}}
	if _, err := l.Append(rec); err != nil { // warm the frame buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Log.Append of an arrival record: %v allocations, want 0", n)
	}
}

// FuzzWALRecordEncode holds the hand-rendered arrival and barrier
// records to json.Marshal on arbitrary field values: the same bytes, or
// both refuse; and what they render decodes as json.Unmarshal reads it.
// Seed corpus under testdata/fuzz/FuzzWALRecordEncode.
func FuzzWALRecordEncode(f *testing.F) {
	f.Add(uint64(1), uint64(0), false, 41, 1, 300.0, 250.5, 120000.0, 0.72, 0.0, 0.0, "acme", uint8(0), []byte(nil))
	f.Add(uint64(9), uint64(17), true, 0, 0, 600.0, 900.0, 0.0, 0.0, 0.0, 0.0, "", uint8(1), []byte(nil))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), false, math.MinInt64, -1, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, -1e22, 1e-8,
		"<&>\"\\\x00\xff\u2028", uint8(3), []byte{0, 1, 0xff})
	// The float64 after deadline fed the removed budget column; it stays
	// so the committed corpus keeps its shape.
	f.Fuzz(func(t *testing.T, seq, g uint64, barrier bool, id, nodes int, at, arrival, workload, sd, deadline, _ float64, tenant string, flags uint8, deps []byte) {
		checkPayload(t, fuzzRecord(seq, g, barrier, id, nodes, at, arrival, workload, sd, deadline, tenant, flags, deps))
	})
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAllocs bounds what decoding n bytes may allocate. The fast path
// may take 32n + 16 KiB: the record it builds, and a dependency list as
// append grows it — at two input bytes per entry and growth steps of a
// quarter, about 20n — so that a reader sizing anything from bytes it
// has not parsed fails. The whole decoder, fallback included, may take
// 64n + 64 KiB, which json.Unmarshal's own worst case (about 40n, for
// deeply nested arrays) fits. The constants leave room for what the
// runtime allocates beside the measured call.
func checkAllocs(t *testing.T, what string, n int, fast, whole uint64) {
	t.Helper()
	if limit := 32*uint64(n) + 16<<10; fast > limit {
		t.Fatalf("%s: the fast path allocated %d bytes for %d input bytes, want <= %d", what, fast, n, limit)
	}
	if limit := 64*uint64(n) + 64<<10; whole > limit {
		t.Fatalf("%s: decoding allocated %d bytes for %d input bytes, want <= %d", what, whole, n, limit)
	}
}

// checkDecode is the decoder half of the record codec contract, on any
// payload bytes. When the fast path takes them, json.Unmarshal takes
// them too and stores the same record, and json.Marshal renders that
// record back to exactly these bytes: the fast path reads json.Marshal's
// output and nothing else. decodePayload, fast path and fallback
// together, agrees with json.Unmarshal on everything, and allocates at
// most linearly in the payload's length (checkAllocs). It reports
// whether the fast path took the payload.
func checkDecode(t *testing.T, payload []byte) (fast bool) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(payload, &want)
	var got, rec Record
	var ok bool
	whole := allocated(func() { got, ok = decodePayload(payload) })
	if ok != (wantErr == nil) || ok && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decodePayload %+v (parsed %v), json.Unmarshal %+v (%v)", payload, got, ok, want, wantErr)
	}
	checkAllocs(t, string(payload[:min(len(payload), 64)]), len(payload), allocated(func() { fast = parseCanonical(payload, &rec) }), whole)
	if !fast {
		return false
	}
	if wantErr != nil {
		t.Fatalf("%q: the fast path takes what json.Unmarshal refuses (%v)", payload, wantErr)
	}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("%q:\nfast path      %+v\njson.Unmarshal %+v", payload, rec, want)
	}
	if back, err := json.Marshal(rec); err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("the fast path takes %q, which is not json.Marshal's rendering %q of what it decodes (%v)", payload, back, err)
	}
	return true
}

// fastPayloads are the canonical form of every kind the fast path
// reads; it must take each of them.
var fastPayloads = []string{
	`{"seq":1,"kind":"arrival","at":300,"arrival":{"id":41,"arrival":250.5,"workload":120000,"nodes":1,"sd":0.72,"tenant":"acme","safe_only":true,"depends_on":[7,-9],"deadline":900}}`,
	`{"seq":2,"kind":"arrival","arrival":{"id":0,"arrival":0,"workload":0,"nodes":0,"sd":0}}`,
	`{"seq":3,"kind":"barrier","at":300,"g":17,"barrier":{"to":600}}`,
	`{"seq":4,"kind":"barrier","g":18,"barrier":{"to":0,"drain":true}}`,
	`{"seq":5,"kind":"churn","churn":{"t":1e+21,"site":3,"kind":"degrade","factor":0.5}}`,
	`{"seq":6,"kind":"churn","g":2,"churn":{"t":12.5,"site":0,"kind":"crash"}}`,
	`{"seq":7,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[` + strings.Repeat("1,", 4096) + `1]}}`,
	`{"seq":8,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[` + strings.Repeat("1,", 1<<15) + `1]}}`,
}

// slowPayloads are the inputs the fast path must leave to
// json.Unmarshal: a tenant record; an "at" or a "g" of zero, which
// omitempty never writes; duplicate keys, which json.Unmarshal takes
// (the last wins) but json.Marshal never writes; other spellings of the
// same numbers; keys out of order; payloads that do not match their
// kind; and what is not a record at all.
var slowPayloads = []string{
	`{"seq":8,"kind":"tenant","tenant":{"id":"acme","weight":2,"max_queue":100}}`,
	`{"seq":1,"kind":"barrier","at":0,"barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","at":-0,"barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","g":0,"barrier":{"to":600}}`,
	`{"seq":1,"seq":1,"kind":"barrier","barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","at":5,"at":5,"barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","g":3,"g":3,"barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","barrier":{"to":600,"to":600}}`,
	`{"seq":1,"kind":"churn","churn":{"t":1,"t":1,"site":0,"kind":"join"}}`,
	`{"seq":5,"kind":"churn","churn":{"t":1e21,"site":3,"kind":"degrade","factor":0.5}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"tenant":""}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"safe_only":false}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[]}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"deadline":0}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":-0,"arrival":0,"workload":1,"nodes":1,"sd":0.5}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1.0,"nodes":1,"sd":0.5}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":5E-1}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"tenant":"a\u0062"}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5},"barrier":{"to":1}}`,
	`{"seq":1,"kind":"arrival","barrier":{"to":1}}`,
	`{"seq":1,"kind":"barrier","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5}}`,
	`{"seq":1,"kind":"churn","churn":null}`,
	`{"seq":1,"kind":"churn","churn":{"t":1,"site":0,"kind":"meltdown"}}`,
	`{"kind":"barrier","seq":1,"barrier":{"to":600}}`,
	`{"seq":-1,"kind":"barrier","barrier":{"to":600}}`,
	`{"seq":18446744073709551615,"kind":"barrier","barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","barrier":{"to":600}} `,
	`{"seq":1,"kind":"barrier","barrier":{"to":600}`,
	`{"seq":1,"kind":"Barrier","barrier":{"to":600}}`,
	`{"seq":1,"kind":"barrier","barrier":{"to":1e999}}`,
	`{"seq":1,"kind":"arrival","arrival":{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[` + strings.Repeat("1,", 4096) + `]}}`,
	`{"seq":1,"kind":"arrival","arrival":` + strings.Repeat("[", 9000),
	`{}`,
	`null`,
	``,
}

func TestRecordDecodeCases(t *testing.T) {
	for _, p := range fastPayloads {
		if !checkDecode(t, []byte(p)) {
			t.Errorf("canonical payload left to the fallback: %.120s", p)
		}
	}
	for _, p := range slowPayloads {
		if checkDecode(t, []byte(p)) {
			t.Errorf("the fast path takes %.120s", p)
		}
	}
}

// TestFixtureRecordsDecodeAlike reads every segment of the durable
// directories the compatibility fixtures pin — records as daemons of
// both snapshot layouts wrote them — through both decoders: each record
// decodes to the same Record through the fast path and through
// json.Unmarshal, every arrival, barrier and churn record takes the fast
// path, and DecodeAll reads every segment whole.
func TestFixtureRecordsDecodeAlike(t *testing.T) {
	kinds := make(map[string]int)
	for _, root := range []string{"../server/testdata/wal-v2", "../server/testdata/wal-v3"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "wal-") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var first uint64
			for i, line := range bytes.SplitAfter(data, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				payload, ok := decodeFrame(line[:len(line)-1])
				if !ok {
					t.Fatalf("%s line %d: bad frame", path, i+1)
				}
				fast := checkDecode(t, payload)
				var rec Record
				if err := json.Unmarshal(payload, &rec); err != nil {
					t.Fatalf("%s line %d: %v", path, i+1, err)
				}
				if fast != (rec.Kind != KindTenant) {
					t.Fatalf("%s line %d: a %s record, fast path %v", path, i+1, rec.Kind, fast)
				}
				if i == 0 {
					first = rec.Seq
				}
				kinds[rec.Kind]++
			}
			if _, n := DecodeAll(data, first); n != len(data) {
				t.Fatalf("%s: DecodeAll reads %d of %d bytes", path, n, len(data))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{KindArrival, KindBarrier, KindChurn, KindTenant} {
		if kinds[k] == 0 {
			t.Fatalf("the fixtures hold no %s record (%v)", k, kinds)
		}
	}
}

// TestDecodeAllocs: an arrival record decodes with the allocations its
// contents need — the record, the tenant string, the dependency list —
// and a churn or barrier record with one.
func TestDecodeAllocs(t *testing.T) {
	for _, tc := range []struct {
		rec  Record
		want float64
	}{
		{Record{Seq: 9, Kind: KindArrival, At: 300, Arrival: &api.TraceRecord{ID: 41, Arrival: 250.5, Workload: 120000, Nodes: 1, SD: 0.72, Tenant: "acme", DependsOn: []int{7}}}, 3},
		{Record{Seq: 9, Kind: KindChurn, Churn: &grid.ChurnEvent{Time: 12.5, Site: 3, Kind: grid.ChurnDegrade, Factor: 0.5}}, 1},
		{Record{Seq: 9, G: 4, Kind: KindBarrier, At: 300, Barrier: &BarrierRecord{To: 600}}, 1},
	} {
		payload, err := appendPayload(nil, &tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := decodePayload(payload); !ok {
				t.Fatal("does not decode")
			}
		}); n > tc.want {
			t.Fatalf("%s: decoding %s allocates %v times, want <= %v", tc.rec.Kind, payload, n, tc.want)
		}
	}
}

// FuzzWALRecordDecode holds the record decoder to encoding/json on
// arbitrary payload bytes (checkDecode): the fast path never takes what
// json.Unmarshal refuses or reads differently, takes nothing but
// json.Marshal's bytes, and the decoder's allocations stay linear in
// the payload's length.
func FuzzWALRecordDecode(f *testing.F) {
	for _, p := range append(fastPayloads, slowPayloads...) {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecode(t, payload)
	})
}

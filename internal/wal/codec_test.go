package wal

import (
	"encoding/json"
	"math"
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
}

// fuzzRecord builds a record of either hand-rendered kind from fuzzed
// field values; deps turns into a dependency list around id.
func fuzzRecord(seq, g uint64, barrier bool, id, nodes int, at, arrival, workload, sd, deadline, budget float64, tenant string, flags uint8, deps []byte) Record {
	rec := Record{Seq: seq, G: g, At: at}
	if barrier {
		rec.Kind, rec.Barrier = KindBarrier, &BarrierRecord{To: arrival, Drain: flags&1 != 0}
		return rec
	}
	tr := &api.TraceRecord{
		ID: id, Arrival: arrival, Workload: workload, Nodes: nodes, SD: sd,
		Tenant: tenant, SafeOnly: flags&1 != 0, Deadline: deadline, Budget: budget,
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
				checkPayload(t, fuzzRecord(uint64(n), uint64(j), barrier, n, -n, f, g, f, g, f, g, "a<b>&\"c\"\xff", uint8(i+j), []byte{1, 0x80}))
				checkPayload(t, fuzzRecord(math.MaxUint64, 0, barrier, n, n, 0, f, g, f, 0, 0, "acme", uint8(i), nil))
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
// both refuse. Seed corpus under testdata/fuzz/FuzzWALRecordEncode.
func FuzzWALRecordEncode(f *testing.F) {
	f.Add(uint64(1), uint64(0), false, 41, 1, 300.0, 250.5, 120000.0, 0.72, 0.0, 0.0, "acme", uint8(0), []byte(nil))
	f.Add(uint64(9), uint64(17), true, 0, 0, 600.0, 900.0, 0.0, 0.0, 0.0, 0.0, "", uint8(1), []byte(nil))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64), false, math.MinInt64, -1, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, -1e22, 1e-8,
		"<&>\"\\\x00\xff\u2028", uint8(3), []byte{0, 1, 0xff})
	f.Fuzz(func(t *testing.T, seq, g uint64, barrier bool, id, nodes int, at, arrival, workload, sd, deadline, budget float64, tenant string, flags uint8, deps []byte) {
		checkPayload(t, fuzzRecord(seq, g, barrier, id, nodes, at, arrival, workload, sd, deadline, budget, tenant, flags, deps))
	})
}

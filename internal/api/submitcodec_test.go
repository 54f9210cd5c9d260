package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// dumpSubmit renders a decoded request exactly: float bit patterns (so
// -0 is not 0), nil pointers and nil slices apart from zero and empty
// ones.
func dumpSubmit(req *SubmitRequest) string {
	var b strings.Builder
	bits := func(f float64) string { return fmt.Sprintf("%#x", math.Float64bits(f)) }
	fmt.Fprintf(&b, "jobs nil=%v len=%d", req.Jobs == nil, len(req.Jobs))
	for _, js := range req.Jobs {
		b.WriteString("\n")
		if js.ID != nil {
			fmt.Fprintf(&b, "id=%d ", *js.ID)
		}
		if js.Arrival != nil {
			fmt.Fprintf(&b, "arrival=%s ", bits(*js.Arrival))
		}
		fmt.Fprintf(&b, "workload=%s nodes=%d sd=%s deps(nil=%v)=%v deadline=%s",
			bits(js.Workload), js.Nodes, bits(js.SD), js.DependsOn == nil, js.DependsOn, bits(js.Deadline))
	}
	return b.String()
}

// checkSubmitDecode holds DecodeSubmitRequest to the json.Decoder it
// replaced: on any bytes, the same error-or-not and the same request.
func checkSubmitDecode(t *testing.T, body []byte) {
	t.Helper()
	got := SubmitRequest{Jobs: []JobSpec{{Workload: 9}}} // overwritten, whatever it held
	var want SubmitRequest
	gotErr := DecodeSubmitRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: DecodeSubmitRequest error %v, json.Decoder error %v", body, gotErr, wantErr)
	}
	if g, w := dumpSubmit(&got), dumpSubmit(&want); g != w {
		t.Fatalf("%q:\nDecodeSubmitRequest %s\njson.Decoder        %s", body, g, w)
	}
}

// randomSubmit is a request as a client might build it: any mix of the
// optional fields, extreme and negative values, dependency lists.
func randomSubmit(r *rand.Rand) SubmitRequest {
	floats := []float64{0, math.Copysign(0, -1), 1e-8, 1e-7, 0.72, 1, 5e5, 1e21, 1e22, -3.5, math.MaxFloat64, 5e-324}
	f := func() float64 {
		if r.IntN(2) == 0 {
			return floats[r.IntN(len(floats))]
		}
		return r.NormFloat64() * math.Pow(10, float64(r.IntN(30)-10))
	}
	req := SubmitRequest{Jobs: make([]JobSpec, r.IntN(40))}
	for i := range req.Jobs {
		js := &req.Jobs[i]
		if r.IntN(2) == 0 {
			id := r.IntN(1<<20) - 1000
			if r.IntN(10) == 0 {
				id = 999_999_999_999_999_999 / (1 + r.IntN(1000)) // up to 18 digits, the fast path's reach
			}
			js.ID = &id
		}
		if r.IntN(2) == 0 {
			at := f()
			js.Arrival = &at
		}
		js.Workload, js.SD = f(), f()
		if r.IntN(3) == 0 {
			js.Nodes = r.IntN(64) - 2
		}
		for k := r.IntN(4) - 1; k > 0; k-- {
			js.DependsOn = append(js.DependsOn, r.IntN(1<<20)-5)
		}
		if r.IntN(4) == 0 {
			js.Deadline = f()
		}
	}
	return req
}

// submitNearMisses are bodies the fast path must hand to the decoder:
// valid JSON it does not read, and invalid JSON, each a byte or a
// token away from the canonical form.
var submitNearMisses = []string{
	``,
	`{}`,
	`null`,
	`{"jobs":null}`,
	`{"jobs":[]}`,
	`{"jobs":[{}]}`,
	`{"jobs":[{"workload":5,"sd":0.7}]}`,
	`{"jobs":[{"workload":5,"sd":0.7}]}` + "\n",
	`{"jobs":[{"workload":5,"sd":0.7}]} trailing`,
	`{"jobs":[{"workload":5,"sd":0.7}]}{"jobs":[]}`,
	`{"jobs":[{"workload":5,"sd":0.7}]`,
	`{"jobs":[{"ID":3,"workload":5}]}`,
	`{"jobs":[{"Workload":5}]}`,
	`{"JOBS":[{"workload":5}]}`,
	`{"jobs":[{"workload":5,"workload":6}]}`,
	`{"jobs":[{"id":1,"id":2,"workload":5}]}`,
	`{"jobs":[],"jobs":[{"workload":1}]}`,
	`{"jobs":[{"workload":5,"color":"red"}]}`,
	`{"jobs":[{"workload":5,"":}]}`,
	`{"jobs":[{"workload":5,"":2}]}`,
	`{"jobs":[{"workload":5}],"extra":1}`,
	`{"jobs": [{"workload":5}]}`,
	`{"jobs":[{"workload": 5}]}`,
	` {"jobs":[{"workload":5}]}`,
	`{"jobs":[{"workload":1.}]}`,
	`{"jobs":[{"workload":.5}]}`,
	`{"jobs":[{"workload":01}]}`,
	`{"jobs":[{"workload":+1}]}`,
	`{"jobs":[{"workload":-0}]}`,
	`{"jobs":[{"id":-0,"workload":1}]}`,
	`{"jobs":[{"workload":1e400}]}`,
	`{"jobs":[{"workload":1e-400}]}`,
	`{"jobs":[{"workload":0.E06}]}`,
	`{"jobs":[{"workload":null}]}`,
	`{"jobs":[{"id":null,"workload":1}]}`,
	`{"jobs":[{"arrival":null,"workload":1}]}`,
	`{"jobs":[{"id":1.0,"workload":1}]}`,
	`{"jobs":[{"id":1e2,"workload":1}]}`,
	`{"jobs":[{"id":999999999999999999,"workload":1}]}`,
	`{"jobs":[{"id":9223372036854775807,"workload":1}]}`,
	`{"jobs":[{"id":9223372036854775808,"workload":1}]}`,
	`{"jobs":[{"nodes":-12345678901234567890,"workload":1}]}`,
	`{"jobs":[{"workload":1,"depends_on":[]}]}`,
	`{"jobs":[{"workload":1,"depends_on":null}]}`,
	`{"jobs":[{"workload":1,"depends_on":[1,]}]}`,
	`{"jobs":[{"workload":1,"depends_on":[1,2.5]}]}`,
	`{"jobs":[{"workload":1,"depends_on":[-0,3]}]}`,
	`{"jobs":[{"workload":1},]}`,
	`{"jobs":[,{"workload":1}]}`,
	`{"jobs":[{"workload":1}{"workload":2}]}`,
	`{"jobs":[{"workload":"5"}]}`,
	`{"jobs":[{"w\u006frkload":5}]}`,
	`{"jobs":{"workload":5}}`,
}

// TestDecodeSubmitRequestMatchesDecoder: json.Marshal's form of 5 000
// random requests takes the fast path and decodes exactly as the
// decoder does; every near miss decodes as the decoder does too.
func TestDecodeSubmitRequestMatchesDecoder(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 1))
	for i := 0; i < 5000; i++ {
		req := randomSubmit(r)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseSubmit(body); !ok {
			t.Fatalf("json.Marshal's body missed the fast path: %s", body)
		}
		checkSubmitDecode(t, body)
	}
	for _, body := range submitNearMisses {
		checkSubmitDecode(t, []byte(body))
	}
}

// TestTraceRecordAppendJSONMatchesMarshal: on 20 000 random records —
// -0, 1e-8, 1e22, negative and 19-digit IDs, dependency lists, tenants
// with HTML, quote, control and non-ASCII characters — AppendJSON
// equals json.Marshal byte for byte, and appends nothing to a record
// Marshal refuses.
func TestTraceRecordAppendJSONMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewPCG(28, 2))
	tenants := []string{"", "default", "acme", "a<b>&c", `q"uote`, "back\\slash", "tab\tnl\n", "ünïcödé", "bad\xffutf8", "\u2028"}
	for i := 0; i < 20000; i++ {
		req := randomSubmit(r)
		rec := TraceRecord{ID: r.IntN(1<<30) - 1<<29, Tenant: tenants[r.IntN(len(tenants))], SafeOnly: r.IntN(2) == 0}
		if len(req.Jobs) > 0 {
			js := req.Jobs[0]
			rec.Workload, rec.SD, rec.Nodes, rec.DependsOn = js.Workload, js.SD, js.Nodes, js.DependsOn
			rec.Deadline = js.Deadline
			if js.Arrival != nil {
				rec.Arrival = *js.Arrival
			}
			if js.ID != nil {
				rec.ID = *js.ID
			}
		}
		if r.IntN(20) == 0 {
			rec.ID = []int{math.MinInt64, math.MaxInt64, -999_999_999_999_999_999}[r.IntN(3)]
		}
		if r.IntN(50) == 0 {
			rec.Deadline = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)]
		}
		checkTraceAppend(t, rec)
	}
}

func checkTraceAppend(t *testing.T, rec TraceRecord) {
	t.Helper()
	want, err := json.Marshal(&rec)
	got := rec.AppendJSON([]byte("x"))
	if err != nil {
		if string(got) != "x" {
			t.Fatalf("%+v: json.Marshal refuses (%v) but AppendJSON wrote %q", rec, err, got[1:])
		}
		return
	}
	if string(got[1:]) != string(want) {
		t.Fatalf("%+v:\nAppendJSON   %s\njson.Marshal %s", rec, got[1:], want)
	}
	checkTraceParse(t, want)
}

// TestDecodeSubmitRequestAllocs: the fast path allocates the jobs slice
// and what the request itself holds — one cell per explicit id and
// arrival, a dependency list as append grows it (two allocations for
// two entries) — never per byte or per field.
func TestDecodeSubmitRequestAllocs(t *testing.T) {
	id, at := 7, 12.5
	body, _ := json.Marshal(SubmitRequest{Jobs: []JobSpec{{ID: &id, Arrival: &at, Workload: 5e4, SD: 0.7, DependsOn: []int{3, 4}}}})
	var req SubmitRequest
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeSubmitRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	}); n > 5 {
		t.Fatalf("DecodeSubmitRequest: %v allocations for one job with an id, an arrival and two dependencies, want <= 5", n)
	}
}

// TestDecodeSubmitRequestHostileBody: the fast path sizes nothing from
// bytes it has not parsed. 32 MiB of "},{" after the jobs array opens,
// or of commas inside a depends_on list, is refused with the decoder's
// error at the cost of that refusal — a few kilobytes, not the hundreds
// of megabytes of slice that counting separators would reserve.
func TestDecodeSubmitRequestHostileBody(t *testing.T) {
	const size = 32 << 20
	for _, tc := range []struct{ name, head, fill string }{
		{"job separators", `{"jobs":[`, "},{"},
		{"dependency commas", `{"jobs":[{"workload":1,"depends_on":[`, ","},
	} {
		body := []byte(tc.head + strings.Repeat(tc.fill, (size-len(tc.head))/len(tc.fill)))
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(new(SubmitRequest))
		var req SubmitRequest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeSubmitRequest(body, &req)
		runtime.ReadMemStats(&after)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: DecodeSubmitRequest error %v, json.Decoder error %v", tc.name, err, wantErr)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > size/64 {
			t.Fatalf("%s: refusing a %d-byte body allocated %d bytes, want <= %d", tc.name, len(body), n, size/64)
		}
	}
}

// FuzzSubmitDecode holds DecodeSubmitRequest to json.Decoder on
// arbitrary bytes: the same error-or-not and the same decoded request.
// Seed corpus under testdata/fuzz/FuzzSubmitDecode.
func FuzzSubmitDecode(f *testing.F) {
	r := rand.New(rand.NewPCG(28, 3))
	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(randomSubmit(r))
		f.Add(body)
	}
	for _, body := range submitNearMisses {
		f.Add([]byte(body))
	}
	f.Fuzz(checkSubmitDecode)
}

package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"trustgrid/internal/strictjson"
)

// checkTraceParse is the decoder half of the trace record's codec
// contract. On any bytes, from any starting value of the target,
// ParseTraceRecord and json.Unmarshal agree on error-or-not and leave
// the same record behind; and the fast path takes nothing but
// json.Marshal's bytes — what it accepts, json.Marshal renders back
// byte for byte.
func checkTraceParse(t *testing.T, line []byte) {
	t.Helper()
	prior := TraceRecord{ID: 3, Tenant: "acme", SafeOnly: true, DependsOn: []int{1}, Deadline: 7}
	for _, start := range []TraceRecord{{}, prior} {
		got, want := start, start
		want.DependsOn = append([]int(nil), start.DependsOn...) // json.Unmarshal reuses the array
		gotErr := ParseTraceRecord(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: ParseTraceRecord error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) || math.Signbit(got.Arrival) != math.Signbit(want.Arrival) {
			t.Fatalf("%q from %+v:\nParseTraceRecord %+v\njson.Unmarshal   %+v", line, start, got, want)
		}
	}
	var fast TraceRecord
	c := strictjson.NewCursor(line)
	if fast.ScanJSON(&c); !c.Done() {
		return
	}
	if back, err := json.Marshal(&fast); err != nil || !bytes.Equal(back, line) {
		t.Fatalf("the fast path takes %q, which is not json.Marshal's rendering %q of what it decodes (%v)", line, back, err)
	}
}

// traceLines are decoder inputs worth keeping: canonical lines, and the
// near misses the fast path must leave to json.Unmarshal.
var traceLines = []string{
	`{"id":41,"arrival":250.5,"workload":120000,"nodes":1,"sd":0.72,"tenant":"acme","safe_only":true,"depends_on":[7,-9],"deadline":900}`,
	`{"id":0,"arrival":0,"workload":0,"nodes":0,"sd":0}`,
	`{"id":-5,"arrival":-0,"workload":1e+21,"nodes":-1,"sd":5e-324}`,
	`{"id":-5,"arrival":-0,"workload":1e21,"nodes":-1,"sd":5e-324}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[]}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"tenant":""}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"safe_only":false}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"deadline":0}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"budget":-0}`,
	`{"id":1,"id":2,"arrival":0,"workload":1,"nodes":1,"sd":0.5}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"deadline":2,"deadline":2}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[1,]}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[-0]}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":null}`,
	`{"id":01,"arrival":0,"workload":1,"nodes":1,"sd":0.5}`,
	`{"id":1,"arrival":0.0,"workload":1,"nodes":1,"sd":0.5}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.50}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"tenant":"a<b"}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"tenant":"caf\u00e9"}`,
	`{"arrival":0,"id":1,"workload":1,"nodes":1,"sd":0.5}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"extra":1}`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5}` + " ",
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5`,
	`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[` + strings.Repeat("1,", 4096) + `]}`,
	`{}`,
	`null`,
	``,
}

func TestParseTraceRecordCases(t *testing.T) {
	for _, line := range traceLines {
		checkTraceParse(t, []byte(line))
	}
	// The lines the daemon writes take the fast path.
	for _, line := range traceLines[:3] {
		var rec TraceRecord
		c := strictjson.NewCursor([]byte(line))
		if rec.ScanJSON(&c); !c.Done() {
			t.Errorf("canonical line left to the fallback: %s", line)
		}
	}
}

// TestTraceFileCodec: WriteTraceRecord writes json.Marshal's line and
// refuses what json.Marshal refuses, with its error; ReadTrace keeps
// reading an explicit empty depends_on list as none.
func TestTraceFileCodec(t *testing.T) {
	for _, rec := range []TraceRecord{
		{ID: 41, Arrival: 250.5, Workload: 120000, Nodes: 1, SD: 0.72, Tenant: "a<b>", DependsOn: []int{7}},
		{ID: 1, Deadline: math.Inf(1)},
	} {
		var buf bytes.Buffer
		err := WriteTraceRecord(&buf, rec)
		want, wantErr := json.Marshal(rec)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%+v: WriteTraceRecord error %v, json.Marshal error %v", rec, err, wantErr)
		}
		if err == nil && buf.String() != string(want)+"\n" {
			t.Fatalf("%+v: WriteTraceRecord wrote %q, json.Marshal %q", rec, buf.String(), want)
		}
	}
	recs, err := ReadTrace(strings.NewReader(`{"id":1,"arrival":0,"workload":1,"nodes":1,"sd":0.5,"depends_on":[]}` + "\n"))
	if err != nil || len(recs) != 1 || recs[0].DependsOn != nil {
		t.Fatalf("ReadTrace of an empty depends_on: %+v, %v; want one record with nil DependsOn", recs, err)
	}
}

// TestParseTraceRecordAllocs: a canonical line decodes with the
// allocations its contents need — the tenant string, and the dependency
// list as append grows it (two allocations for two entries).
func TestParseTraceRecordAllocs(t *testing.T) {
	line := []byte(traceLines[0])
	var rec TraceRecord
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseTraceRecord(line, &rec); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("ParseTraceRecord: %v allocations for a line with a tenant and two dependencies, want <= 3", n)
	}
}

package api

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestPreDAGTraceCompat is the wire-compatibility regression for the
// DAG columns: a trace recorded before depends_on/deadline/budget
// existed must parse, validate, and re-serialize byte-for-byte — the
// new columns never leak into recordings of independent workloads, so
// pre-DAG tooling keeps reading daemon output unchanged.
func TestPreDAGTraceCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/predag_trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if err := ValidateDAG(recs); err != nil {
		t.Fatalf("pre-DAG trace rejected: %v", err)
	}
	for i, r := range recs {
		if r.DependsOn != nil || r.Deadline != 0 {
			t.Fatalf("record %d grew DAG fields from a pre-DAG line: %+v", i, r)
		}
	}
	var out bytes.Buffer
	for _, r := range recs {
		if err := WriteTraceRecord(&out, r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Fatalf("pre-DAG trace did not round-trip byte-for-byte:\n got  %q\n want %q", out.Bytes(), raw)
	}
}

// TestEdgeFreeJobsSerializeWithoutDAGColumns pins the omitempty
// contract on the write side: a record without edges or deadline emits
// neither key, and one with them emits both. No record emits the
// removed budget key.
func TestEdgeFreeJobsSerializeWithoutDAGColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceRecord(&buf, TraceRecord{ID: 1, Arrival: 0, Workload: 10, Nodes: 1, SD: 0.5}); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, key := range []string{"depends_on", "deadline", "budget"} {
		if strings.Contains(line, key) {
			t.Fatalf("edge-free record leaked %q: %s", key, line)
		}
	}

	buf.Reset()
	rec := TraceRecord{ID: 2, Arrival: 1, Workload: 10, Nodes: 1, SD: 0.5,
		DependsOn: []int{1}, Deadline: 60}
	if err := WriteTraceRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	line = buf.String()
	if strings.Contains(line, "budget") {
		t.Fatalf("record emitted the removed budget key: %s", line)
	}
	for _, want := range []string{`"depends_on":[1]`, `"deadline":60`} {
		if !strings.Contains(line, want) {
			t.Fatalf("DAG record missing %s: %s", want, line)
		}
	}
}

// TestBudgetKeyIgnored: the budget column was removed. A submit body or
// trace line that still names it decodes as if it did not, through the
// slow path's json decoder.
func TestBudgetKeyIgnored(t *testing.T) {
	var req SubmitRequest
	if err := DecodeSubmitRequest([]byte(`{"jobs":[{"workload":10,"sd":0.5,"budget":2.5}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if want := []JobSpec{{Workload: 10, SD: 0.5}}; !reflect.DeepEqual(req.Jobs, want) {
		t.Fatalf("decoded %+v, want %+v", req.Jobs, want)
	}
	var rec TraceRecord
	if err := ParseTraceRecord([]byte(`{"id":1,"arrival":0,"workload":10,"nodes":1,"sd":0.5,"budget":2.5}`), &rec); err != nil {
		t.Fatal(err)
	}
	if want := (TraceRecord{ID: 1, Workload: 10, Nodes: 1, SD: 0.5}); !reflect.DeepEqual(rec, want) {
		t.Fatalf("parsed %+v, want %+v", rec, want)
	}
}

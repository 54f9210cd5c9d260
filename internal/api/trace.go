package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"trustgrid/internal/grid"
	"trustgrid/internal/strictjson"
)

// TraceRecord is one accepted arrival — the complete deterministic
// input of the scheduling pipeline. A recorded trace plus the daemon's
// seed (and, multi-tenant, the admission config) reproduces every
// placement byte-for-byte, whether replayed through the daemon in
// manual mode or through sched.Run (DESIGN.md §6.4, §9.4); the parity
// test enforces exactly that. Tenant and SafeOnly are the v2 columns;
// both are omitempty, so pre-v2 traces parse unchanged (tenant "") and
// hand-written single-tenant records stay compact. Daemon recordings
// always label ownership — /v1 submissions record as the default
// tenant.
type TraceRecord struct {
	ID       int     `json:"id"`
	Arrival  float64 `json:"arrival"` // effective (post-clamp) virtual seconds
	Workload float64 `json:"workload"`
	Nodes    int     `json:"nodes"`
	SD       float64 `json:"sd"`
	Tenant   string  `json:"tenant,omitempty"`
	// SafeOnly records the owning tenant's secure-only policy as it
	// applied to this job, so a batch replay needs no tenant registry.
	SafeOnly bool `json:"safe_only,omitempty"`
	// DependsOn and Deadline are the DAG columns (DESIGN.md §14). Both
	// omitempty: pre-DAG traces parse unchanged and edge-free jobs
	// serialize without them, so recordings of independent workloads stay
	// byte-identical to pre-DAG daemons.
	DependsOn []int   `json:"depends_on,omitempty"`
	Deadline  float64 `json:"deadline,omitempty"`
}

// Job materializes the record as a simulator job.
func (t TraceRecord) Job() *grid.Job {
	j := &grid.Job{
		ID: t.ID, Arrival: t.Arrival, Workload: t.Workload,
		Nodes: t.Nodes, SecurityDemand: t.SD,
		Tenant: t.Tenant, SafeOnly: t.SafeOnly,
		Deadline: t.Deadline,
	}
	if t.DependsOn != nil {
		j.DependsOn = append([]int(nil), t.DependsOn...)
	}
	return j
}

// NewTraceRecord is the inverse of Job: the record of j, every column
// included.
func NewTraceRecord(j *grid.Job) TraceRecord {
	return TraceRecord{
		ID: j.ID, Arrival: j.Arrival, Workload: j.Workload,
		Nodes: j.Nodes, SD: j.SecurityDemand,
		Tenant: j.Tenant, SafeOnly: j.SafeOnly,
		DependsOn: j.DependsOn, Deadline: j.Deadline,
	}
}

// AppendJSON appends the record's JSON object to dst — one line of an
// arrival trace, and the arrival payload of a WAL record (DESIGN.md
// §10.1) — and returns the extended slice. The bytes equal
// json.Marshal's, under the same rules as Event.AppendJSON: a record
// json.Marshal refuses (a NaN or infinite float) leaves dst unchanged.
func (t *TraceRecord) AppendJSON(dst []byte) []byte {
	for _, f := range [...]float64{t.Arrival, t.Workload, t.SD, t.Deadline} {
		if !strictjson.Finite(f) {
			return dst
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"arrival":`...)
	dst = strictjson.AppendFloat(dst, t.Arrival)
	dst = append(dst, `,"workload":`...)
	dst = strictjson.AppendFloat(dst, t.Workload)
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, int64(t.Nodes), 10)
	dst = append(dst, `,"sd":`...)
	dst = strictjson.AppendFloat(dst, t.SD)
	if t.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = strictjson.AppendString(dst, t.Tenant)
	}
	if t.SafeOnly {
		dst = append(dst, `,"safe_only":true`...)
	}
	if len(t.DependsOn) > 0 {
		dst = append(dst, `,"depends_on":`...)
		sep := byte('[')
		for _, d := range t.DependsOn {
			dst = strconv.AppendInt(append(dst, sep), int64(d), 10)
			sep = ','
		}
		dst = append(dst, ']')
	}
	dst = strictjson.AppendOptFloat(dst, `,"deadline":`, t.Deadline)
	return append(dst, '}')
}

// ScanJSON reads, at c, the object AppendJSON renders and stores the
// fields it names in t — exactly what json.Unmarshal stores for those
// bytes; fields it omits keep their values. Any other spelling fails c
// (DESIGN.md §9.7), and a failed read may leave t partly written.
func (t *TraceRecord) ScanJSON(c *strictjson.Cursor) {
	c.Lit(`{"id":`)
	t.ID = c.Int()
	c.Lit(`,"arrival":`)
	t.Arrival = c.Float()
	c.Lit(`,"workload":`)
	t.Workload = c.Float()
	c.Lit(`,"nodes":`)
	t.Nodes = c.Int()
	c.Lit(`,"sd":`)
	t.SD = c.Float()
	// Omitempty fields: present only when not zero.
	if c.Opt(`,"tenant":`) {
		t.Tenant = c.Str()
		c.Want(t.Tenant != "")
	}
	if c.Opt(`,"safe_only":true`) {
		t.SafeOnly = true
	}
	if c.Opt(`,"depends_on":[`) {
		// The list grows with the entries read, never with what the rest
		// of the line holds.
		deps := []int{c.Int()}
		for c.Opt(",") {
			deps = append(deps, c.Int())
		}
		t.DependsOn = deps
		c.Lit("]")
	}
	if c.Opt(`,"deadline":`) {
		t.Deadline = c.Float()
		c.Want(t.Deadline != 0)
	}
	c.Lit("}")
}

// ParseTraceRecord decodes one trace line into rec with json.Unmarshal's
// semantics — fields the line does not name keep their values, and the
// error, if any, is json.Unmarshal's. A line in AppendJSON's form takes
// the fast path (ScanJSON); every other line, valid or not, goes to
// json.Unmarshal.
func ParseTraceRecord(line []byte, rec *TraceRecord) error {
	tmp := *rec
	c := strictjson.NewCursor(line)
	if tmp.ScanJSON(&c); c.Done() {
		*rec = tmp
		return nil
	}
	// Decoding into a copy made here, as ParseEvent does, keeps the
	// caller's record off the heap.
	slow := *rec
	err := json.Unmarshal(line, &slow)
	*rec = slow
	return err
}

// WriteTraceRecord appends one JSONL line.
func WriteTraceRecord(w io.Writer, rec TraceRecord) error {
	b := rec.AppendJSON(make([]byte, 0, 128))
	if len(b) == 0 {
		// A record AppendJSON does not render is json.Marshal's to judge,
		// and it refuses it with the reason.
		var err error
		if b, err = json.Marshal(rec); err != nil {
			return err
		}
	}
	_, err := w.Write(append(b, '\n'))
	return err
}

// ReadTrace parses a JSONL arrival trace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec TraceRecord
		if err := ParseTraceRecord(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("api: trace line %d: %w", line, err)
		}
		// Canonicalize: an explicit empty depends_on list means the same
		// as an absent one, and omitempty would drop it on re-encode —
		// nil keeps edge-free records round-tripping byte-for-byte.
		if len(rec.DependsOn) == 0 {
			rec.DependsOn = nil
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateDAG checks a trace's dependency structure. A trace is an
// arrival order, so every dependency must name a job that appears
// strictly earlier in the record list — which also rules out cycles by
// construction. Traces without any depends_on column skip the ID
// uniqueness check (pre-DAG traces with recycled IDs keep parsing);
// once edges appear, duplicate IDs would make references ambiguous and
// are rejected.
func ValidateDAG(recs []TraceRecord) error {
	hasEdges := false
	for i := range recs {
		if len(recs[i].DependsOn) > 0 {
			hasEdges = true
			break
		}
	}
	if !hasEdges {
		return nil
	}
	seen := make(map[int]int, len(recs))
	for i, r := range recs {
		if prev, dup := seen[r.ID]; dup {
			return fmt.Errorf("api: trace records %d and %d reuse job id %d (ambiguous dependency target)", prev, i, r.ID)
		}
		depSeen := make(map[int]struct{}, len(r.DependsOn))
		for _, d := range r.DependsOn {
			if d == r.ID {
				return fmt.Errorf("api: trace record %d: job %d depends on itself", i, r.ID)
			}
			if _, dup := depSeen[d]; dup {
				return fmt.Errorf("api: trace record %d: job %d lists dependency %d twice", i, r.ID, d)
			}
			depSeen[d] = struct{}{}
			if _, ok := seen[d]; !ok {
				return fmt.Errorf("api: trace record %d: job %d depends on %d, which does not appear earlier in the trace", i, r.ID, d)
			}
		}
		seen[r.ID] = i
	}
	return nil
}

// JobsFromTrace materializes a whole trace, preserving order.
func JobsFromTrace(recs []TraceRecord) []*grid.Job {
	jobs := make([]*grid.Job, len(recs))
	for i, r := range recs {
		jobs[i] = r.Job()
	}
	return jobs
}

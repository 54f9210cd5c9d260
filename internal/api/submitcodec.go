package api

import (
	"bytes"
	"encoding/json"

	"trustgrid/internal/strictjson"
)

// The submit body. POST /v1/jobs and /v2/tenants/{id}/jobs carry a
// SubmitRequest, which the typed client renders with json.Marshal.
// DecodeSubmitRequest reads exactly that form by hand and hands every
// other body to the json.Decoder the handler used before, the same
// fallback rule as ParseEvent's (DESIGN.md §9.7).

// DecodeSubmitRequest decodes a submit body into req, overwriting it.
// The result and the error are those of
// json.NewDecoder(bytes.NewReader(body)).Decode on a zero SubmitRequest
// — bytes after the first JSON value included, which it ignores. Bodies
// in json.Marshal's form take a fast path; it accepts only what it
// decodes exactly like encoding/json (no whitespace, known lower-case
// keys each at most once, strict JSON numbers, integers that fit their
// field, nothing after the final '}') and leaves anything else — valid
// or not — to the decoder.
func DecodeSubmitRequest(body []byte, req *SubmitRequest) error {
	if jobs, ok := parseSubmit(body); ok {
		*req = SubmitRequest{Jobs: jobs}
		return nil
	}
	var slow SubmitRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&slow)
	*req = slow
	return err
}

// parseSubmit is DecodeSubmitRequest's fast path: it reports whether
// body was a canonical submit body and, if so, returns its jobs.
func parseSubmit(b []byte) ([]JobSpec, bool) {
	const head = `{"jobs":`
	if !bytes.HasPrefix(b, []byte(head)) {
		return nil, false
	}
	i := len(head)
	if string(b[i:]) == "null}" {
		return nil, true
	}
	if i >= len(b) || b[i] != '[' {
		return nil, false
	}
	i++
	// "[]" decodes to an empty slice, not nil. The slice and the slabs
	// behind the jobs' explicit ids and arrivals start at the body's
	// count of job separators, which is exact for the canonical form and
	// capped, so a body cannot make them larger than maxJobsHint before
	// its jobs parse; past the hint they grow with the jobs parsed.
	hint := min(bytes.Count(b[i:], []byte("},{"))+1, maxJobsHint)
	jobs := make([]JobSpec, 0, hint)
	ptrs := specSlabs{ids: slab[int]{size: hint}, arrivals: slab[float64]{size: hint}}
	for i < len(b) && b[i] != ']' {
		if len(jobs) > 0 {
			if b[i] != ',' {
				return nil, false
			}
			i++
		}
		var js JobSpec
		var ok bool
		if i, ok = parseJobSpec(b, i, &js, &ptrs); !ok {
			return nil, false
		}
		jobs = append(jobs, js)
	}
	return jobs, len(b)-i == 2 && b[i+1] == '}'
}

// Field bits for parseJobSpec's seen-once check, in struct order.
const (
	jID = 1 << iota
	jArrival
	jWorkload
	jNodes
	jSD
	jDependsOn
	jDeadline
)

// specSlabs holds the values a body's JobSpec.ID and .Arrival point
// at, so they cost an allocation per slab chunk, not one per job.
type specSlabs struct {
	ids      slab[int]
	arrivals slab[float64]
}

// maxJobsHint caps the job count parseSubmit sizes for up front.
const maxJobsHint = 1024

// slab hands out pointers into chunks that never move. The first chunk
// holds size values (at least 16) and each next one twice the last, so
// n values cost O(log n) allocations, and one when size covers them.
type slab[T any] struct {
	free []T
	size int
}

func (s *slab[T]) ptr(v T) *T {
	if len(s.free) == 0 {
		n := max(s.size, 16)
		s.free, s.size = make([]T, n), 2*n
	}
	p := &s.free[0]
	*p = v
	s.free = s.free[1:]
	return p
}

// parseJobSpec reads one canonical JobSpec object at i into js, its id
// and arrival stored in ptrs.
func parseJobSpec(b []byte, i int, js *JobSpec, ptrs *specSlabs) (end int, ok bool) {
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	i++
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var seen uint8
	for {
		var key []byte
		if key, i, ok = strictjson.ScanKey(b, i); !ok {
			return i, false
		}
		var bit uint8
		switch string(key) {
		case "id":
			bit = jID
			var id int
			if id, i, ok = strictjson.ScanIntField(b, i); ok {
				js.ID = ptrs.ids.ptr(id)
			}
		case "arrival":
			bit = jArrival
			var at float64
			if at, i, ok = strictjson.ScanFloat(b, i); ok {
				js.Arrival = ptrs.arrivals.ptr(at)
			}
		case "workload":
			bit = jWorkload
			js.Workload, i, ok = strictjson.ScanFloat(b, i)
		case "nodes":
			bit = jNodes
			js.Nodes, i, ok = strictjson.ScanIntField(b, i)
		case "sd":
			bit = jSD
			js.SD, i, ok = strictjson.ScanFloat(b, i)
		case "depends_on":
			bit = jDependsOn
			js.DependsOn, i, ok = scanIntList(b, i)
		case "deadline":
			bit = jDeadline
			js.Deadline, i, ok = strictjson.ScanFloat(b, i)
		default:
			return i, false // an unknown key
		}
		if !ok || seen&bit != 0 || i >= len(b) {
			return i, false
		}
		seen |= bit
		switch b[i] {
		case ',':
			i++
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// scanIntList reads a JSON array of ints; "[]" is an empty, non-nil
// slice, as encoding/json decodes it.
func scanIntList(b []byte, i int) (v []int, end int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, false
	}
	i++
	v = []int{}
	for i < len(b) && b[i] != ']' {
		if len(v) > 0 {
			if b[i] != ',' {
				return nil, i, false
			}
			i++
		}
		var d int
		if d, i, ok = strictjson.ScanIntField(b, i); !ok {
			return nil, i, false
		}
		v = append(v, d)
	}
	return v, i + 1, i < len(b)
}

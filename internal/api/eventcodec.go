package api

import (
	"encoding/json"
	"strconv"

	"trustgrid/internal/strictjson"
)

// The event line. An Event crosses three boundaries — the NDJSON
// stream, the on-disk event journal and the client's decoder — and all
// three use the codec below instead of reflection. AppendJSON renders
// the canonical line, byte for byte what encoding/json renders for the
// struct; ParseEvent reads exactly that form and hands every other
// input to json.Unmarshal, so the pair can never disagree with
// encoding/json — only be faster on the lines the daemon writes
// (DESIGN.md §9).

// AppendJSON appends the event's JSON object (no trailing newline) to
// dst and returns the extended slice. The bytes equal json.Marshal's:
// same field order, omitempty on the same fields, ES6 number form,
// the same string escaping. An event json.Marshal refuses (a NaN or
// infinite float) has no line: dst comes back unchanged.
func (e *Event) AppendJSON(dst []byte) []byte {
	for _, f := range [...]float64{e.Time, e.Start, e.Finish, e.Arrival, e.Workload, e.SD, e.Level, e.Speed} {
		if !strictjson.Finite(f) {
			return dst
		}
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, e.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = strictjson.AppendString(dst, e.Kind)
	dst = append(dst, `,"t":`...)
	dst = strictjson.AppendFloat(dst, e.Time)
	dst = append(dst, `,"job":`...)
	dst = strconv.AppendInt(dst, int64(e.Job), 10)
	dst = append(dst, `,"site":`...)
	dst = strconv.AppendInt(dst, int64(e.Site), 10)
	if e.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = strictjson.AppendString(dst, e.Tenant)
	}
	if e.SafeOnly {
		dst = append(dst, `,"safe_only":true`...)
	}
	dst = strictjson.AppendOptFloat(dst, `,"start":`, e.Start)
	dst = strictjson.AppendOptFloat(dst, `,"finish":`, e.Finish)
	if e.Risky {
		dst = append(dst, `,"risky":true`...)
	}
	if e.FellBack {
		dst = append(dst, `,"fell_back":true`...)
	}
	dst = strictjson.AppendOptFloat(dst, `,"arrival":`, e.Arrival)
	dst = strictjson.AppendOptFloat(dst, `,"workload":`, e.Workload)
	if e.Nodes != 0 {
		dst = append(dst, `,"nodes":`...)
		dst = strconv.AppendInt(dst, int64(e.Nodes), 10)
	}
	dst = strictjson.AppendOptFloat(dst, `,"sd":`, e.SD)
	dst = strictjson.AppendOptFloat(dst, `,"level":`, e.Level)
	dst = strictjson.AppendOptFloat(dst, `,"speed":`, e.Speed)
	return append(dst, '}')
}

// ParseEvent decodes one event line into ev with json.Unmarshal's
// semantics — fields the line does not name keep their values, and the
// error, if any, is json.Unmarshal's. Lines in AppendJSON's form take a
// fast path; it accepts only what it decodes exactly like encoding/json
// (no whitespace, no string escapes, each known key at most once,
// strict JSON numbers that fit their field) and leaves anything else —
// valid or not — to json.Unmarshal.
func ParseEvent(line []byte, ev *Event) error {
	tmp := *ev
	if parseCanonical(line, &tmp) {
		*ev = tmp
		return nil
	}
	// json.Unmarshal takes an interface, which sends its target to the
	// heap; decoding into a copy made here keeps the caller's event — and
	// so the fast path — off it.
	slow := *ev
	err := json.Unmarshal(line, &slow)
	*ev = slow
	return err
}

// Field bits for parseCanonical's seen-once check, in struct order.
const (
	fSeq = 1 << iota
	fKind
	fTime
	fJob
	fSite
	fTenant
	fSafeOnly
	fStart
	fFinish
	fRisky
	fFellBack
	fArrival
	fWorkload
	fNodes
	fSD
	fLevel
	fSpeed
)

// parseCanonical is ParseEvent's fast path: it reports whether line was
// a canonical event object and, if so, has stored its fields in ev.
// On false ev holds garbage.
func parseCanonical(line []byte, ev *Event) bool {
	if len(line) < 2 || line[0] != '{' {
		return false
	}
	var seen uint32
	i := 1
	for {
		var key []byte
		var ok bool
		if key, i, ok = strictjson.ScanKey(line, i); !ok {
			return false
		}
		var bit uint32
		switch string(key) {
		case "seq":
			bit = fSeq
			ev.Seq, i, ok = strictjson.ScanInt(line, i)
		case "kind":
			bit = fKind
			ev.Kind, i, ok = strictjson.ScanString(line, i)
		case "t":
			bit = fTime
			ev.Time, i, ok = strictjson.ScanFloat(line, i)
		case "job":
			bit = fJob
			ev.Job, i, ok = strictjson.ScanIntField(line, i)
		case "site":
			bit = fSite
			ev.Site, i, ok = strictjson.ScanIntField(line, i)
		case "tenant":
			bit = fTenant
			ev.Tenant, i, ok = strictjson.ScanString(line, i)
		case "safe_only":
			bit = fSafeOnly
			ev.SafeOnly, i, ok = strictjson.ScanBool(line, i)
		case "start":
			bit = fStart
			ev.Start, i, ok = strictjson.ScanFloat(line, i)
		case "finish":
			bit = fFinish
			ev.Finish, i, ok = strictjson.ScanFloat(line, i)
		case "risky":
			bit = fRisky
			ev.Risky, i, ok = strictjson.ScanBool(line, i)
		case "fell_back":
			bit = fFellBack
			ev.FellBack, i, ok = strictjson.ScanBool(line, i)
		case "arrival":
			bit = fArrival
			ev.Arrival, i, ok = strictjson.ScanFloat(line, i)
		case "workload":
			bit = fWorkload
			ev.Workload, i, ok = strictjson.ScanFloat(line, i)
		case "nodes":
			bit = fNodes
			ev.Nodes, i, ok = strictjson.ScanIntField(line, i)
		case "sd":
			bit = fSD
			ev.SD, i, ok = strictjson.ScanFloat(line, i)
		case "level":
			bit = fLevel
			ev.Level, i, ok = strictjson.ScanFloat(line, i)
		case "speed":
			bit = fSpeed
			ev.Speed, i, ok = strictjson.ScanFloat(line, i)
		default:
			return false // an unknown key
		}
		if !ok || seen&bit != 0 || i >= len(line) {
			return false
		}
		seen |= bit
		switch line[i] {
		case ',':
			i++
		case '}':
			return i+1 == len(line)
		default:
			return false
		}
	}
}

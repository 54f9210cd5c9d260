package api

import (
	"encoding/json"
	"math"
	"strconv"
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
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst
		}
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, e.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendString(dst, e.Kind)
	dst = append(dst, `,"t":`...)
	dst = AppendFloat(dst, e.Time)
	dst = append(dst, `,"job":`...)
	dst = strconv.AppendInt(dst, int64(e.Job), 10)
	dst = append(dst, `,"site":`...)
	dst = strconv.AppendInt(dst, int64(e.Site), 10)
	if e.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, e.Tenant)
	}
	if e.SafeOnly {
		dst = append(dst, `,"safe_only":true`...)
	}
	dst = appendOptFloat(dst, `,"start":`, e.Start)
	dst = appendOptFloat(dst, `,"finish":`, e.Finish)
	if e.Risky {
		dst = append(dst, `,"risky":true`...)
	}
	if e.FellBack {
		dst = append(dst, `,"fell_back":true`...)
	}
	dst = appendOptFloat(dst, `,"arrival":`, e.Arrival)
	dst = appendOptFloat(dst, `,"workload":`, e.Workload)
	if e.Nodes != 0 {
		dst = append(dst, `,"nodes":`...)
		dst = strconv.AppendInt(dst, int64(e.Nodes), 10)
	}
	dst = appendOptFloat(dst, `,"sd":`, e.SD)
	dst = appendOptFloat(dst, `,"level":`, e.Level)
	dst = appendOptFloat(dst, `,"speed":`, e.Speed)
	return append(dst, '}')
}

// AppendJSON appends the record's JSON object to dst — the arrival
// payload of a WAL record (DESIGN.md §10.1) — and returns the extended
// slice. The bytes equal json.Marshal's, under the same rules as
// Event.AppendJSON: a record json.Marshal refuses (a NaN or infinite
// float) leaves dst unchanged.
func (t *TraceRecord) AppendJSON(dst []byte) []byte {
	for _, f := range [...]float64{t.Arrival, t.Workload, t.SD, t.Deadline, t.Budget} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst
		}
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(t.ID), 10)
	dst = append(dst, `,"arrival":`...)
	dst = AppendFloat(dst, t.Arrival)
	dst = append(dst, `,"workload":`...)
	dst = AppendFloat(dst, t.Workload)
	dst = append(dst, `,"nodes":`...)
	dst = strconv.AppendInt(dst, int64(t.Nodes), 10)
	dst = append(dst, `,"sd":`...)
	dst = AppendFloat(dst, t.SD)
	if t.Tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = appendString(dst, t.Tenant)
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
	dst = appendOptFloat(dst, `,"deadline":`, t.Deadline)
	dst = appendOptFloat(dst, `,"budget":`, t.Budget)
	return append(dst, '}')
}

// appendOptFloat is omitempty for a float field: encoding/json omits
// a float that compares equal to zero, which includes -0.
func appendOptFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	return AppendFloat(append(dst, key...), f)
}

// AppendFloat renders a finite float64 the way encoding/json does:
// shortest round-trip digits, exponent form below 1e-6 and from 1e21,
// and a two-digit exponent's leading zero dropped (e-07 → e-7).
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// plainByte reports whether encoding/json copies c into a string
// literal as it stands, and reads it back as it stands: printable
// ASCII other than the quote, the backslash and the three characters
// Marshal escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString quotes s. Event kinds and tenant ids are plain ASCII;
// any other string takes json.Marshal's escaping by calling it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			q, _ := json.Marshal(s) // strings always marshal
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
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
		if key, i, ok = scanKey(line, i); !ok {
			return false
		}
		var bit uint32
		switch string(key) {
		case "seq":
			bit = fSeq
			ev.Seq, i, ok = scanInt(line, i)
		case "kind":
			bit = fKind
			ev.Kind, i, ok = scanString(line, i)
		case "t":
			bit = fTime
			ev.Time, i, ok = scanFloat(line, i)
		case "job":
			bit = fJob
			ev.Job, i, ok = scanIntField(line, i)
		case "site":
			bit = fSite
			ev.Site, i, ok = scanIntField(line, i)
		case "tenant":
			bit = fTenant
			ev.Tenant, i, ok = scanString(line, i)
		case "safe_only":
			bit = fSafeOnly
			ev.SafeOnly, i, ok = scanBool(line, i)
		case "start":
			bit = fStart
			ev.Start, i, ok = scanFloat(line, i)
		case "finish":
			bit = fFinish
			ev.Finish, i, ok = scanFloat(line, i)
		case "risky":
			bit = fRisky
			ev.Risky, i, ok = scanBool(line, i)
		case "fell_back":
			bit = fFellBack
			ev.FellBack, i, ok = scanBool(line, i)
		case "arrival":
			bit = fArrival
			ev.Arrival, i, ok = scanFloat(line, i)
		case "workload":
			bit = fWorkload
			ev.Workload, i, ok = scanFloat(line, i)
		case "nodes":
			bit = fNodes
			ev.Nodes, i, ok = scanIntField(line, i)
		case "sd":
			bit = fSD
			ev.SD, i, ok = scanFloat(line, i)
		case "level":
			bit = fLevel
			ev.Level, i, ok = scanFloat(line, i)
		case "speed":
			bit = fSpeed
			ev.Speed, i, ok = scanFloat(line, i)
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

// scanKey reads `"key":` at i and returns the key's raw bytes. A known
// key matches them only when the literal has no escape, which is what
// the fast paths require.
func scanKey(b []byte, i int) (key []byte, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	i++
	k := i
	for i < len(b) && b[i] != '"' {
		i++
	}
	if i+1 >= len(b) || b[i+1] != ':' {
		return nil, i, false
	}
	return b[k:i], i + 2, true
}

// scanDigits returns the index past the integer part that starts at i:
// an optional minus, then 0 or a digit string without a leading zero.
// ok is false when no such integer starts there.
func scanDigits(b []byte, i int) (end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return i, false
	}
	if b[i] == '0' {
		return i + 1, true
	}
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i, true
}

// scanInt reads a JSON integer that fits int64. A fraction or exponent
// after it is left in place for the caller's delimiter check to refuse:
// json.Unmarshal rejects "1.0" and "1e2" for an integer field.
func scanInt(b []byte, i int) (v int64, end int, ok bool) {
	end, ok = scanDigits(b, i)
	if !ok || end-i > 18 { // 18 digits and a sign cannot overflow
		return 0, end, false
	}
	neg := b[i] == '-'
	if neg {
		i++
	}
	for ; i < end; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if neg {
		v = -v
	}
	return v, end, true
}

// scanIntField is scanInt for an int-typed field.
func scanIntField(b []byte, i int) (int, int, bool) {
	v, end, ok := scanInt(b, i)
	return int(v), end, ok && int64(int(v)) == v
}

// scanFloat reads a number in strict JSON grammar — strconv.ParseFloat
// alone also takes "1.", "0.E06", "+1", "0x1p4", "1_0", "Inf" — and
// converts it as encoding/json does. Out of range is left to the
// fallback, which reports it.
func scanFloat(b []byte, i int) (v float64, end int, ok bool) {
	end, ok = scanDigits(b, i)
	if !ok {
		return 0, end, false
	}
	if end < len(b) && b[end] == '.' {
		end++
		d := end
		for end < len(b) && b[end] >= '0' && b[end] <= '9' {
			end++
		}
		if end == d {
			return 0, end, false
		}
	}
	if end < len(b) && (b[end] == 'e' || b[end] == 'E') {
		end++
		if end < len(b) && (b[end] == '+' || b[end] == '-') {
			end++
		}
		d := end
		for end < len(b) && b[end] >= '0' && b[end] <= '9' {
			end++
		}
		if end == d {
			return 0, end, false
		}
	}
	v, err := strconv.ParseFloat(string(b[i:end]), 64)
	return v, end, err == nil
}

// scanString reads a string literal of plain bytes (see plainByte).
func scanString(b []byte, i int) (s string, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	i++
	end = i
	for end < len(b) && plainByte(b[end]) {
		end++
	}
	if end >= len(b) || b[end] != '"' {
		return "", end, false
	}
	return string(b[i:end]), end + 1, true
}

func scanBool(b []byte, i int) (v bool, end int, ok bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

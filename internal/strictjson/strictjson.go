package strictjson

import (
	"encoding/json"
	"math"
	"strconv"
)

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

// AppendOptFloat is omitempty for a float field: encoding/json omits a
// float that compares equal to zero, which includes -0. Otherwise it
// appends key, which carries the separator and the colon, and the float.
func AppendOptFloat(dst []byte, key string, f float64) []byte {
	if f == 0 {
		return dst
	}
	return AppendFloat(append(dst, key...), f)
}

// Finite reports whether json.Marshal renders f: NaN and ±Inf it refuses.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// plainByte reports whether encoding/json copies c into a string
// literal as it stands, and reads it back as it stands: printable
// ASCII other than the quote, the backslash and the three characters
// Marshal escapes for HTML.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendString quotes s. Event kinds and tenant ids are plain ASCII;
// any other string takes json.Marshal's escaping by calling it.
func AppendString(dst []byte, s string) []byte {
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

// ScanKey reads `"key":` at i and returns the key's raw bytes. A known
// key matches them only when the literal has no escape, which is what
// the fast paths require.
func ScanKey(b []byte, i int) (key []byte, end int, ok bool) {
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

// digits returns the index past the integer part that starts at i: an
// optional minus, then 0 or a digit string without a leading zero. ok
// is false when no such integer starts there.
func digits(b []byte, i int) (end int, ok bool) {
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

// ScanInt reads a JSON integer that fits int64. A fraction or exponent
// after it is left in place for the caller's delimiter check to refuse:
// json.Unmarshal rejects "1.0" and "1e2" for an integer field.
func ScanInt(b []byte, i int) (v int64, end int, ok bool) {
	end, ok = digits(b, i)
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

// ScanIntField is ScanInt for an int-typed field.
func ScanIntField(b []byte, i int) (int, int, bool) {
	v, end, ok := ScanInt(b, i)
	return int(v), end, ok && int64(int(v)) == v
}

// ScanFloat reads a number in strict JSON grammar — strconv.ParseFloat
// alone also takes "1.", "0.E06", "+1", "0x1p4", "1_0", "Inf" — and
// converts it as encoding/json does. Out of range is left to the
// fallback, which reports it.
func ScanFloat(b []byte, i int) (v float64, end int, ok bool) {
	end, ok = digits(b, i)
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

// ScanString reads a string literal of plain bytes: printable ASCII
// other than the characters json.Marshal escapes.
func ScanString(b []byte, i int) (s string, end int, ok bool) {
	start, end, ok := scanPlain(b, i)
	if !ok {
		return "", end, false
	}
	return string(b[start : end-1]), end, true
}

// scanPlain finds the string literal of plain bytes at i: its contents
// are b[start:end-1].
func scanPlain(b []byte, i int) (start, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return i, i, false
	}
	start = i + 1
	end = start
	for end < len(b) && plainByte(b[end]) {
		end++
	}
	if end >= len(b) || b[end] != '"' {
		return start, end, false
	}
	return start, end + 1, true
}

// ScanBool reads true or false.
func ScanBool(b []byte, i int) (v bool, end int, ok bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

// A Cursor reads one line front to back against the exact bytes
// json.Marshal writes for it: the caller spells out the literals in
// struct field order, and the readers take each value only in
// json.Marshal's spelling — integers without "-0", floats as AppendFloat
// renders them, strings of plain bytes. The first mismatch sticks, so a
// parser reads straight through and asks Done once at the end; after a
// mismatch every reader returns a zero value.
type Cursor struct {
	b  []byte
	i  int
	ok bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b, ok: true} }

// Done reports whether every read succeeded and consumed all of the
// line.
func (c *Cursor) Done() bool { return c.ok && c.i == len(c.b) }

// Opt consumes lit if the line continues with it, and reports whether
// it did: an omitempty field, or a boolean field's `true`.
func (c *Cursor) Opt(lit string) bool {
	if !c.ok || len(c.b)-c.i < len(lit) || string(c.b[c.i:c.i+len(lit)]) != lit {
		return false
	}
	c.i += len(lit)
	return true
}

// Lit consumes lit, which the line must continue with.
func (c *Cursor) Lit(lit string) { c.Want(c.Opt(lit)) }

// Want fails the cursor unless cond holds: a caller's own canonical
// rule, such as omitempty never writing a zero value.
func (c *Cursor) Want(cond bool) { c.ok = c.ok && cond }

// Int reads an int.
func (c *Cursor) Int() int {
	if !c.ok {
		return 0
	}
	v, end, ok := ScanIntField(c.b, c.i)
	c.Want(ok && (v != 0 || c.b[c.i] != '-'))
	c.i = end
	return v
}

// Uint reads a uint64 of up to 18 digits.
func (c *Cursor) Uint() uint64 {
	if !c.ok {
		return 0
	}
	v, end, ok := ScanInt(c.b, c.i)
	c.Want(ok && c.b[c.i] != '-')
	c.i = end
	return uint64(v)
}

// Float reads a float64.
func (c *Cursor) Float() float64 {
	if !c.ok {
		return 0
	}
	v, end, ok := ScanFloat(c.b, c.i)
	var buf [32]byte // room for the longest rendering
	c.Want(ok && string(AppendFloat(buf[:0], v)) == string(c.b[c.i:end]))
	c.i = end
	return v
}

// Quoted reads a string of plain bytes and returns its contents, which
// alias the line.
func (c *Cursor) Quoted() []byte {
	if !c.ok {
		return nil
	}
	start, end, ok := scanPlain(c.b, c.i)
	c.Want(ok)
	c.i = end
	if !ok {
		return nil
	}
	return c.b[start : end-1]
}

// Str reads a string of plain bytes.
func (c *Cursor) Str() string { return string(c.Quoted()) }

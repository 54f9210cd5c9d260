package strictjson

import (
	"encoding/json"
	"math"
	"testing"
)

// TestAppendFloatMatchesMarshal: the ES6 form at the edges of the two
// notations.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, 9.999999e-7, 1e-6, 0.72, 1e20, 999999999999999868928, 1e21, -1e22,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, 123456789.125} {
		want, _ := json.Marshal(f)
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
}

// TestCursorTakesOnlyMarshalSpelling: each Cursor reader takes a value
// in json.Marshal's spelling and fails on every other spelling of it,
// and a failure sticks.
func TestCursorTakesOnlyMarshalSpelling(t *testing.T) {
	read := map[string]func(c *Cursor){
		"int":   func(c *Cursor) { c.Int() },
		"uint":  func(c *Cursor) { c.Uint() },
		"float": func(c *Cursor) { c.Float() },
		"str":   func(c *Cursor) { c.Str() },
	}
	for _, tc := range []struct {
		kind, in string
		ok       bool
	}{
		{"int", "0", true}, {"int", "-12", true}, {"int", "-0", false}, {"int", "012", false},
		{"int", "1.0", false}, {"int", "1e2", false}, {"int", "1234567890123456789", false},
		{"uint", "17", true}, {"uint", "-1", false}, {"uint", "-0", false},
		{"float", "0", true}, {"float", "-0", true}, {"float", "0.5", true}, {"float", "1e-7", true},
		{"float", "1e+21", true}, {"float", "1e21", false}, {"float", "0.50", false}, {"float", "5e-1", false},
		{"float", "1.0", false}, {"float", "1E+21", false}, {"float", "1e-07", false}, {"float", "0.0000001", false},
		{"float", "1.", false}, {"float", "+1", false}, {"float", "1e400", false}, {"float", "NaN", false},
		{"str", `"acme"`, true}, {"str", `""`, true}, {"str", `"a\u0062"`, false}, {"str", `"a<b"`, false},
		{"str", `"caf` + "é" + `"`, false}, {"str", `"open`, false},
	} {
		c := NewCursor([]byte(tc.in))
		read[tc.kind](&c)
		if c.Done() != tc.ok {
			t.Errorf("%s %q: Done = %v, want %v", tc.kind, tc.in, c.Done(), tc.ok)
		}
	}
	c := NewCursor([]byte(`{"a":1}`))
	c.Lit(`{"b":`)
	if c.Int(); c.Opt(`1}`) || c.Done() {
		t.Fatal("a cursor read on after a mismatch")
	}
}

// TestAppendMatchesMarshal: strings as json.Marshal quotes them, and
// omitempty floats, −0 included, left out.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "acme", `q"uote`, "a<b>&c", "tab\t", "café", "bad\xff", " "} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
	for f, want := range map[float64]string{0: "", math.Copysign(0, -1): "", 2.5: `,"x":2.5`} {
		if got := AppendOptFloat(nil, `,"x":`, f); string(got) != want {
			t.Errorf("AppendOptFloat(%v) = %q, want %q", f, got, want)
		}
	}
	for f, want := range map[float64]bool{1: true, math.NaN(): false, math.Inf(-1): false} {
		if Finite(f) != want {
			t.Errorf("Finite(%v) = %v", f, !want)
		}
	}
}

// TestScanReaders: the order-free readers return what json.Unmarshal
// decodes, and the index past the value, or refuse.
func TestScanReaders(t *testing.T) {
	if key, end, ok := ScanKey([]byte(`"kind":1`), 0); !ok || string(key) != "kind" || end != 7 {
		t.Errorf("ScanKey = %q %d %v", key, end, ok)
	}
	for _, in := range []string{`kind":1`, `"kind"1`, `"kind`} {
		if _, _, ok := ScanKey([]byte(in), 0); ok {
			t.Errorf("ScanKey(%s) accepted", in)
		}
	}
	for _, tc := range []struct {
		in   string
		want string
		ok   bool
	}{
		{`"acme",`, "acme", true}, {`"",`, "", true}, {`"a\"b"`, "", false}, {`"a<b"`, "", false}, {`"open`, "", false}, {`acme`, "", false},
	} {
		s, end, ok := ScanString([]byte(tc.in), 0)
		if ok != tc.ok || s != tc.want || ok && tc.in[end-1] != '"' {
			t.Errorf("ScanString(%s) = %q %d %v", tc.in, s, end, ok)
		}
	}
	for _, tc := range []struct {
		in       string
		want, ok bool
	}{{"true,", true, true}, {"false}", false, true}, {"tru", false, false}, {"null", false, false}} {
		if v, _, ok := ScanBool([]byte(tc.in), 0); v != tc.want || ok != tc.ok {
			t.Errorf("ScanBool(%s) = %v %v", tc.in, v, ok)
		}
	}
	for _, in := range []string{"0", "-0", "1.0", "1e2", "0.E06", "1.", "+1", "01", "1e400", "-1.5e-7"} {
		var want float64
		wantErr := json.Unmarshal([]byte(in), &want)
		got, end, ok := ScanFloat([]byte(in), 0)
		if ok && end != len(in) {
			ok = false // a caller's delimiter check refuses the rest
		}
		if ok != (wantErr == nil) || ok && got != want {
			t.Errorf("ScanFloat(%s) = %v %v, json.Unmarshal %v %v", in, got, ok, want, wantErr)
		}
	}
}

package idset

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// TestColumnRoundTrip: AppendColumn then ParseColumn is the identity on
// ascending sets — empty, one key, negative keys, the int extremes, the
// widest gap — and the bytes are the documented ones.
func TestColumnRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	random := make([]int, 0, 5000)
	for k := -100; len(random) < cap(random); k += 1 + r.IntN(300) {
		random = append(random, k)
	}
	for _, keys := range [][]int{
		nil,
		{0},
		{-7},
		{1, 2, 3, 4},
		{-3, -1, 0, 5, 1 << 40},
		{math.MinInt, math.MaxInt},
		{math.MinInt, -1, 0, math.MaxInt - 1, math.MaxInt},
		random,
	} {
		col := AppendColumn(nil, keys)
		got, err := ParseColumn(col)
		if err != nil || !slices.Equal(got, keys) {
			t.Fatalf("%v: column %x parses as %v, %v", keys, col, got, err)
		}
	}
	if col := AppendColumn(nil, []int{1, 2, 3, 300}); string(col) != "\x02\x01\x01\xa9\x02" {
		t.Fatalf("column of 1,2,3,300 is %x", col)
	}
	if col := AppendColumn([]byte("x"), []int{-1}); string(col) != "x\x01" {
		t.Fatalf("AppendColumn does not append: %x", col)
	}
}

// TestParseColumnRefuses: every malformed column is an error naming the
// byte where it breaks, never a panic or a wrong set.
func TestParseColumnRefuses(t *testing.T) {
	big := binary.AppendUvarint(nil, math.MaxUint64)
	for _, tc := range []struct {
		name, col, want string
	}{
		{"zero gap", "\x02\x01\x00", "zero gap at byte 2"},
		{"truncated first", "\x80", "truncated at byte 0"},
		{"truncated gap", "\x02\x81", "truncated at byte 1"},
		{"non-minimal first", "\x82\x00", "non-minimal varint at byte 0"},
		{"non-minimal gap", "\x02\x81\x00", "non-minimal varint at byte 1"},
		{"over 64 bits", "\x02" + strings.Repeat("\xff", 10) + "\x01", "overflows 64 bits"},
		{"gap overflows int", "\x00" + string(big), "overflows int"},
		{"sum overflows int", string(AppendColumn(nil, []int{math.MaxInt})) + "\x01", "overflows int"},
	} {
		got, err := ParseColumn([]byte(tc.col))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseColumn(%x) = %v, %v; want an error saying %q", tc.name, tc.col, got, err, tc.want)
		}
	}
}

// FuzzIDColumn: ParseColumn never panics; what it accepts is an
// ascending set whose column is exactly the input (one encoding per
// set); and the input read as a list of gaps round-trips through
// AppendColumn.
func FuzzIDColumn(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendColumn(nil, []int{1, 2, 3, 300}))
	f.Add(AppendColumn(nil, []int{math.MinInt, math.MaxInt}))
	f.Fuzz(func(t *testing.T, b []byte) {
		keys, err := ParseColumn(b)
		if err == nil {
			for i := 1; i < len(keys); i++ {
				if keys[i] <= keys[i-1] {
					t.Fatalf("ParseColumn(%x) accepted a non-ascending set %v", b, keys)
				}
			}
			if col := AppendColumn(nil, keys); string(col) != string(b) {
				t.Fatalf("ParseColumn(%x) = %v, which encodes as %x", b, keys, col)
			}
		}
		// The bytes as a key set: each byte a positive gap from a start.
		set := make([]int, 0, len(b))
		k := -len(b)
		for _, c := range b {
			k += 1 + int(c)
			set = append(set, k)
		}
		if back, err := ParseColumn(AppendColumn(nil, set)); err != nil || !slices.Equal(back, set) {
			t.Fatalf("%v round-trips as %v, %v", set, back, err)
		}
	})
}

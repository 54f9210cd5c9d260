package idset

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The byte column is how a snapshot stores an ascending key set
// (DESIGN.md §10.2): the first key as a zigzag varint, then each later
// key as the uvarint gap (≥ 1) from the key before it. IDs a counter
// hands out step by a few, so a key costs one or two bytes instead of
// the seven or so of a decimal JSON list. Every varint is minimal, so
// a column has exactly one encoding.

// AppendColumn appends the column of keys, which must be ascending and
// distinct (Map.Columns' keys are), to dst and returns the extended
// slice.
func AppendColumn(dst []byte, keys []int) []byte {
	dst = slices.Grow(dst, len(keys)) // a byte per key at least
	for i, k := range keys {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(k))
			continue
		}
		// The unsigned difference is the exact gap even when it exceeds
		// math.MaxInt (a column spanning negative and positive keys).
		dst = binary.AppendUvarint(dst, uint64(k)-uint64(keys[i-1]))
	}
	return dst
}

// ParseColumn decodes a column AppendColumn wrote. It refuses a
// truncated or non-minimal varint, a zero gap (keys must ascend) and a
// key that overflows int, naming the byte offset.
func ParseColumn(b []byte) ([]int, error) {
	if len(b) == 0 {
		return nil, nil
	}
	// Every varint ends in the one byte of it below 0x80.
	n := 0
	for _, c := range b {
		if c < 0x80 {
			n++
		}
	}
	keys := make([]int, 0, n)
	first, w := binary.Varint(b)
	if err := varintErr(b, 0, w); err != nil {
		return nil, err
	}
	if int64(int(first)) != first {
		return nil, fmt.Errorf("idset: column key at byte 0 overflows int")
	}
	keys = append(keys, int(first))
	for off := w; off < len(b); off += w {
		var gap uint64
		gap, w = binary.Uvarint(b[off:])
		if err := varintErr(b[off:], off, w); err != nil {
			return nil, err
		}
		prev := keys[len(keys)-1]
		switch {
		case gap == 0:
			return nil, fmt.Errorf("idset: zero gap at byte %d (column keys must ascend)", off)
		case gap > uint64(math.MaxInt)-uint64(prev):
			return nil, fmt.Errorf("idset: column key at byte %d overflows int", off)
		}
		keys = append(keys, int(uint64(prev)+gap))
	}
	return keys, nil
}

// varintErr judges one varint read at offset off: w is what
// binary.Varint or binary.Uvarint returned for b.
func varintErr(b []byte, off, w int) error {
	switch {
	case w == 0:
		return fmt.Errorf("idset: column truncated at byte %d", off)
	case w < 0:
		return fmt.Errorf("idset: varint at byte %d overflows 64 bits", off)
	case w > 1 && b[w-1] == 0:
		return fmt.Errorf("idset: non-minimal varint at byte %d", off)
	}
	return nil
}

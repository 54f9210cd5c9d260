// Package strictjson holds the JSON scalars the repository's hand-written
// line codecs share (DESIGN.md §9.7): rendering a float or a string the
// way encoding/json renders it, and reading keys, numbers, strings and
// booleans in the strict grammar a fast path may accept. Each reader
// reports ok = false on anything it cannot decode exactly like
// encoding/json — the caller then hands the whole line to json.Unmarshal
// — so a reader may be narrower than JSON but never different from it.
//
// Two strengths of reader exist. The Scan functions accept every
// spelling json.Unmarshal decodes to the same value, in any key order;
// a Cursor accepts only the bytes json.Marshal writes, for codecs whose
// fast path must take nothing but canonical lines. The package is a
// leaf: it imports nothing of the repository, so both internal/grid and
// internal/api can use it.
//
// DESIGN.md §1.1 inventory row: leaf JSON scalar readers and writers shared by the hand-written line codecs (§9.7).
package strictjson

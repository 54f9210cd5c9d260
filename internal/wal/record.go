package wal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
	"trustgrid/internal/strictjson"
)

// Record kinds: the three deterministic input streams of the scheduling
// pipeline.
const (
	// KindArrival is one accepted job submission (the api.TraceRecord
	// the daemon already emits as its arrival trace).
	KindArrival = "arrival"
	// KindTenant is one tenant registration or update.
	KindTenant = "tenant"
	// KindChurn is one site-transition event of the configured churn
	// trace. The engine re-derives churn from its config; the logged
	// copy makes the on-disk input set self-contained and lets recovery
	// detect a config that no longer matches the log.
	KindChurn = "churn"
	// KindBarrier is one manual-mode clock barrier of a sharded daemon
	// (an /v2/advance target or a drain). Sharded recovery re-executes
	// barriers to reproduce the exact Δ-round windows — and with them
	// the merged event stream's total order — that the original run
	// emitted; per-record At replay alone cannot, because the window
	// boundaries are not recoverable from arrival timestamps (an
	// arrival at a window boundary belongs to the NEXT window). A
	// one-engine daemon's log never contains barriers; a fleet worker's
	// does, its shard being one of several behind a merge.
	KindBarrier = "barrier"
)

// BarrierRecord is KindBarrier's payload: the clock target of one
// fan-out advance, or a drain.
type BarrierRecord struct {
	To    float64 `json:"to"`
	Drain bool    `json:"drain,omitempty"`
}

// Record is one WAL entry. Seq numbers are assigned by Log.Append,
// contiguous from 1; exactly one payload field is set, per Kind.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	// At is the virtual clock at the moment the record was appended.
	// Replay advances the engine to At before re-applying the record, so
	// a re-ingested job lands in the event queue in the same position —
	// same arrival clamp, same tie order against engine-generated events
	// at the same timestamp (a submission right at a batch boundary must
	// join the next batch after recovery exactly as it did originally).
	// Zero in live mode, where ingest rides the wall tick and recovery is
	// best-effort: jobs resurrect at the recovered clock.
	At float64 `json:"at,omitempty"`
	// G is the record's global sequence number across a sharded
	// daemon's log set (coordinator log + one log per shard): assigned
	// contiguously from 1 by the server, monotone within every log.
	// Recovery merges the logs by G to reproduce the exact order the
	// loop goroutine applied the records in, and truncates each log to
	// the longest globally contiguous G-prefix — a crash between the
	// per-log fsyncs of one group commit can persist a later record
	// while losing an earlier one, and a gapped history must not
	// replay. Zero (omitted) on single-engine logs, whose one Seq
	// stream is already the total order.
	G       uint64           `json:"g,omitempty"`
	Arrival *api.TraceRecord `json:"arrival,omitempty"`
	Tenant  *api.TenantSpec  `json:"tenant,omitempty"`
	Churn   *grid.ChurnEvent `json:"churn,omitempty"`
	Barrier *BarrierRecord   `json:"barrier,omitempty"`
}

// Validate checks the kind/payload pairing.
func (r Record) Validate() error {
	switch r.Kind {
	case KindArrival:
		if r.Arrival == nil {
			return fmt.Errorf("wal: arrival record %d without payload", r.Seq)
		}
	case KindTenant:
		if r.Tenant == nil {
			return fmt.Errorf("wal: tenant record %d without payload", r.Seq)
		}
	case KindChurn:
		if r.Churn == nil {
			return fmt.Errorf("wal: churn record %d without payload", r.Seq)
		}
	case KindBarrier:
		if r.Barrier == nil {
			return fmt.Errorf("wal: barrier record %d without payload", r.Seq)
		}
	default:
		return fmt.Errorf("wal: record %d has unknown kind %q", r.Seq, r.Kind)
	}
	return nil
}

// Frame layout: 8 lowercase hex CRC32-IEEE characters over the JSON
// payload, one space, the payload, one newline. The checksum guards
// against bit flips; the trailing newline (plus the JSON parse) guards
// against torn writes — a partial last line can never checksum clean
// AND parse AND carry the next contiguous sequence number.
const frameHeader = 9 // 8 hex chars + space

// appendFrame appends rec as one framed line to buf: the header's
// place is reserved, the payload appended after it, and the checksum
// written into the header once the payload is known.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, "00000000 "...)
	buf, err := appendPayload(buf, rec)
	if err != nil {
		return buf[:start], err
	}
	var crc [4]byte
	sum := crc32.ChecksumIEEE(buf[start+frameHeader:])
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	hex.Encode(buf[start:start+8], crc[:])
	return append(buf, '\n'), nil
}

// appendPayload appends rec's JSON payload: json.Marshal's bytes, byte
// for byte. Arrival, barrier and churn records — all but a handful of
// any log — are rendered by hand (DESIGN.md §10.1); tenant records, and
// any record with a non-finite float, which json.Marshal refuses, go
// through json.Marshal itself.
func appendPayload(dst []byte, rec *Record) ([]byte, error) {
	if out, ok := appendCanonical(dst, rec); ok {
		return out, nil
	}
	// A copy goes to encoding/json, so only the copy escapes to the heap,
	// not the caller's record on the hand-rendered path.
	payload, err := json.Marshal(*rec)
	return append(dst, payload...), err
}

// appendCanonical renders an arrival, a barrier or a churn record whose
// one payload is the one its kind names and whose floats are finite, and
// reports whether it did; otherwise dst comes back unchanged.
func appendCanonical(dst []byte, rec *Record) ([]byte, bool) {
	if !strictjson.Finite(rec.At) || rec.Tenant != nil {
		return dst, false
	}
	var kind string
	switch {
	case rec.Kind == KindArrival && rec.Arrival != nil && rec.Barrier == nil && rec.Churn == nil:
		kind = `,"kind":"arrival"`
	case rec.Kind == KindBarrier && rec.Barrier != nil && rec.Arrival == nil && rec.Churn == nil && strictjson.Finite(rec.Barrier.To):
		kind = `,"kind":"barrier"`
	case rec.Kind == KindChurn && rec.Churn != nil && rec.Arrival == nil && rec.Barrier == nil:
		kind = `,"kind":"churn"`
	default:
		return dst, false
	}
	start := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, rec.Seq, 10)
	dst = append(dst, kind...)
	dst = strictjson.AppendOptFloat(dst, `,"at":`, rec.At)
	if rec.G != 0 {
		dst = strconv.AppendUint(append(dst, `,"g":`...), rec.G, 10)
	}
	if rec.Barrier != nil {
		dst = strictjson.AppendFloat(append(dst, `,"barrier":{"to":`...), rec.Barrier.To)
		if rec.Barrier.Drain {
			dst = append(dst, `,"drain":true`...)
		}
		return append(dst, "}}"...), true
	}
	if rec.Churn != nil {
		dst = rec.Churn.AppendJSON(append(dst, `,"churn":`...))
	} else {
		dst = rec.Arrival.AppendJSON(append(dst, `,"arrival":`...))
	}
	if dst[len(dst)-1] != '}' {
		// The payload appended nothing after its key: json.Marshal
		// refuses it.
		return dst[:start], false
	}
	return append(dst, '}'), true
}

// parseCanonical is DecodeAll's fast path: it reports whether payload is
// exactly appendCanonical's rendering of an arrival, a barrier or a
// churn record and, if so, has stored that record in rec — what
// json.Unmarshal stores for those bytes. On false rec holds garbage.
func parseCanonical(payload []byte, rec *Record) bool {
	c := strictjson.NewCursor(payload)
	c.Lit(`{"seq":`)
	rec.Seq = c.Uint()
	c.Lit(`,"kind":"`)
	switch {
	case c.Opt(`arrival"`):
		rec.Kind = KindArrival
	case c.Opt(`barrier"`):
		rec.Kind = KindBarrier
	case c.Opt(`churn"`):
		rec.Kind = KindChurn
	default:
		return false
	}
	// Omitempty fields: present only when not zero.
	if c.Opt(`,"at":`) {
		rec.At = c.Float()
		c.Want(rec.At != 0)
	}
	if c.Opt(`,"g":`) {
		rec.G = c.Uint()
		c.Want(rec.G != 0)
	}
	switch rec.Kind {
	case KindArrival:
		c.Lit(`,"arrival":`)
		rec.Arrival = new(api.TraceRecord)
		rec.Arrival.ScanJSON(&c)
	case KindBarrier:
		c.Lit(`,"barrier":{"to":`)
		rec.Barrier = &BarrierRecord{To: c.Float(), Drain: c.Opt(`,"drain":true`)}
		c.Lit("}")
	case KindChurn:
		c.Lit(`,"churn":`)
		rec.Churn = new(grid.ChurnEvent)
		rec.Churn.ScanJSON(&c)
	}
	c.Lit("}")
	return c.Done()
}

// decodePayload decodes one record's JSON payload as json.Unmarshal
// does, and reports whether it parsed. Arrival, barrier and churn
// records in appendCanonical's form take the fast path; tenant records
// and everything else go to json.Unmarshal (DESIGN.md §10.1).
func decodePayload(payload []byte) (Record, bool) {
	var rec Record
	if parseCanonical(payload, &rec) {
		return rec, true
	}
	// Only this second record escapes to json.Unmarshal's heap.
	var slow Record
	err := json.Unmarshal(payload, &slow)
	return slow, err == nil
}

// EncodeRecord renders one record as a framed line.
func EncodeRecord(rec Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return appendFrame(nil, &rec)
}

// decodeFrame splits one complete line (newline excluded) into its
// payload, verifying the checksum.
func decodeFrame(line []byte) ([]byte, bool) {
	if len(line) < frameHeader+2 || line[8] != ' ' { // "{}" is the minimal payload
		return nil, false
	}
	var crc [4]byte
	if _, err := hex.Decode(crc[:], line[:8]); err != nil {
		return nil, false
	}
	payload := line[frameHeader:]
	want := uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false
	}
	return payload, true
}

// DecodeAll decodes the longest valid record prefix of data: frames
// must be whole lines, checksum clean, JSON-parseable, kind-valid, and
// carry contiguous sequence numbers starting at first. It returns the
// decoded records and the byte length of the valid prefix — everything
// past it (a torn write, a flipped bit, a truncated tail, or garbage)
// is for the caller to discard. DecodeAll never fails: the worst input
// yields (nil, 0).
func DecodeAll(data []byte, first uint64) ([]Record, int) {
	var recs []Record
	valid := 0
	expect := first
	for len(data[valid:]) > 0 {
		rest := data[valid:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // incomplete last line: torn write
		}
		payload, ok := decodeFrame(rest[:nl])
		if !ok {
			break
		}
		rec, ok := decodePayload(payload)
		if !ok || rec.Seq != expect || rec.Validate() != nil {
			break
		}
		recs = append(recs, rec)
		expect++
		valid += nl + 1
	}
	return recs, valid
}

package api

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"trustgrid/internal/sched"
	"trustgrid/internal/strictjson"
)

// The event line. An Event crosses two text boundaries — the NDJSON
// stream and the client's decoder — and both use the codec below
// instead of reflection. AppendJSON renders the canonical line, byte
// for byte what encoding/json renders for the struct; ParseEvent reads
// exactly that form and hands every other input to json.Unmarshal, so
// the pair can never disagree with encoding/json — only be faster on
// the lines the daemon writes (DESIGN.md §9). The on-disk event journal
// stores the binary record at the end of this file instead, which it
// neither renders nor parses as text, and a client that asks for
// EventRecordsType reads the same records off the stream, each framed
// by its length.

// Finite reports whether every float field of e is finite. An event
// that is not has no line (json.Marshal refuses it) and so no frame
// either: both forms of the stream carry the same events.
func (e *Event) Finite() bool {
	for _, f := range [...]float64{e.Time, e.Start, e.Finish, e.Arrival, e.Workload, e.SD, e.Level, e.Speed} {
		if !strictjson.Finite(f) {
			return false
		}
	}
	return true
}

// AppendJSON appends the event's JSON object (no trailing newline) to
// dst and returns the extended slice. The bytes equal json.Marshal's:
// same field order, omitempty on the same fields, ES6 number form,
// the same string escaping. An event json.Marshal refuses (a NaN or
// infinite float) has no line: dst comes back unchanged.
func (e *Event) AppendJSON(dst []byte) []byte {
	if !e.Finite() {
		return dst
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

// The event record: the journal's form of an Event (DESIGN.md §9.7).
// A record is a little-endian uint32 presence mask — bit i for the
// field with bit value 1<<i among the f* constants above, set exactly
// when the field is non-zero (a float's bit pattern, so −0 and every
// NaN count) — followed by the present fields in struct order: integers
// as 8-byte little-endian two's complement, floats as their 8-byte
// IEEE-754 bit pattern, strings as a uvarint length and the bytes. The
// three booleans are their bits alone. Every Event has exactly one
// record, and it reads back bit for bit.

// ErrEventRecord is what ReadEventRecord and ReadEventFrame return for
// bytes that are not a whole record or frame.
var ErrEventRecord = errors.New("api: malformed event record")

// recordFields is the mask of the defined field bits.
const recordFields = fSpeed<<1 - 1

// AppendRecord appends the event's record to dst and returns the
// extended slice.
func (e *Event) AppendRecord(dst []byte) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var mask uint32
	putInt := func(bit uint32, v int64) {
		if v != 0 {
			mask |= bit
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	}
	putFloat := func(bit uint32, f float64) {
		if v := math.Float64bits(f); v != 0 {
			mask |= bit
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	}
	putString := func(bit uint32, s string) {
		if s != "" {
			mask |= bit
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	putBool := func(bit uint32, b bool) {
		if b {
			mask |= bit
		}
	}
	putInt(fSeq, e.Seq)
	putString(fKind, e.Kind)
	putFloat(fTime, e.Time)
	putInt(fJob, int64(e.Job))
	putInt(fSite, int64(e.Site))
	putString(fTenant, e.Tenant)
	putBool(fSafeOnly, e.SafeOnly)
	putFloat(fStart, e.Start)
	putFloat(fFinish, e.Finish)
	putBool(fRisky, e.Risky)
	putBool(fFellBack, e.FellBack)
	putFloat(fArrival, e.Arrival)
	putFloat(fWorkload, e.Workload)
	putInt(fNodes, int64(e.Nodes))
	putFloat(fSD, e.SD)
	putFloat(fLevel, e.Level)
	putFloat(fSpeed, e.Speed)
	binary.LittleEndian.PutUint32(dst[at:], mask)
	return dst
}

// wireKinds are the kind labels the engine emits. A decoded record
// shares these strings instead of copying its kind.
var wireKinds = func() []string {
	var out []string
	for k := sched.EventKind(0); k.String() != "unknown"; k++ {
		out = append(out, k.String())
	}
	return out
}()

// ReadEventRecord decodes the record at the start of b into ev, every
// field of which it overwrites, and returns the bytes that follow it.
// Bytes that are not a whole record in AppendRecord's form — truncated,
// an undefined mask bit, a present field holding zero — are an error,
// and leave ev unspecified.
func ReadEventRecord(b []byte, ev *Event) (rest []byte, err error) {
	return readEventRecord(b, ev, nil)
}

// EventDecoder is ReadEventFrame with a memory: a tenant equal to one
// of the last few distinct tenants it decoded is shared, not copied, as
// the kind labels are. A daemon's tenant set is small, so a stream read
// through one decoder copies each tenant about once. The zero value is
// ready to use; a decoder belongs to one goroutine.
type EventDecoder struct {
	tenants [8]string
	next    int
}

// ReadFrame is ReadEventFrame through the decoder.
func (d *EventDecoder) ReadFrame(r *bufio.Reader, ev *Event) error {
	return readEventFrame(r, ev, d)
}

// tenant returns raw as a string, shared with an earlier one if it can.
func (d *EventDecoder) tenant(raw []byte) string {
	for _, t := range d.tenants {
		if t == string(raw) {
			return t
		}
	}
	t := string(raw)
	d.tenants[d.next] = t
	d.next = (d.next + 1) % len(d.tenants)
	return t
}

func readEventRecord(b []byte, ev *Event, d *EventDecoder) (rest []byte, err error) {
	if len(b) < 4 {
		return nil, ErrEventRecord
	}
	mask := binary.LittleEndian.Uint32(b)
	if mask&^recordFields != 0 {
		return nil, ErrEventRecord
	}
	b = b[4:]
	bad := false
	getWord := func(bit uint32) uint64 {
		if mask&bit == 0 || bad {
			return 0
		}
		if len(b) < 8 {
			bad = true
			return 0
		}
		v := binary.LittleEndian.Uint64(b)
		bad = v == 0
		b = b[8:]
		return v
	}
	getInt := func(bit uint32) int64 { return int64(getWord(bit)) }
	getFloat := func(bit uint32) float64 { return math.Float64frombits(getWord(bit)) }
	getString := func(bit uint32) string {
		if mask&bit == 0 || bad {
			return ""
		}
		n, k := binary.Uvarint(b)
		if k <= 0 || n == 0 || n > uint64(len(b)-k) || k > 1 && b[k-1] == 0 {
			bad = true
			return ""
		}
		raw := b[k : k+int(n)]
		b = b[k+int(n):]
		if bit == fKind {
			for _, kind := range wireKinds {
				if string(raw) == kind {
					return kind
				}
			}
		}
		if bit == fTenant && d != nil {
			return d.tenant(raw)
		}
		return string(raw)
	}
	*ev = Event{
		Seq:      getInt(fSeq),
		Kind:     getString(fKind),
		Time:     getFloat(fTime),
		Job:      int(getInt(fJob)),
		Site:     int(getInt(fSite)),
		Tenant:   getString(fTenant),
		SafeOnly: mask&fSafeOnly != 0,
		Start:    getFloat(fStart),
		Finish:   getFloat(fFinish),
		Risky:    mask&fRisky != 0,
		FellBack: mask&fFellBack != 0,
		Arrival:  getFloat(fArrival),
		Workload: getFloat(fWorkload),
		Nodes:    int(getInt(fNodes)),
		SD:       getFloat(fSD),
		Level:    getFloat(fLevel),
		Speed:    getFloat(fSpeed),
	}
	if bad {
		return nil, ErrEventRecord
	}
	return b, nil
}

// The event frame: the record on the wire. GET /v2/events answers a
// request whose Accept header names EventRecordsType with a stream of
// frames instead of NDJSON lines — each a uvarint length and then that
// many bytes holding exactly one record — so neither end formats or
// parses float text (DESIGN.md §9.7).

// EventRecordsType is the media type of a stream of event frames.
const EventRecordsType = "application/x-trustgrid-event-records"

// MaxEventFrame bounds the record length ReadEventFrame takes. A record
// holding every field and a 64-byte tenant is under 200 bytes; a longer
// length is refused instead of buffered.
const MaxEventFrame = 4096

// AppendFrame appends the event's frame to dst and returns the extended
// slice. The frame of a record longer than MaxEventFrame, which no
// daemon event comes near, is one ReadEventFrame refuses.
func (e *Event) AppendFrame(dst []byte) []byte {
	at := len(dst)
	dst = e.AppendRecord(append(dst, 0))
	n := len(dst) - at - 1
	if n < 0x80 { // every record the daemon writes: a one-byte length
		dst[at] = byte(n)
		return dst
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	dst = append(dst, hdr[1:k]...)
	copy(dst[at+k:], dst[at+1:at+1+n])
	copy(dst[at:], hdr[:k])
	return dst
}

// ReadEventFrame reads the next frame from r into ev, every field of
// which it overwrites. It returns io.EOF when r ends before a frame
// starts, io.ErrUnexpectedEOF when it ends inside one, an error wrapping
// ErrEventRecord for a frame that is not one record in AppendRecord's
// form or whose length passes MaxEventFrame, and r's own read errors as
// they are. r's buffer must hold MaxEventFrame bytes (bufio's default
// size does): the record is decoded where it lies in it.
func ReadEventFrame(r *bufio.Reader, ev *Event) error {
	return readEventFrame(r, ev, nil)
}

func readEventFrame(r *bufio.Reader, ev *Event, d *EventDecoder) error {
	// MaxEventFrame is below 1<<14, so a length it allows takes at most
	// two bytes; a third is refused with the length it would extend.
	c, err := r.ReadByte()
	if err != nil {
		return err
	}
	n := int(c)
	if c >= 0x80 {
		if c, err = r.ReadByte(); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if n = n&0x7f | int(c)<<7; c >= 0x80 || n > MaxEventFrame {
			return fmt.Errorf("%w: frame longer than %d bytes", ErrEventRecord, MaxEventFrame)
		}
	}
	b, err := r.Peek(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if rest, err := readEventRecord(b, ev, d); err != nil || len(rest) != 0 {
		return ErrEventRecord
	}
	_, _ = r.Discard(n)
	return nil
}

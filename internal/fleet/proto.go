package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"trustgrid/internal/grid"
	"trustgrid/internal/metrics"
	"trustgrid/internal/sched"
)

// ProtoVersion is bumped on any incompatible frame change; a worker
// refuses an attach from a different version outright (a fleet is
// deployed as one unit — there is no skew window to support). 2: an
// engine snapshot's DAG done set is a byte column, not a list of IDs.
// 3: v1 draws were removed, so a spec with no Setup.RNGVersion now
// draws v2 where a version-2 peer would draw v1.
const ProtoVersion = 3

// maxFrame bounds one frame's payload. Large enough for a full engine
// snapshot of any realistic shard, small enough that a corrupt length
// prefix fails fast instead of allocating gigabytes.
const maxFrame = 64 << 20

// Frame types.
const (
	frameAttach   = "attach"   // coordinator → worker, first frame on a conn
	frameAttached = "attached" // worker → coordinator, attach response
	frameReq      = "req"      // coordinator → worker, one operation
	frameResp     = "resp"     // worker → coordinator, operation response
	frameHB       = "hb"       // worker → coordinator, unsolicited heartbeat
)

// Operations carried by frameReq.
const (
	opSubmit      = "submit"
	opAdvance     = "advance"
	opDrain       = "drain"
	opWeight      = "weight"
	opSnapshot    = "snapshot"
	opNeverPlaced = "never_placed"
)

// seqEvent is one engine event stamped with the worker's contiguous
// per-shard event sequence (from 1). The sequence is what makes
// reconnection exact: the coordinator acks the highest sequence it has
// delivered, and a reattach backfills everything after it — no drops,
// no duplicates. Deterministic WAL replay re-derives the same events
// in the same order, so the numbering survives a worker crash.
type seqEvent struct {
	Seq uint64            `json:"seq"`
	Ev  sched.EngineEvent `json:"ev"`
}

// shardStatus is the worker's introspection snapshot, piggybacked on
// every response and heartbeat so the coordinator's cached view (Now,
// metrics, site states) is at most one frame stale. Site indices are
// shard-local, like everything on this wire; the coordinator's
// partition table translates.
type shardStatus struct {
	Now          float64                  `json:"now"`
	Seen         int                      `json:"seen"`
	InFlight     int                      `json:"in_flight"`
	Batches      int                      `json:"batches"`
	LargestBatch int                      `json:"largest_batch"`
	Sites        []sched.SiteStatus       `json:"sites"`
	Acc          metrics.AccumulatorState `json:"acc"`
	Busy         []float64                `json:"busy"`
	EventSeq     uint64                   `json:"event_seq"`
}

// frame is the single wire message shape: Type selects which fields
// are meaningful. One flat struct instead of an envelope-plus-payload
// keeps the codec to one Marshal/Unmarshal per frame and makes every
// field greppable from either end of the wire.
type frame struct {
	Type string `json:"type"`

	// attach (coordinator → worker).
	Version int    `json:"version,omitempty"`
	Spec    *Spec  `json:"spec,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	Since   uint64 `json:"since,omitempty"` // highest event seq already delivered

	// req/resp correlation and operation.
	ID     uint64    `json:"id,omitempty"`
	Op     string    `json:"op,omitempty"`
	To     float64   `json:"to,omitempty"`
	Job    *grid.Job `json:"job,omitempty"`
	Tenant string    `json:"tenant,omitempty"`
	Weight float64   `json:"weight,omitempty"`

	// attached/resp/hb payloads.
	Fingerprint string                `json:"fingerprint,omitempty"`
	Err         string                `json:"err,omitempty"`
	Events      []seqEvent            `json:"events,omitempty"`
	Status      *shardStatus          `json:"status,omitempty"`
	Result      *sched.Result         `json:"result,omitempty"`
	Snapshot    *sched.EngineSnapshot `json:"snapshot,omitempty"`
	Jobs        []grid.Job            `json:"jobs,omitempty"`
}

// writeFrame encodes one frame as [4-byte big-endian length][JSON].
// Callers serialize writes per connection (the worker's write mutex,
// the remote shard's call mutex).
func writeFrame(w io.Writer, f *frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("fleet: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFrame decodes one frame.
func readFrame(r io.Reader, f *frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("fleet: frame length %d outside (0, %d]", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	return json.Unmarshal(payload, f)
}

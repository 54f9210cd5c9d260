package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"trustgrid/internal/grid"
	"trustgrid/internal/sched"
)

// Control addresses a set's control log in Set.Append: tenant
// registrations and clock barriers go there, arrivals to the log of the
// shard that owns them.
const Control = -1

// Marks are one snapshot's watermarks over a set: the last record it
// covers in the control log and, in the nested layout, in every shard
// log, plus the global sequence counter at capture. ShardSeqs and NextG
// stay zero in the flat layout, whose one Seq stream says all three.
type Marks struct {
	Seq       uint64
	ShardSeqs []uint64
	NextG     uint64
}

// Set is a durable input set: one control log (tenant registrations,
// clock barriers, and the snapshots and journal files beside them) and
// one log per engine shard (that shard's churn prefix, then its
// arrivals), stitched into one total order by Record.G. It has two
// on-disk layouts. One shard is the flat layout: a single log directly
// in the root directory that is both control log and shard log, whose
// Seq is the total order, so its records carry no G — the format every
// unsharded daemon and every fleet worker writes. More shards nest one
// directory per log under the root, coord/ and shard-NNNN/, and every
// record carries its G. Everything that differs between the two is in
// this file. Like a Log, a Set belongs to one goroutine.
type Set struct {
	logs    []*Log   // control log first, then the shard logs; one log when flat
	flat    bool     // shard i's log is logs[i+1], or logs[0] when flat
	nextG   uint64   // last global sequence number assigned; stays 0 when flat
	covered []uint64 // per log, the last record the newest snapshot covers
}

// OpenSet opens (creating it if needed) the input set of a daemon with
// the given shard count under root, after refusing a directory another
// shard count wrote: starting over it would silently begin a fresh
// history beside the old one. Every log comes back cut to its last
// whole record; Recover does the rest.
func OpenSet(root string, shards int) (*Set, error) {
	const refusing = "(refusing to restore state across a config change)"
	count := func(pattern string) int {
		m, _ := filepath.Glob(filepath.Join(root, pattern))
		return len(m)
	}
	dirs := []string{root}
	if shards == 1 {
		if n := count("shard-*"); n > 0 {
			return nil, fmt.Errorf("wal directory was written under shards=%d, config has 1 %s", n, refusing)
		}
		if _, err := os.Stat(filepath.Join(root, "coord")); err == nil {
			return nil, fmt.Errorf("wal directory was written by a sharded daemon, config has shards=1 %s", refusing)
		}
	} else {
		if count("wal-*.log") > 0 {
			return nil, fmt.Errorf("wal directory holds a single-engine log, config has shards=%d %s", shards, refusing)
		}
		if count("snap-*.json") > 0 {
			return nil, fmt.Errorf("wal directory holds a single-engine snapshot, config has shards=%d %s", shards, refusing)
		}
		if n := count("shard-*"); n > 0 && n != shards {
			return nil, fmt.Errorf("wal directory was written under shards=%d, config has %d %s", n, shards, refusing)
		}
		dirs[0] = filepath.Join(root, "coord")
		for i := 0; i < shards; i++ {
			dirs = append(dirs, filepath.Join(root, fmt.Sprintf("shard-%04d", i)))
		}
	}
	s := &Set{flat: shards == 1, covered: make([]uint64, len(dirs))}
	for _, dir := range dirs {
		l, err := Open(dir)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.logs = append(s.logs, l)
	}
	return s, nil
}

// Control returns the control log, for the snapshot and journal files
// kept beside it.
func (s *Set) Control() *Log { return s.logs[0] }

// Marks returns the set's current position: what a snapshot taken now
// covers.
func (s *Set) Marks() Marks {
	m := Marks{Seq: s.logs[0].LastSeq(), NextG: s.nextG}
	for _, l := range s.logs[1:] {
		m.ShardSeqs = append(m.ShardSeqs, l.LastSeq())
	}
	return m
}

// Holds reports whether every log still reaches the watermarks m: a
// snapshot claiming records a log has lost cannot be recovered from.
func (s *Set) Holds(m Marks) bool {
	if m.Seq > s.logs[0].LastSeq() {
		return false
	}
	for i, seq := range m.ShardSeqs {
		// A shard count other than the set's is for the caller to refuse.
		if i+1 < len(s.logs) && seq > s.logs[i+1].LastSeq() {
			return false
		}
	}
	return true
}

// Uncovered counts the records past the newest snapshot written or
// recovered from — what the next recovery would have to read.
func (s *Set) Uncovered() int {
	n := 0
	for k, l := range s.logs {
		n += int(l.LastSeq() - s.covered[k])
	}
	return n
}

// Append buffers rec on the control log (Control) or on a shard's log,
// next in the set's total order. It is durable once Commit returns.
func (s *Set) Append(shard int, rec Record) error {
	l := s.logs[0]
	if !s.flat {
		l, rec.G = s.logs[shard+1], s.nextG+1
	}
	if _, err := l.Append(rec); err != nil {
		return err
	}
	s.nextG = rec.G
	return nil
}

// Commit makes everything appended so far durable. Clean logs skip
// their fsync, so a commit costs one fsync per log actually written.
func (s *Set) Commit() error {
	for _, l := range s.logs {
		if err := l.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// Close commits and closes every log.
func (s *Set) Close() error {
	var err error
	for _, l := range s.logs {
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Recover turns what a crash left of the set into a clean history and
// returns the records the snapshot at m does not cover, in the order
// they were first applied (the zero Marks: no snapshot, every record).
// churn holds each shard's configured churn trace, which its log must
// open with: engines re-derive churn from their configuration, and the
// recorded copy is how a configuration that no longer matches the log
// is caught. Recover
//
//   - refuses a log that starts past its watermark: GC removes the
//     records a snapshot covers, so with that snapshot lost, replaying
//     what is left would start from a partial history;
//   - verifies each log's churn prefix, and that nothing else sits where
//     the trace expects churn;
//   - cuts the set back to the longest contiguous G-prefix past m,
//     physically: a crash between the per-log fsyncs of one group commit
//     can persist a record whose predecessor, in a sibling log, was
//     lost, and what follows the first gap was never acknowledged (a
//     flat set is its own order, so there the cut removes nothing);
//   - completes the churn prefixes, shard by shard — a first boot, or a
//     crash during this very step; that order makes the G assignment
//     come out the same every time.
//
// The survivors exclude churn, which is never re-applied.
func (s *Set) Recover(m Marks, churn [][]grid.ChurnEvent) ([]Record, error) {
	s.covered[0] = m.Seq
	copy(s.covered[1:], m.ShardSeqs)
	// The churn each log opens with: none in a nested set's control log.
	prefix := make([][]grid.ChurnEvent, len(s.logs))
	copy(prefix[len(prefix)-len(churn):], churn)

	type tagged struct {
		rec Record
		log int
	}
	var live []tagged
	present := make(map[uint64]bool)
	for k, l := range s.logs {
		if first := l.FirstSeq(); first > s.covered[k]+1 {
			return nil, fmt.Errorf("wal directory %s: the log starts at record %d, and no usable snapshot covers records %d to %d "+
				"(a snapshot was lost or damaged after the records it covered were garbage-collected; refusing to start from a partial history)",
				l.dir, first, s.covered[k]+1, first-1)
		}
		want, name := prefix[k], ""
		if !s.flat {
			name = filepath.Base(l.dir) + " "
		}
		err := l.Replay(0, func(rec Record) error {
			switch {
			case s.flat:
				rec.G = rec.Seq
			case rec.G == 0:
				return fmt.Errorf("%srecord %d has no global sequence number (refusing to restore state across a config change)", name, rec.Seq)
			}
			if rec.Kind == KindChurn {
				if idx := int(rec.Seq) - 1; idx >= len(want) || *rec.Churn != want[idx] {
					return fmt.Errorf("%schurn record %d does not match the configured churn trace", name, rec.Seq)
				}
			} else if rec.Seq <= uint64(len(want)) {
				return fmt.Errorf("%srecord %d is %q where the configured churn trace expects churn (config has more churn events than were recorded)",
					name, rec.Seq, rec.Kind)
			}
			if present[rec.G] {
				return fmt.Errorf("global sequence %d appears in two wal records", rec.G)
			}
			present[rec.G] = true
			// Records at or below the watermark may be partly
			// garbage-collected; the snapshot holds their effects.
			if rec.Seq > s.covered[k] {
				live = append(live, tagged{rec, k})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	gstar := m.NextG
	if s.flat {
		gstar = m.Seq
	}
	for present[gstar+1] {
		gstar++
	}
	keep := append([]uint64(nil), s.covered...)
	var out []Record
	sort.Slice(live, func(i, j int) bool { return live[i].rec.G < live[j].rec.G })
	for _, r := range live {
		if r.rec.G > gstar {
			break
		}
		if r.rec.Seq > keep[r.log] {
			keep[r.log] = r.rec.Seq
		}
		if r.rec.Kind != KindChurn {
			out = append(out, r.rec)
		}
	}
	for k, l := range s.logs {
		if err := l.TruncateTail(keep[k]); err != nil {
			return nil, err
		}
	}
	if !s.flat {
		s.nextG = gstar
	}

	for k, l := range s.logs {
		if have := int(l.LastSeq()); have < len(prefix[k]) {
			for i := have; i < len(prefix[k]); i++ {
				// Log k > 0 is shard k-1's; a flat set has the one log.
				if err := s.Append(k-1, Record{Kind: KindChurn, Churn: &prefix[k][i]}); err != nil {
					return nil, err
				}
			}
			if err := l.Commit(); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Engine is what Apply drives: a single engine (*sched.Online) or a
// coordinator over several (*sched.Coordinator).
type Engine interface {
	Now() float64
	AdvanceTo(t float64) error
	Drain() (*sched.Result, error)
	Submit(j *grid.Job) error
	SetTenantWeight(tenant string, weight float64)
}

// Apply re-applies one recovered record to eng. The engine is first
// advanced to the clock the record was written under: that re-executes
// whatever engine events preceded the original append (batch rounds
// included), so a re-submitted job lands in the event queue in its
// original position — same arrival clamp, same tie order against a
// batch round at the same timestamp. A barrier record re-executes the
// original advance or drain, reproducing the exact Δ-round window
// boundaries and with them a merged event stream's total order.
func Apply(eng Engine, rec Record) error {
	if rec.At > eng.Now() {
		if err := eng.AdvanceTo(rec.At); err != nil {
			return fmt.Errorf("advancing to record %d clock %v: %w", rec.Seq, rec.At, err)
		}
	}
	switch rec.Kind {
	case KindTenant:
		eng.SetTenantWeight(rec.Tenant.ID, rec.Tenant.Weight)
	case KindBarrier:
		if rec.Barrier.Drain {
			if _, err := eng.Drain(); err != nil {
				return fmt.Errorf("barrier record %d (drain): %w", rec.Seq, err)
			}
		} else if err := eng.AdvanceTo(rec.Barrier.To); err != nil {
			return fmt.Errorf("barrier record %d (advance to %v): %w", rec.Seq, rec.Barrier.To, err)
		}
	case KindArrival:
		if err := eng.Submit(rec.Arrival.Job()); err != nil {
			return fmt.Errorf("arrival record %d: %w", rec.Seq, err)
		}
	}
	return nil
}

// WriteSnapshot persists payload as the snapshot at the set's current
// position — which the caller has just committed and described in the
// payload through Marks — and rotates every log so GC can drop whole
// segments. Shard directories get a watermark marker: not state, only
// the horizon their segment GC prunes against.
func (s *Set) WriteSnapshot(payload []byte) error {
	if err := s.logs[0].WriteSnapshot(s.logs[0].LastSeq(), payload); err != nil {
		return err
	}
	for i, l := range s.logs[1:] {
		marker, err := json.Marshal(map[string]any{"shard": i, "seq": l.LastSeq()})
		if err != nil {
			return err
		}
		if err := l.WriteSnapshot(l.LastSeq(), marker); err != nil {
			return err
		}
	}
	for k, l := range s.logs {
		if err := l.Rotate(); err != nil {
			return err
		}
		s.covered[k] = l.LastSeq()
	}
	return nil
}

// GC keeps the newest keep snapshots and removes the segments they
// cover from every log, and from the control directory the journal
// files below eventHorizon (see Log.GC).
func (s *Set) GC(keep int, eventHorizon int64) error {
	for k, l := range s.logs {
		if k > 0 {
			eventHorizon = 0
		}
		if err := l.GC(keep, eventHorizon); err != nil {
			return err
		}
	}
	return nil
}

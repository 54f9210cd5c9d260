package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016d.log", firstSeq) }

// segmentRef locates one on-disk segment, or a file of another
// numbered family; suffix indexes the suffix numbered matched.
type segmentRef struct {
	firstSeq uint64
	path     string
	suffix   int
}

// numbered lists the files of one family — prefix, a decimal number,
// one of the suffixes — in dir, in one directory read, sorted by number
// (which the zero-padded names make lexical order) and then by suffix.
// Segments, snapshots and journal files are such families.
func numbered(dir, prefix string, suffixes ...string) ([]segmentRef, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []segmentRef
	for _, e := range names {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) {
			continue
		}
		for k, suffix := range suffixes {
			if !strings.HasSuffix(name, suffix) {
				continue
			}
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
			if err == nil { // else not ours
				out = append(out, segmentRef{firstSeq: n, path: filepath.Join(dir, name), suffix: k})
			}
			break
		}
	}
	sort.Slice(out, func(i, k int) bool {
		return out[i].firstSeq < out[k].firstSeq || out[i].firstSeq == out[k].firstSeq && out[i].suffix < out[k].suffix
	})
	return out, nil
}

// segments lists the directory's WAL segments by first sequence number.
func segments(dir string) ([]segmentRef, error) { return numbered(dir, "wal-", ".log") }

// Log is an append-only, CRC-framed record log over rotating segment
// files, with group fsync: Append buffers, Commit makes everything
// appended so far durable. Not safe for concurrent use — the daemon's
// loop goroutine owns it.
type Log struct {
	dir      string
	f        *os.File
	w        *bufio.Writer
	buf      []byte // frame scratch
	firstSeq uint64 // first record still on disk (GC removes leading segments)
	lastSeq  uint64
	segFirst uint64 // first seq of the active segment
	dirty    bool   // appended since last Commit
	// syncs counts the log's fsyncs by kind, for Set.Syncs.
	syncs struct{ file, dir atomic.Uint64 }
}

// Open recovers the log in dir (creating it if needed): it walks the
// segment chain, truncates the first torn or corrupt point to the last
// valid record, removes everything beyond it, and positions the writer
// so the next Append continues the sequence. Stale temp files from an
// interrupted snapshot write are swept out.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if tmp, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range tmp {
			os.Remove(p)
		}
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, lastSeq: 0, segFirst: 1}
	expect := uint64(1)
	if len(segs) > 0 {
		// GC may have removed fully-covered leading segments; the chain
		// starts wherever the oldest survivor does.
		expect = segs[0].firstSeq
	}
	l.firstSeq = expect
	active := "" // surviving segment to append to
	for i, s := range segs {
		if s.firstSeq != expect {
			// A gap in the chain: this segment and everything after it
			// cannot be contiguous with the valid prefix. Remove them so
			// a future rotation cannot collide with stale files.
			for _, later := range segs[i:] {
				os.Remove(later.path)
			}
			break
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return nil, err
		}
		recs, n := DecodeAll(data, expect)
		expect += uint64(len(recs))
		if n < len(data) {
			// Torn or corrupt tail: keep the valid prefix, drop the rest
			// of the chain (a record is only meaningful with its full
			// prefix). A non-first segment whose prefix is empty adds
			// nothing and is dropped whole.
			if n > 0 || i == 0 {
				if err := os.Truncate(s.path, int64(n)); err != nil {
					return nil, err
				}
				active = s.path
				l.segFirst = s.firstSeq
			} else {
				os.Remove(s.path)
			}
			for _, later := range segs[i+1:] {
				os.Remove(later.path)
			}
			break
		}
		active = s.path
		l.segFirst = s.firstSeq
	}
	l.lastSeq = expect - 1
	if active == "" {
		l.segFirst = l.lastSeq + 1
		active = filepath.Join(dir, segmentName(l.segFirst))
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	if err := l.syncDir(); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// syncDir fsyncs the log's directory and counts it.
func (l *Log) syncDir() error {
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.syncs.dir.Add(1)
	return nil
}

// syncFile fsyncs f and counts it.
func (l *Log) syncFile(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	l.syncs.file.Add(1)
	return nil
}

// syncDir fsyncs the directory so renames, truncations and removals
// performed during recovery or snapshotting are themselves durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LastSeq returns the sequence number of the last appended (or
// recovered) record; 0 means the log is empty.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// FirstSeq returns the sequence number the surviving log starts at: 1
// until GC has removed a leading segment, LastSeq+1 when GC has removed
// every record. Replay can only serve records from FirstSeq on, so a
// recovery that needs earlier ones must find them in a snapshot.
func (l *Log) FirstSeq() uint64 { return l.firstSeq }

// Append assigns the next sequence number, frames the record and
// buffers it. The record is NOT durable until Commit returns.
func (l *Log) Append(rec Record) (uint64, error) {
	rec.Seq = l.lastSeq + 1
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	var err error
	if l.buf, err = appendFrame(l.buf[:0], &rec); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(l.buf); err != nil {
		return 0, err
	}
	l.lastSeq = rec.Seq
	l.dirty = true
	return rec.Seq, nil
}

// Commit flushes buffered appends and fsyncs the active segment: the
// group-commit point. Everything appended before it is durable after
// it. A clean log is a no-op, so callers can commit per loop iteration
// without paying an fsync when nothing happened.
func (l *Log) Commit() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.syncFile(l.f); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// rotate commits and closes the active segment and starts a fresh one
// at the next sequence number. A rotation with nothing written to the
// active segment is a no-op. Set.WriteSnapshot rotates every log right
// after each snapshot, so GC can drop whole segments the snapshot
// covers. The new segment's directory entry is durable once the caller
// syncs the directory, which it must do before anything is appended to
// the segment.
func (l *Log) rotate() error {
	if l.segFirst == l.lastSeq+1 {
		return nil
	}
	if err := l.Commit(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.segFirst = l.lastSeq + 1
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.segFirst)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w.Reset(f) // flushed by the commit above; its buffer carries over
	return nil
}

// TruncateTail discards every record with sequence number greater than
// keep, repositioning the writer so the next Append continues at
// keep+1. Set.Recover uses it to cut each log of a multi-log set
// back to the longest globally contiguous prefix (Record.G): a crash
// between the per-log fsyncs of one group commit can leave one log
// holding a record whose global predecessor — in a sibling log — never
// became durable, and that suffix must go before replay. A no-op when
// nothing follows keep; an error when keep predates the GC horizon.
func (l *Log) TruncateTail(keep uint64) error {
	if keep >= l.lastSeq {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f, l.w = nil, nil
	segs, err := segments(l.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 || keep+1 < segs[0].firstSeq {
		return fmt.Errorf("wal: cannot truncate to %d: the log starts at %d", keep, segs[0].firstSeq)
	}
	active := ""
	for _, s := range segs {
		if s.firstSeq > keep {
			os.Remove(s.path)
			continue
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		recs, _ := DecodeAll(data, s.firstSeq)
		if s.firstSeq+uint64(len(recs))-1 <= keep {
			active, l.segFirst = s.path, s.firstSeq
			continue
		}
		// The cut lands inside this segment. Records are whole lines, so
		// the byte length of the kept prefix is the offset just past the
		// (keep-firstSeq+1)-th newline.
		off := 0
		for i := uint64(0); i < keep-s.firstSeq+1; i++ {
			nl := bytes.IndexByte(data[off:], '\n')
			off += nl + 1
		}
		if err := os.Truncate(s.path, int64(off)); err != nil {
			return err
		}
		active, l.segFirst = s.path, s.firstSeq
	}
	l.lastSeq = keep
	if active == "" {
		l.segFirst = keep + 1
		active = filepath.Join(l.dir, segmentName(l.segFirst))
	}
	f, err := os.OpenFile(active, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := l.syncFile(f); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.dirty = false
	return l.syncDir()
}

// Replay streams every record with sequence number strictly greater
// than after, in order, to fn. Called on a live log it flushes buffered
// appends first so the files are complete; it does not fsync.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	segs, err := segments(l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.firstSeq > l.lastSeq {
			break
		}
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		recs, n := DecodeAll(data, s.firstSeq)
		if n < len(data) {
			return fmt.Errorf("wal: segment %s corrupt at offset %d (recovered log should be clean)", s.path, n)
		}
		for _, rec := range recs {
			if rec.Seq <= after {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes, fsyncs and closes the active segment.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Commit()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

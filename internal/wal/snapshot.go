package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.json", seq) }

// SnapshotRef locates one on-disk snapshot by the position it is
// named by: for a lone log, and a set in the flat layout, the last WAL
// sequence number it covers — recovery is "load payload, then replay
// records with Seq > Seq" — and for a nested set the global sequence
// counter at capture (Set.WriteSnapshot). Snapshots an older daemon
// wrote in the nested layout are named by the control log's sequence
// number, which is never greater.
type SnapshotRef struct {
	Seq  uint64
	Path string
}

// WriteSnapshot atomically persists a snapshot covering every record up
// to and including seq: temp file, fsync, rename, directory fsync. A
// crash at any point leaves either the old set or the old set plus the
// complete new snapshot — never a partial one under the real name. It
// does not commit the log; callers snapshot at a point they have just
// committed.
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	if seq > l.lastSeq {
		return fmt.Errorf("wal: snapshot at seq %d beyond last appended %d", seq, l.lastSeq)
	}
	if err := l.writeFile(snapshotName(seq), payload); err != nil {
		return err
	}
	return l.syncDir()
}

// writeFile makes the file name in the log's directory hold exactly
// data: temp file, fsync, rename. The file is durable; its directory
// entry is not until the directory is synced, which the caller does.
func (l *Log) writeFile(name string, data []byte) error {
	if err := writeFile(filepath.Join(l.dir, name), data); err != nil {
		return err
	}
	l.syncs.file.Add(1)
	return nil
}

// WriteFileAtomic makes path hold exactly data, durably: temp file,
// fsync, rename, directory fsync. A crash leaves the old content or the
// new, never a partial file under the real name.
func WriteFileAtomic(path string, data []byte) error {
	if err := writeFile(path, data); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeFile is WriteFileAtomic but for the directory fsync.
func writeFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Snapshots lists the directory's snapshots newest first. Recovery
// walks the list and uses the first one that loads cleanly.
func (l *Log) Snapshots() ([]SnapshotRef, error) {
	files, err := numbered(l.dir, "snap-", ".json")
	if err != nil {
		return nil, err
	}
	out := make([]SnapshotRef, len(files))
	for i, f := range files {
		out[len(files)-1-i] = SnapshotRef{Seq: f.firstSeq, Path: f.path}
	}
	return out, nil
}

// ReadSnapshot loads a snapshot's payload.
func ReadSnapshot(ref SnapshotRef) ([]byte, error) { return os.ReadFile(ref.Path) }

// prune removes, without syncing the directory, what the snapshots the
// caller keeps no longer need: every snapshot file named below oldest,
// every non-active segment whose records all lie at or below covered —
// those records can never be replayed again — and every journal file
// whose events all lie below eventHorizon, the oldest event a kept
// snapshot still counts on (the log cannot read either out of the
// payloads).
func (l *Log) prune(oldest, covered uint64, eventHorizon int64) error {
	snaps, err := l.Snapshots()
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s.Seq < oldest {
			if err := os.Remove(s.Path); err != nil {
				return err
			}
		}
	}
	segs, err := segments(l.dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		// Segment i spans [firstSeq, next.firstSeq-1]; it is dead once the
		// oldest kept snapshot covers its last record. The active (final)
		// segment always stays.
		if i+1 >= len(segs) || segs[i+1].firstSeq > covered+1 {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return err
		}
		l.firstSeq = segs[i+1].firstSeq
	}
	journals, err := l.Journals()
	if err != nil {
		return err
	}
	for i, j := range journals {
		// A file's events end before the next file's first.
		if i+1 >= len(journals) || journals[i+1].First > eventHorizon {
			break
		}
		if err := os.Remove(j.Path); err != nil {
			return err
		}
	}
	return nil
}

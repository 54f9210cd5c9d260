package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

func journalName(first int64) string { return fmt.Sprintf("events-%016d.ndjson", first) }

// JournalRef locates one event-journal file: the daemon's emitted
// events from sequence number First on, one NDJSON line each. The log
// stores the files and knows nothing of their lines.
type JournalRef struct {
	First int64
	Path  string
}

// WriteJournal durably stores the journal file that starts at event
// first, the way WriteSnapshot stores a snapshot — a crash leaves the
// whole file or none of it. The daemon writes the file before the
// snapshot that counts on it.
func (l *Log) WriteJournal(first int64, lines []byte) error {
	return WriteFileAtomic(filepath.Join(l.dir, journalName(first)), lines)
}

// Journals lists the directory's journal files, oldest first.
func (l *Log) Journals() ([]JournalRef, error) {
	files, err := numbered(l.dir, "events-", ".ndjson")
	if err != nil {
		return nil, err
	}
	out := make([]JournalRef, len(files))
	for i, f := range files {
		out[i] = JournalRef{First: int64(f.firstSeq), Path: f.path}
	}
	return out, nil
}

// ReadJournal loads a journal file's lines.
func ReadJournal(ref JournalRef) ([]byte, error) { return os.ReadFile(ref.Path) }

// RemoveJournals deletes the given files and makes the deletion durable.
func (l *Log) RemoveJournals(refs []JournalRef) error {
	for _, ref := range refs {
		if err := os.Remove(ref.Path); err != nil {
			return err
		}
	}
	return syncDir(l.dir)
}

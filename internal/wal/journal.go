package wal

import (
	"fmt"
	"os"
)

func journalName(first int64) string { return fmt.Sprintf("events-%016d.bin", first) }

// JournalRef locates one event-journal file: the daemon's emitted
// events from sequence number First on, one binary record each (Lines
// false), or one NDJSON line each in the files earlier daemons wrote
// ("events-%016d.ndjson", Lines true). The log stores the files and
// knows nothing of their contents.
type JournalRef struct {
	First int64
	Path  string
	Lines bool
}

// WriteJournal durably stores the journal file that starts at event
// first, directory entry included, the way WriteSnapshot stores a
// snapshot — a crash leaves the whole file or none of it. The daemon
// writes the file before the snapshot that counts on it.
func (l *Log) WriteJournal(first int64, records []byte) error {
	if err := l.writeFile(journalName(first), records); err != nil {
		return err
	}
	return l.syncDir()
}

// Journals lists the directory's journal files of both forms, oldest
// first.
func (l *Log) Journals() ([]JournalRef, error) {
	files, err := numbered(l.dir, "events-", ".ndjson", ".bin")
	if err != nil {
		return nil, err
	}
	out := make([]JournalRef, len(files))
	for i, f := range files {
		out[i] = JournalRef{First: int64(f.firstSeq), Path: f.path, Lines: f.suffix == 0}
	}
	return out, nil
}

// ReadJournal loads a journal file's contents.
func ReadJournal(ref JournalRef) ([]byte, error) { return os.ReadFile(ref.Path) }

// RemoveJournals deletes the given files and makes the deletion durable.
func (l *Log) RemoveJournals(refs []JournalRef) error {
	for _, ref := range refs {
		if err := os.Remove(ref.Path); err != nil {
			return err
		}
	}
	return l.syncDir()
}

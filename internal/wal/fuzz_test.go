package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// buildLog renders n records as a framed segment body starting at seq 1.
func buildLog(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		rec.Seq = uint64(i + 1)
		line, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// buildNestedLog renders a coordinator-log segment of the nested layout:
// every record carries its global sequence number, and barriers sit
// between the registrations.
func buildNestedLog(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, rec := range []Record{
		{G: 1, Kind: KindTenant, Tenant: testRecord(1).Tenant},
		{G: 4, At: 0, Kind: KindBarrier, Barrier: &BarrierRecord{To: 300}},
		{G: 5, At: 300, Kind: KindTenant, Tenant: testRecord(1).Tenant},
		{G: 9, At: 300, Kind: KindBarrier, Barrier: &BarrierRecord{Drain: true}},
	} {
		rec.Seq = uint64(i + 1)
		line, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// FuzzWALReplay feeds arbitrary bytes to the WAL reader as a segment
// file: decoding must never panic, must accept only a contiguous valid
// prefix, and Open over the same bytes must repair the directory to
// exactly that prefix and support appending past it. Seeds cover the
// interesting shapes: a clean log, a truncated tail, a torn append, a
// flipped bit, raw garbage, and a nested-layout segment (G-tagged
// records and barriers).
func FuzzWALReplay(f *testing.F) {
	clean := buildLog(f, 6)
	f.Add(clean)
	f.Add(clean[:len(clean)-9])                                                              // truncated mid-line
	f.Add(append(append([]byte{}, clean...), "89abcdef {\"seq\":7,\"kind\":\"arrival\""...)) // torn append
	flipped := append([]byte{}, clean...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("not a log\n\n\x00\x01\x02"))
	f.Add([]byte{})
	f.Add(buildNestedLog(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := DecodeAll(data, 1)
		if n > len(data) {
			t.Fatalf("valid prefix %d longer than input %d", n, len(data))
		}
		// The accepted prefix must re-decode to the same records: the
		// reader's verdict is stable, not positional luck.
		again, n2 := DecodeAll(data[:n], 1)
		if n2 != n || len(again) != len(recs) {
			t.Fatalf("re-decode of valid prefix diverged: %d/%d bytes, %d/%d records", n2, n, len(again), len(recs))
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("record %d carries seq %d", i, r.Seq)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted record invalid: %v", err)
			}
		}

		// Open must recover to exactly the valid prefix and keep working.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on damaged log failed: %v", err)
		}
		defer l.Close()
		if l.LastSeq() != uint64(len(recs)) {
			t.Fatalf("recovered LastSeq %d, valid prefix has %d records", l.LastSeq(), len(recs))
		}
		var replayed int
		if err := l.Replay(0, func(Record) error { replayed++; return nil }); err != nil {
			t.Fatalf("replay of repaired log failed: %v", err)
		}
		if replayed != len(recs) {
			t.Fatalf("repaired log replays %d records, want %d", replayed, len(recs))
		}
		if seq, err := l.Append(testRecord(0)); err != nil || seq != uint64(len(recs))+1 {
			t.Fatalf("append after repair: seq=%d err=%v", seq, err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	})
}

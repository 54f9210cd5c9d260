package wal

import (
	"strings"
	"testing"
)

// TestTruncateTail covers the sharded group-commit repair path: after a
// crash between the per-log fsyncs of one global commit, recovery cuts
// every log back to the globally contiguous prefix. The cut must be
// physical — a reopened log continues from the truncated seq — and must
// work mid-segment, across whole segments, and as a no-op.
func TestTruncateTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i == 7 || i == 13 {
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}

	// No-op: keep >= lastSeq.
	if err := l.TruncateTail(20); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTail(25); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 20 {
		t.Fatalf("after no-op truncate LastSeq = %d, want 20", got)
	}

	// Mid-segment cut inside the live third segment (records 15..20),
	// dropping the segment boundary at 14 too: keep 11 lands inside the
	// second segment (8..14).
	if err := l.TruncateTail(11); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 11 {
		t.Fatalf("after truncate(11) LastSeq = %d, want 11", got)
	}
	recs := replayAll(t, l, 0)
	if len(recs) != 11 || recs[len(recs)-1].Seq != 11 {
		t.Fatalf("replay after truncate: %d records, last seq %d", len(recs), recs[len(recs)-1].Seq)
	}

	// The truncated log keeps appending with contiguous seqs...
	seq, err := l.Append(testRecord(100))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12 {
		t.Fatalf("append after truncate got seq %d, want 12", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and the cut survives a reopen byte-for-byte.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 12 {
		t.Fatalf("reopened LastSeq = %d, want 12", got)
	}
	recs = replayAll(t, l2, 0)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("reopened replay record %d has seq %d", i, r.Seq)
		}
	}
}

// TestTruncateTailBelowStart pins the refusal to cut below the log's
// first retained record (GC may have removed the prefix a deeper cut
// would need — such a history is unrecoverable, not repairable).
func TestTruncateTailBelowStart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	// Snapshot at 8 + GC drops the first segment (records 1..6).
	if err := l.WriteSnapshot(8, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.prune(8, 8, 0); err != nil {
		t.Fatal(err)
	}
	// Cutting to 9 is fine; cutting to 3 would need segment one back.
	if err := l.TruncateTail(9); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateTail(3); err == nil {
		t.Fatal("TruncateTail below the first retained record must fail")
	}
}

// TestBarrierRecordRoundTrip checks the new sharded-WAL record surface:
// KindBarrier validation and the G global sequence field surviving the
// frame encoding.
func TestBarrierRecordRoundTrip(t *testing.T) {
	good := []Record{
		{Seq: 1, Kind: KindBarrier, G: 7, Barrier: &BarrierRecord{To: 300}},
		{Seq: 2, Kind: KindBarrier, G: 8, Barrier: &BarrierRecord{Drain: true}},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Fatalf("valid barrier rejected: %v", err)
		}
		line, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		decoded, n := DecodeAll(line, r.Seq)
		if len(decoded) != 1 || n != len(line) {
			t.Fatalf("frame did not decode whole: %d records, %d/%d bytes", len(decoded), n, len(line))
		}
		back := decoded[0]
		if back.G != r.G || back.Kind != KindBarrier || *back.Barrier != *r.Barrier {
			t.Fatalf("round trip lost data: %+v vs %+v", back, r)
		}
	}
	bad := Record{Seq: 3, Kind: KindBarrier}
	if err := bad.Validate(); err == nil {
		t.Fatal("barrier record without payload must be invalid")
	}
	// G stays omitted on single-engine records so pre-sharding logs and
	// -shards 1 logs are byte-identical.
	line, err := EncodeRecord(Record{Seq: 4, Kind: KindTenant, Tenant: testRecord(1).Tenant})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(line), `"g"`) {
		t.Fatalf("G=0 must be omitted from the frame: %s", line)
	}
}

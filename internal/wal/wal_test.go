package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

func testRecord(i int) Record {
	switch i % 3 {
	case 0:
		return Record{Kind: KindArrival, Arrival: &api.TraceRecord{
			ID: i, Arrival: float64(i) * 10, Workload: 500, Nodes: 1, SD: 0.7, Tenant: "acme",
		}}
	case 1:
		return Record{Kind: KindTenant, Tenant: &api.TenantSpec{
			ID: "acme", Weight: 2, MaxQueue: 100,
		}}
	default:
		return Record{Kind: KindChurn, Churn: &grid.ChurnEvent{
			Time: float64(i), Site: i % 4, Kind: grid.ChurnCrash,
		}}
	}
}

func replayAll(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(after, func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendCommitReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		seq, err := l.Append(testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("record %d got seq %d", i, seq)
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
	got := replayAll(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, wrote %d", len(got), n)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if tail := replayAll(t, l, 15); len(tail) != n-15 {
		t.Fatalf("replay after 15 returned %d records, want %d", len(tail), n-15)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the full chain (3 segments) must recover intact.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != n {
		t.Fatalf("reopened LastSeq = %d, want %d", l2.LastSeq(), n)
	}
	if seq, err := l2.Append(testRecord(n)); err != nil || seq != n+1 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

// corrupt writes a damaged tail onto the last segment and reports the
// path it damaged.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1].path
}

func TestTornTailRecovery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
		lost   int // records the damage destroys
	}{
		{"truncated-mid-line", func(t *testing.T, path string) {
			data, _ := os.ReadFile(path)
			if err := os.Truncate(path, int64(len(data)-7)); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"torn-append", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.WriteString("deadbeef {\"seq\":999") // no newline: torn write
		}, 0},
		{"bit-flip-last-record", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a bit inside the last line's payload.
			idx := strings.LastIndexByte(strings.TrimRight(string(data), "\n"), '\n') + 12
			data[idx] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"garbage-tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.WriteString("not a frame at all\nxx\n")
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			const n = 10
			for i := 0; i < n; i++ {
				if _, err := l.Append(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, lastSegment(t, dir))

			l2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			want := uint64(n - tc.lost)
			if l2.LastSeq() != want {
				t.Fatalf("recovered LastSeq = %d, want %d", l2.LastSeq(), want)
			}
			recs := replayAll(t, l2, 0)
			if len(recs) != int(want) {
				t.Fatalf("replayed %d records, want %d", len(recs), want)
			}
			// The writer must resume the sequence where the valid prefix
			// ends, over the repaired file.
			if seq, err := l2.Append(testRecord(99)); err != nil || seq != want+1 {
				t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
			}
			if err := l2.Commit(); err != nil {
				t.Fatal(err)
			}
			if recs := replayAll(t, l2, 0); len(recs) != int(want)+1 {
				t.Fatalf("after recovery append, replayed %d records, want %d", len(recs), want+1)
			}
		})
	}
}

func TestSegmentGapDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (err=%v)", len(segs), err)
	}
	// Losing a middle segment orphans everything after it.
	if err := os.Remove(segs[1].path); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 4 {
		t.Fatalf("LastSeq = %d after losing segment 2, want 4", l2.LastSeq())
	}
	if left, err := segments(dir); err != nil || len(left) != 1 {
		t.Fatalf("orphaned segments not removed: %d left (err=%v)", len(left), err)
	}
}

func TestSnapshotWriteListGC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 30; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%10 == 0 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := l.WriteSnapshot(l.LastSeq(), []byte(`{"at":`+string(rune('0'+i))+`}`)); err != nil {
				t.Fatal(err)
			}
			if err := l.rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	snaps, err := l.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || snaps[0].Seq != 30 || snaps[2].Seq != 10 {
		t.Fatalf("snapshot list wrong: %+v", snaps)
	}
	// Keeping the newest two: the oldest kept is the one at 20.
	if err := l.prune(20, 20, 0); err != nil {
		t.Fatal(err)
	}
	snaps, _ = l.Snapshots()
	if len(snaps) != 2 || snaps[1].Seq != 20 {
		t.Fatalf("after GC: %+v", snaps)
	}
	// Records 1–20 are covered by the oldest kept snapshot; their
	// segments (1–10, 11–20) are gone, the active chain remains.
	segs, _ := segments(dir)
	if len(segs) == 0 || segs[0].firstSeq != 21 {
		t.Fatalf("segment GC wrong: %+v", segs)
	}
	if recs := replayAll(t, l, 20); len(recs) != 10 {
		t.Fatalf("replay after snapshot seq: %d records, want 10", len(recs))
	}

	// Snapshot beyond the appended sequence is a caller bug.
	if err := l.WriteSnapshot(l.LastSeq()+1, []byte("{}")); err == nil {
		t.Fatal("snapshot beyond LastSeq did not fail")
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, snapshotName(5)+".tmp")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
}

// TestSnapshotReadBack: WriteSnapshot → Snapshots → ReadSnapshot is a
// byte-exact round trip, and a ref pointing at a removed file reports
// the read error instead of fabricating state.
func TestSnapshotReadBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"now":40,"queues":[1,2,3]}`)
	if err := l.WriteSnapshot(l.LastSeq(), payload); err != nil {
		t.Fatal(err)
	}
	snaps, err := l.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Seq != 4 {
		t.Fatalf("snapshot list: %+v", snaps)
	}
	got, err := ReadSnapshot(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: got %q want %q", got, payload)
	}
	if err := os.Remove(snaps[0].Path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(snaps[0]); err == nil {
		t.Fatal("reading a removed snapshot succeeded")
	}
}

// TestRotateEmptySegmentIsNoop: rotating an empty active segment does
// nothing (no zero-record segment files pile up), and rotation after
// appends survives reopen with the full record set intact.
func TestRotateEmptySegmentIsNoop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.rotate(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("empty rotations created segments: %+v", segs)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.rotate(); err != nil {
		t.Fatal(err)
	}
	// Rotate committed; the next append opens a fresh segment.
	if _, err := l.Append(testRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs := replayAll(t, l2, 0); len(recs) != 6 {
		t.Fatalf("replay after rotate+reopen: %d records, want 6", len(recs))
	}
}

package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trustgrid/internal/api"
	"trustgrid/internal/grid"
)

// arrivalRec and its siblings build G-tagged records for a hand-written
// log (G 0: a flat log's record); writeLog assigns Seq by position.
func arrivalRec(g uint64, id int) Record {
	return Record{Kind: KindArrival, G: g, At: float64(id), Arrival: &api.TraceRecord{ID: id, Workload: 100, Nodes: 1, SD: 0.5, Tenant: "acme"}}
}

func tenantRec(g uint64, id string) Record {
	return Record{Kind: KindTenant, G: g, Tenant: &api.TenantSpec{ID: id, Weight: 1}}
}

func barrierRec(g uint64, to float64) Record {
	return Record{Kind: KindBarrier, G: g, Barrier: &BarrierRecord{To: to}}
}

func churnRec(g uint64, ev grid.ChurnEvent) Record {
	return Record{Kind: KindChurn, G: g, Churn: &ev}
}

// writeLog writes recs as one segment starting at first — the disk
// state of a log whose records all became durable.
func writeLog(t *testing.T, dir string, first uint64, recs ...Record) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, r := range recs {
		r.Seq = first + uint64(i)
		line, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(first)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diskGs reads a log directory's surviving records off the disk, as
// their global sequence numbers (their Seq in the flat layout).
func diskGs(t *testing.T, dir string, flat bool) []uint64 {
	t.Helper()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := []uint64{}
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			t.Fatal(err)
		}
		recs, n := DecodeAll(data, s.firstSeq)
		if n != len(data) {
			t.Fatalf("%s: %d bytes past the last whole record", s.path, len(data)-n)
		}
		for _, r := range recs {
			if flat {
				r.G = r.Seq
			}
			out = append(out, r.G)
		}
	}
	return out
}

// TestSetOrderedCut drives Set.Recover over hand-written directories:
// what it returns (as the survivors' G order), what it leaves on disk,
// and what it refuses.
func TestSetOrderedCut(t *testing.T) {
	crash := grid.ChurnEvent{Time: 700, Site: 1, Kind: grid.ChurnCrash}
	join := grid.ChurnEvent{Time: 1600, Site: 1, Kind: grid.ChurnJoin}
	coord, shard0, shard1 := "coord", "shard-0000", "shard-0001"

	cases := []struct {
		name   string
		shards int
		logs   map[string][]Record // directory ("" = the flat root) -> records from seq 1
		first  map[string]uint64   // directory -> first seq on disk, where not 1
		marks  Marks
		churn  [][]grid.ChurnEvent
		want   []uint64            // replayed, as G
		disk   map[string][]uint64 // directory -> surviving G after recovery
		nextG  uint64
		errHas string
	}{
		{
			name: "one log is its own order: nothing to cut", shards: 1,
			logs:  map[string][]Record{"": {churnRec(0, crash), tenantRec(0, "acme"), arrivalRec(0, 1), arrivalRec(0, 2)}},
			churn: [][]grid.ChurnEvent{{crash}},
			want:  []uint64{2, 3, 4},
			disk:  map[string][]uint64{"": {1, 2, 3, 4}},
		},
		{
			name: "one log past a snapshot: only the tail is replayed", shards: 1,
			logs:  map[string][]Record{"": {tenantRec(0, "acme"), arrivalRec(0, 1), arrivalRec(0, 2), arrivalRec(0, 3)}},
			marks: Marks{Seq: 2},
			churn: [][]grid.ChurnEvent{nil},
			want:  []uint64{3, 4},
			disk:  map[string][]uint64{"": {1, 2, 3, 4}},
		},
		{
			name: "whole group commit: merged by G across the logs", shards: 2,
			logs: map[string][]Record{
				coord:  {tenantRec(1, "acme"), barrierRec(4, 300)},
				shard0: {arrivalRec(2, 1), arrivalRec(5, 3)},
				shard1: {arrivalRec(3, 2)},
			},
			churn: [][]grid.ChurnEvent{nil, nil},
			want:  []uint64{1, 2, 3, 4, 5},
			disk:  map[string][]uint64{coord: {1, 4}, shard0: {2, 5}, shard1: {3}},
			nextG: 5,
		},
		{
			name: "skewed group commit: g+2 durable, g+1 lost, both gone", shards: 2,
			logs: map[string][]Record{
				coord:  {tenantRec(1, "acme"), barrierRec(6, 300)},
				shard0: {arrivalRec(2, 1), arrivalRec(3, 2)}, // G=4 was appended here and lost
				shard1: {arrivalRec(5, 4)},
			},
			churn: [][]grid.ChurnEvent{nil, nil},
			want:  []uint64{1, 2, 3},
			disk:  map[string][]uint64{coord: {1}, shard0: {2, 3}, shard1: {}},
			nextG: 3,
		},
		{
			name: "the cut counts from the snapshot's next_g, and churn is verified, never replayed", shards: 2,
			logs: map[string][]Record{
				coord:  {tenantRec(3, "acme"), barrierRec(5, 300), barrierRec(8, 600)},
				shard0: {churnRec(1, crash), arrivalRec(4, 1), arrivalRec(6, 2)},
				shard1: {churnRec(2, join)},
			},
			marks: Marks{Seq: 1, ShardSeqs: []uint64{2, 1}, NextG: 4},
			churn: [][]grid.ChurnEvent{{crash}, {join}},
			want:  []uint64{5, 6},
			disk:  map[string][]uint64{coord: {3, 5}, shard0: {1, 4, 6}, shard1: {2}},
			nextG: 6,
		},
		{
			name: "a first boot that died recording churn finishes the prefix, same G", shards: 2,
			logs: map[string][]Record{
				shard0: {churnRec(1, crash)},
			},
			churn: [][]grid.ChurnEvent{{crash, join}, {join}},
			want:  nil,
			disk:  map[string][]uint64{coord: {}, shard0: {1, 2}, shard1: {3}},
			nextG: 3,
		},
		{
			name: "duplicate G", shards: 2,
			logs: map[string][]Record{
				coord:  {tenantRec(1, "acme")},
				shard0: {arrivalRec(2, 1)},
				shard1: {arrivalRec(2, 2)},
			},
			churn:  [][]grid.ChurnEvent{nil, nil},
			errHas: "global sequence 2 appears in two wal records",
		},
		{
			name: "nested record without G", shards: 2,
			logs: map[string][]Record{
				shard1: {arrivalRec(0, 1)},
			},
			churn:  [][]grid.ChurnEvent{nil, nil},
			errHas: "shard-0001 record 1 has no global sequence number",
		},
		{
			name: "churn that is not the configured trace", shards: 1,
			logs:   map[string][]Record{"": {churnRec(0, join)}},
			churn:  [][]grid.ChurnEvent{{crash}},
			errHas: "churn record 1 does not match the configured churn trace",
		},
		{
			name: "more churn configured than recorded", shards: 2,
			logs: map[string][]Record{
				shard0: {churnRec(1, crash), arrivalRec(2, 1)},
			},
			churn:  [][]grid.ChurnEvent{{crash, join}, nil},
			errHas: `shard-0000 record 2 is "arrival" where the configured churn trace expects churn`,
		},
		{
			name: "flat head past the watermark", shards: 1,
			logs:   map[string][]Record{"": {arrivalRec(0, 7), arrivalRec(0, 8)}},
			first:  map[string]uint64{"": 7},
			marks:  Marks{Seq: 3},
			churn:  [][]grid.ChurnEvent{nil},
			errHas: "the log starts at record 7, and no usable snapshot covers records 4 to 6",
		},
		{
			name: "nested head past the watermark: the shard log is named", shards: 2,
			logs: map[string][]Record{
				coord:  {tenantRec(1, "acme")},
				shard1: {arrivalRec(9, 7)},
			},
			first:  map[string]uint64{shard1: 5},
			marks:  Marks{Seq: 1, ShardSeqs: []uint64{0, 2}, NextG: 8},
			churn:  [][]grid.ChurnEvent{nil, nil},
			errHas: "shard-0001: the log starts at record 5, and no usable snapshot covers records 3 to 4",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			if tc.shards > 1 { // a nested set has all its directories from the first open on
				for _, dir := range []string{coord, shard0, shard1} {
					if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
						t.Fatal(err)
					}
				}
			}
			for dir, recs := range tc.logs {
				first := uint64(1)
				if f := tc.first[dir]; f != 0 {
					first = f
				}
				writeLog(t, filepath.Join(root, dir), first, recs...)
			}
			s, err := OpenSet(root, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if !s.Holds(tc.marks) {
				t.Fatalf("set does not hold the watermarks %+v", tc.marks)
			}
			tail, err := s.Recover(tc.marks, tc.churn)
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("Recover = %v, want an error containing %q", err, tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for _, r := range tail {
				got = append(got, r.G)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed G order %v, want %v", got, tc.want)
			}
			if s.Marks().NextG != tc.nextG {
				t.Fatalf("next_g = %d after recovery, want %d", s.Marks().NextG, tc.nextG)
			}
			uncovered := 0
			for dir, want := range tc.disk {
				uncovered += len(want)
				// Physically: read the files, not the open logs.
				if got := diskGs(t, filepath.Join(root, dir), tc.shards == 1); !reflect.DeepEqual(got, want) {
					t.Fatalf("%q holds G %v after recovery, want %v", dir, got, want)
				}
			}
			uncovered -= int(tc.marks.Seq)
			for _, seq := range tc.marks.ShardSeqs {
				uncovered -= int(seq)
			}
			if s.Uncovered() != uncovered {
				t.Fatalf("Uncovered() = %d, want %d", s.Uncovered(), uncovered)
			}

			// The next record continues the order, in whichever log it lands,
			// and a second recovery finds nothing left to repair.
			if err := s.Append(tc.shards-1, arrivalRec(0, 99)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if tc.shards > 1 && s.Marks().NextG != tc.nextG+1 {
				t.Fatalf("next_g = %d after one append, want %d", s.Marks().NextG, tc.nextG+1)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenSet(root, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			tail2, err := again.Recover(tc.marks, tc.churn)
			if err != nil {
				t.Fatal(err)
			}
			if len(tail2) != len(tail)+1 || tail2[len(tail2)-1].Arrival.ID != 99 {
				t.Fatalf("second recovery replays %d records, want the first recovery's %d and the append", len(tail2), len(tail))
			}
		})
	}
}

// TestSetRefusesOtherLayout pins the layout guards and their wording:
// a directory is never reopened under a shard count that did not write
// it, in either direction.
func TestSetRefusesOtherLayout(t *testing.T) {
	populate := func(t *testing.T, shards int) string {
		root := t.TempDir()
		s, err := OpenSet(root, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(Marks{}, make([][]grid.ChurnEvent, shards)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(0, arrivalRec(0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteSnapshot([]byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return root
	}
	const refusing = "(refusing to restore state across a config change)"
	for _, tc := range []struct {
		name          string
		wrote, config int
		prune         string // glob removed before the reopen, to reach the later guards
		want          string
	}{
		{"nested under flat", 3, 1, "", "wal directory was written under shards=3, config has 1 " + refusing},
		{"nested under flat, shard dirs gone", 3, 1, "shard-*", "wal directory was written by a sharded daemon, config has shards=1 " + refusing},
		{"flat under nested", 1, 3, "", "wal directory holds a single-engine log, config has shards=3 " + refusing},
		{"flat under nested, segments gone", 1, 3, "wal-*.log", "wal directory holds a single-engine snapshot, config has shards=3 " + refusing},
		{"wrong shard count", 3, 2, "", "wal directory was written under shards=3, config has 2 " + refusing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := populate(t, tc.wrote)
			if tc.prune != "" {
				doomed, _ := filepath.Glob(filepath.Join(root, tc.prune))
				for _, p := range doomed {
					if err := os.RemoveAll(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := listTree(t, root)
			s, err := OpenSet(root, tc.config)
			if err == nil {
				s.Close()
				t.Fatalf("a shards=%d directory opened under shards=%d", tc.wrote, tc.config)
			}
			if err.Error() != tc.want {
				t.Fatalf("refusal reads\n  %s\nwant\n  %s", err, tc.want)
			}
			if after := listTree(t, root); !reflect.DeepEqual(before, after) {
				t.Fatalf("the refused open changed the directory: %v -> %v", before, after)
			}
			// The count that wrote it still opens it.
			s, err = OpenSet(root, tc.wrote)
			if tc.prune == "" && err != nil {
				t.Fatalf("reopening under the original shards=%d: %v", tc.wrote, err)
			}
			if err == nil {
				s.Close()
			}
		})
	}
}

// listTree names every file and directory under root.
func listTree(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, fmt.Sprintf("%s %d", strings.TrimPrefix(path, root), info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSetSnapshotFormats pins what WriteSnapshot and Marks leave to
// each layout: a flat set writes no shard watermarks and no next_g; in
// both layouts only the control directory gets a snapshot file, named
// by the set's position (the one log's sequence number when flat, the
// global sequence counter when nested), and no shard directory gets a
// marker.
func TestSetSnapshotFormats(t *testing.T) {
	for _, shards := range []int{1, 3} {
		root := t.TempDir()
		s, err := OpenSet(root, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(Marks{}, make([][]grid.ChurnEvent, shards)); err != nil {
			t.Fatal(err)
		}
		for i, log := range []int{Control, 0, shards - 1, shards - 1} {
			if err := s.Append(log, testRecord(3*i)); err != nil { // arrivals
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		m := s.Marks()
		want := Marks{Seq: 1, ShardSeqs: []uint64{1, 0, 2}, NextG: 4}
		if shards == 1 {
			want = Marks{Seq: 4}
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("shards=%d: Marks() = %+v, want %+v", shards, m, want)
		}
		if s.Uncovered() != 4 {
			t.Fatalf("shards=%d: Uncovered() = %d before the snapshot, want 4", shards, s.Uncovered())
		}
		pos, err := s.WriteSnapshot([]byte(`{"state":true}`))
		if err != nil {
			t.Fatal(err)
		}
		if s.Uncovered() != 0 {
			t.Fatalf("shards=%d: Uncovered() = %d after the snapshot, want 0", shards, s.Uncovered())
		}
		refs, err := s.Control().Snapshots()
		if err != nil || len(refs) != 1 || refs[0].Seq != 4 || pos != 4 {
			t.Fatalf("shards=%d: control snapshots %+v, %v; WriteSnapshot named position %d, want 4", shards, refs, err, pos)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if snaps, _ := filepath.Glob(filepath.Join(root, "shard-*", "snap-*.json")); len(snaps) != 0 {
			t.Fatalf("shards=%d: shard directories hold snapshot files: %v", shards, snaps)
		}
	}
}

// TestSetSnapshotSyncs pins what one snapshot costs in fsyncs, in the
// order the daemon writes it: the journal file and the control
// directory, the snapshot file, one sync per directory after the
// rotation and one after GC — 2N+5 for N shard logs nested, 5 flat —
// and that GC then leaves what the oldest kept snapshot needs.
func TestSetSnapshotSyncs(t *testing.T) {
	for _, shards := range []int{1, 3} {
		root := t.TempDir()
		s, err := OpenSet(root, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(Marks{}, make([][]grid.ChurnEvent, shards)); err != nil {
			t.Fatal(err)
		}
		var kept []Marks
		var names []uint64
		for round := 0; round < 3; round++ {
			for i := 0; i < 2*shards; i++ {
				if err := s.Append(i%shards, testRecord(10*round+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			file0, dir0 := s.Syncs()
			if err := s.Control().WriteJournal(int64(round), []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, s.Marks())
			pos, err := s.WriteSnapshot([]byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, pos)
			if round > 0 {
				if err := s.GC(names[round-1], kept[round-1], int64(round-1)); err != nil {
					t.Fatal(err)
				}
			}
			file1, dir1 := s.Syncs()
			if round > 0 {
				n := uint64(len(s.logs) - 1)
				if shards == 1 {
					n = 0
				}
				if file1-file0 != 2 || dir1-dir0 != 2*n+3 {
					t.Fatalf("shards=%d: a snapshot took %d file and %d directory fsyncs, want 2 and %d", shards, file1-file0, dir1-dir0, 2*n+3)
				}
			}
		}
		refs, _ := s.Control().Snapshots()
		journals, _ := s.Control().Journals()
		if len(refs) != 2 || refs[1].Seq != names[1] || len(journals) != 2 || journals[0].First != 1 {
			t.Fatalf("shards=%d: GC left snapshots %+v and journals %+v", shards, refs, journals)
		}
		for k, l := range s.logs {
			covered := kept[1].Seq
			if k > 0 {
				covered = kept[1].ShardSeqs[k-1]
			}
			if l.FirstSeq() != covered+1 {
				t.Fatalf("shards=%d: log %d starts at %d after GC, want %d", shards, k, l.FirstSeq(), covered+1)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sparseAppend writes the given LSNs into a fresh log under dir,
// payloads derived from the LSN, and closes it.
func sparseAppend(t *testing.T, dir string, opts Options, lsns ...uint64) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, lsn := range lsns {
		if err := l.AppendLSN(lsn, []byte(fmt.Sprintf("lsn-%d", lsn))); err != nil {
			t.Fatalf("append %d: %v", lsn, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseAppendScanRoundTrip checks that a sparse log accepts
// gapped LSNs, scans them back in order, rejects regressions, and
// resumes past the watermark after reopen.
func TestSparseAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sparseAppend(t, dir, Options{}, 3, 4, 9, 100, 101)

	var got []uint64
	report, err := Scan(dir, 0, func(lsn uint64, payload []byte) error {
		if want := fmt.Sprintf("lsn-%d", lsn); string(payload) != want {
			return fmt.Errorf("payload %q, want %q", payload, want)
		}
		got = append(got, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 5 || report.FirstLSN != 3 || report.LastLSN != 101 {
		t.Fatalf("report = %d records [%d..%d]", report.Records, report.FirstLSN, report.LastLSN)
	}
	if fmt.Sprint(got) != "[3 4 9 100 101]" {
		t.Fatalf("scanned %v", got)
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastLSN(); got != 101 {
		t.Fatalf("watermark after reopen = %d, want 101", got)
	}
	if err := l.AppendLSN(101, []byte("stale")); err == nil {
		t.Fatal("accepted an LSN at the watermark")
	}
	if err := l.AppendLSN(77, []byte("stale")); err == nil {
		t.Fatal("accepted an LSN below the watermark")
	}
	if err := l.AppendLSN(200, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

// TestSparseRotationNamesSegmentsByLSN forces rotations in a sparse
// log and checks each segment file is named by the (gapped) LSN of its
// first record.
func TestSparseRotationNamesSegmentsByLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, lsn := range []uint64{5, 17, 40, 41, 90} {
		if err := l.AppendLSN(lsn, []byte(strings.Repeat("x", 30))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := Scan(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Segments) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(report.Segments))
	}
	for _, seg := range report.Segments {
		want := segmentPath(dir, seg.FirstLSN)
		if seg.Path != want {
			t.Fatalf("segment %s not named by first LSN %d", seg.Path, seg.FirstLSN)
		}
	}
	if report.Records != 5 || report.LastLSN != 90 {
		t.Fatalf("report = %d records last %d", report.Records, report.LastLSN)
	}
}

// TestSparseOpenDropsDeadTailSegment simulates a crash that tore a
// fresh sparse segment down to zero records: reopen must delete the
// file (its name may pin an unreachable LSN) and defer segment
// creation to the next append.
func TestSparseOpenDropsDeadTailSegment(t *testing.T) {
	dir := t.TempDir()
	sparseAppend(t, dir, Options{}, 10, 20)
	// A follow-on segment whose only frame tore mid-write.
	frame := AppendFrame(nil, 99, []byte("torn"))
	if err := os.WriteFile(segmentPath(dir, 99), frame[:len(frame)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LastLSN(); got != 20 {
		t.Fatalf("watermark = %d, want 20", got)
	}
	if _, err := os.Stat(segmentPath(dir, 99)); !os.IsNotExist(err) {
		t.Fatal("dead tail segment survived reopen")
	}
	// The next append may legally carry an LSN below the dead
	// segment's name.
	if err := l.AppendLSN(42, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := Scan(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Records != 3 || report.LastLSN != 42 {
		t.Fatalf("report = %d records last %d", report.Records, report.LastLSN)
	}
}

// TestMergeShardsOrdersAndGaps merges three shard logs with
// interleaved gapped LSNs and checks global order, shard attribution,
// and per-shard watermarks.
func TestMergeShardsOrdersAndGaps(t *testing.T) {
	root := t.TempDir()
	sparseAppend(t, filepath.Join(root, ShardDirName(0)), Options{}, 1, 4, 7)
	sparseAppend(t, filepath.Join(root, ShardDirName(1)), Options{}, 2, 5, 9)
	sparseAppend(t, filepath.Join(root, ShardDirName(3)), Options{}, 3, 12)

	var order []string
	reports, err := MergeShards(root, 0, 0, func(shard int, lsn uint64, payload []byte) error {
		order = append(order, fmt.Sprintf("%d@%d", lsn, shard))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "1@0 2@1 3@3 4@0 5@1 7@0 9@1 12@3"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("merge order %q, want %q", got, want)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d shard reports", len(reports))
	}
	marks := map[int]uint64{}
	for _, r := range reports {
		marks[r.Shard] = r.Watermark()
	}
	if marks[0] != 7 || marks[1] != 9 || marks[3] != 12 {
		t.Fatalf("watermarks %v", marks)
	}

	// from filters the merged stream.
	var tail []string
	if _, err := MergeShards(root, 0, 6, func(shard int, lsn uint64, payload []byte) error {
		tail = append(tail, fmt.Sprintf("%d@%d", lsn, shard))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tail, " "); got != "7@0 9@1 12@3" {
		t.Fatalf("merge tail %q", got)
	}
}

// TestMergeShardsRejectsDuplicateLSN gives the same LSN to two shards:
// the merge must fail with ErrCorrupt naming both claimants.
func TestMergeShardsRejectsDuplicateLSN(t *testing.T) {
	root := t.TempDir()
	sparseAppend(t, filepath.Join(root, ShardDirName(0)), Options{}, 1, 5)
	sparseAppend(t, filepath.Join(root, ShardDirName(1)), Options{}, 2, 5)

	_, err := MergeShards(root, 0, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate LSN merge error = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "LSN 5") {
		t.Fatalf("error does not name the duplicate: %v", err)
	}
}

// TestMergeShardsTornSiblingIsolated tears one shard's tail and checks
// the merge still succeeds, confines the tear to that shard's report,
// and keeps the healthy siblings' records intact.
func TestMergeShardsTornSiblingIsolated(t *testing.T) {
	root := t.TempDir()
	sparseAppend(t, filepath.Join(root, ShardDirName(0)), Options{}, 1, 4)
	sparseAppend(t, filepath.Join(root, ShardDirName(1)), Options{}, 2, 6)
	// Tear shard 1's tail: chop the last two bytes of its segment.
	seg := segmentPath(filepath.Join(root, ShardDirName(1)), 2)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	var lsns []uint64
	reports, err := MergeShards(root, 0, 0, func(shard int, lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(lsns) != "[1 2 4]" {
		t.Fatalf("merged LSNs %v, want [1 2 4]", lsns)
	}
	for _, r := range reports {
		switch r.Shard {
		case 0:
			if r.Report.Torn {
				t.Fatal("healthy shard reported torn")
			}
		case 1:
			if !r.Report.Torn {
				t.Fatal("torn shard not reported torn")
			}
		}
	}
}

// TestListShardDirsIgnoresStrays checks layout detection: stray files
// and non-shard directories are invisible, and orderings come back by
// shard index.
func TestListShardDirsIgnoresStrays(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{ShardDirName(2), ShardDirName(0), "notashard", "shard-x"} {
		if err := os.MkdirAll(filepath.Join(root, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirs, err := ListShardDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 || dirs[0].Index != 0 || dirs[1].Index != 2 {
		t.Fatalf("dirs = %+v", dirs)
	}
	if !IsShardedDir(root) {
		t.Fatal("sharded root not detected")
	}
	if IsShardedDir(t.TempDir()) {
		t.Fatal("empty dir detected as sharded")
	}
}

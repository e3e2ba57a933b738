package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%04d", tag, i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := l.Replay(from, func(lsn uint64, payload []byte) error {
		out[lsn] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncGrouped, GroupEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, "rec")
	got := collect(t, l, 1)
	if len(got) != 10 || got[1] != "rec-0000" || got[10] != "rec-0009" {
		t.Fatalf("replay = %v", got)
	}
	if last := l.LastLSN(); last != 10 {
		t.Fatalf("LastLSN = %d, want 10", last)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the sequence.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	lsn, err := l2.Append([]byte("after-reopen"))
	if err != nil || lsn != 11 {
		t.Fatalf("append after reopen = %d, %v; want 11", lsn, err)
	}
}

func TestSegmentRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// ~60-byte frames, 256-byte segments: a handful of records per file.
	l, err := Open(dir, Options{SegmentSize: 256, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, "rotate")
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments, got %d", len(segs))
	}
	// All records survive rotation.
	if got := collect(t, l, 1); len(got) != 40 {
		t.Fatalf("replay across segments = %d records, want 40", len(got))
	}

	// Truncating before LSN 20 removes the wholly-covered prefix but
	// keeps every record >= 20 replayable.
	removed, err := l.TruncateBefore(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	got := collect(t, l, 20)
	for lsn := uint64(20); lsn <= 40; lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("record %d lost by truncation", lsn)
		}
	}
	// The active segment is never removed, even if fully covered.
	if _, err := l.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	if n := len(l.Segments()); n < 1 {
		t.Fatalf("active segment removed, %d left", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// LSNs remain dense across reopen of the truncated directory.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if last := l2.LastLSN(); last != 40 {
		t.Fatalf("LastLSN after truncate+reopen = %d, want 40", last)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "torn")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: append garbage that parses as a frame
	// header but ends mid-payload.
	segs, _ := listSegments(dir)
	path := segs[len(segs)-1].path
	full, _ := os.ReadFile(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, 6, []byte("this frame is cut short"))
	if _, err := f.Write(frame[:len(frame)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	rec := l2.Recovery()
	if !rec.Report.Torn || rec.TruncatedBytes == 0 {
		t.Fatalf("recovery = %+v, want torn tail truncated", rec)
	}
	if got := collect(t, l2, 1); len(got) != 5 {
		t.Fatalf("replay after truncation = %d records, want 5", len(got))
	}
	// The file is physically back to its last valid frame boundary.
	now, _ := os.ReadFile(path)
	if len(now) != len(full) {
		t.Fatalf("segment is %d bytes after truncation, want %d", len(now), len(full))
	}
	// And the log is appendable again at the right LSN.
	lsn, err := l2.Append([]byte("after-tear"))
	if err != nil || lsn != 6 {
		t.Fatalf("append after truncation = %d, %v; want 6", lsn, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptMiddleSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 256, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 40, "mid")
	if len(l.Segments()) < 3 {
		t.Fatalf("need >= 3 segments")
	}
	first := l.Segments()[0]
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit in a fully-synced early segment.
	data, _ := os.ReadFile(first)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt middle segment = %v, want ErrCorrupt", err)
	}
}

func TestCrashKeepLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	l, err := Open(dir, Options{
		Policy: SyncOff,
		Failpoint: func(st Stage) Crash {
			calls++
			if st == StageFramePayload && calls > 6 {
				return CrashKeep
			}
			return CrashNone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var appended int
	for i := 0; i < 100; i++ {
		if _, err := l.Append(bytes.Repeat([]byte{byte(i)}, 48)); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append died with %v, want ErrCrashed", err)
			}
			break
		}
		appended++
	}
	if appended == 0 || appended == 100 {
		t.Fatalf("crash never fired (appended %d)", appended)
	}
	// Everything after the crash fails fast.
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash append = %v", err)
	}
	_ = l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if !rec.Report.Torn {
		t.Fatalf("CrashKeep mid-payload left no torn tail: %+v", rec.Report)
	}
	if got := int(rec.Report.Records); got != appended {
		t.Fatalf("recovered %d records, %d were acknowledged", got, appended)
	}
}

func TestCrashDropLosesUnsyncedSuffixOnly(t *testing.T) {
	dir := t.TempDir()
	event := 0
	l, err := Open(dir, Options{
		Policy:     SyncGrouped,
		GroupEvery: 4,
		Failpoint: func(st Stage) Crash {
			if st == stageBeforeSync {
				event++
				if event == 3 { // let two groups commit, kill the third
					return CrashDrop
				}
			}
			return CrashNone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 100; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("drop-%02d", i))); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append died with %v", err)
			}
			break
		}
		appended++
	}
	if appended != 11 { // 8 synced + 3 buffered before the 12th triggers sync
		t.Fatalf("appended = %d, want 11", appended)
	}
	_ = l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovery()
	if rec.Report.Torn {
		t.Fatalf("CrashDrop left a torn tail: %+v", rec.Report)
	}
	// Exactly the two synced groups survive; the unsynced third is gone.
	if rec.Report.Records != 8 {
		t.Fatalf("recovered %d records, want the 8 synced ones", rec.Report.Records)
	}
}

func TestSyncEveryRecordSurvivesCrashDropComplete(t *testing.T) {
	dir := t.TempDir()
	event := 0
	l, err := Open(dir, Options{
		Policy: SyncEveryRecord,
		Failpoint: func(st Stage) Crash {
			if st == stageBeforeSync {
				event++
				if event == 6 {
					return CrashDrop
				}
			}
			return CrashNone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("every-%d", i))); err != nil {
			break
		}
		appended++
	}
	_ = l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Per-record fsync: every acknowledged append survives even a
	// drop-everything-unsynced crash.
	if got := l2.Recovery().Report.Records; got != appended {
		t.Fatalf("recovered %d, acknowledged %d", got, appended)
	}
}

func TestScanIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "ro")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := l.Segments()[0]
	if err := os.WriteFile(path, append(readAll(t, path), 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readAll(t, path)
	report, err := Scan(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Torn || report.Records != 3 {
		t.Fatalf("scan = %+v", report)
	}
	if !bytes.Equal(before, readAll(t, path)) {
		t.Fatal("Scan mutated the segment file")
	}
}

func TestAppendRejectsOversizedAndEmpty(t *testing.T) {
	l, err := Open(t.TempDir(), Options{MaxRecord: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(nil); !errors.Is(err, errBadFrame) {
		t.Errorf("empty append = %v", err)
	}
	if _, err := l.Append(bytes.Repeat([]byte{1}, 65)); !errors.Is(err, errFrameTooLarge) {
		t.Errorf("oversized append = %v", err)
	}
	if _, err := l.Append([]byte("fits")); err != nil {
		t.Errorf("valid append after rejects = %v", err)
	}
}

func TestClosedLogRefusesOperations(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, errClosed) {
		t.Errorf("append on closed = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func readAll(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSegmentNamesAreLexicallyOrdered(t *testing.T) {
	a := segmentPath("d", 9)
	b := segmentPath("d", 10)
	if !(filepath.Base(a) < filepath.Base(b)) {
		t.Fatalf("segment names not lexically ordered: %s vs %s", a, b)
	}
}

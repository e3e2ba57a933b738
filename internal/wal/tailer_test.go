package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func pollAll(t *testing.T, tr *Tailer) []uint64 {
	t.Helper()
	var got []uint64
	n, err := tr.Poll(func(lsn uint64, payload []byte) error {
		got = append(got, lsn)
		return nil
	})
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Poll reported %d deliveries, callback saw %d", n, len(got))
	}
	return got
}

// TestTailerFollowsLiveSparseLog drives a sparse log through appends,
// flushes and segment rotations while a Tailer follows: every poll sees
// exactly the records flushed since the previous one, in LSN order,
// across rotation boundaries.
func TestTailerFollowsLiveSparseLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tr := NewTailer(dir, 0, 0)
	if got := pollAll(t, tr); len(got) != 0 {
		t.Fatalf("poll of unborn log delivered %v", got)
	}

	payload := bytes.Repeat([]byte{0x5A}, 40)
	lsns := []uint64{2, 5, 6, 11, 12, 13, 20, 21, 30, 31, 32, 40}
	for i, lsn := range lsns {
		if err := l.AppendLSN(lsn, payload); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := pollAll(t, tr); fmt.Sprint(got) != fmt.Sprint(lsns[:5]) {
				t.Fatalf("mid-run poll = %v, want %v", got, lsns[:5])
			}
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, tr); fmt.Sprint(got) != fmt.Sprint(lsns[5:]) {
		t.Fatalf("second poll = %v, want %v", got, lsns[5:])
	}
	if got := pollAll(t, tr); len(got) != 0 {
		t.Fatalf("idle poll re-delivered %v", got)
	}
	if tr.LastLSN() != 40 {
		t.Fatalf("LastLSN = %d, want 40", tr.LastLSN())
	}

	// 40-byte payloads in a 128-byte segment must have rotated several
	// times; the tailer should have crossed every boundary.
	if segs := l.Segments(); len(segs) < 3 {
		t.Fatalf("expected ≥3 segments for the rotation coverage, got %d", len(segs))
	}
}

// TestTailerResumesFromWatermark proves a fresh Tailer started at a
// mid-log watermark delivers exactly the records past it — the replica
// restart path — even when the watermark lands mid-segment.
func TestTailerResumesFromWatermark(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128, Policy: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 40)
	lsns := []uint64{3, 4, 8, 9, 15, 16, 23, 24}
	for _, lsn := range lsns {
		if err := l.AppendLSN(lsn, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for _, from := range []uint64{0, 3, 9, 10, 24, 99} {
		var want []uint64
		for _, lsn := range lsns {
			if lsn > from {
				want = append(want, lsn)
			}
		}
		tr := NewTailer(dir, 0, from)
		if got := pollAll(t, tr); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("from=%d: delivered %v, want %v", from, got, want)
		}
	}
}

// TestTailerStopsAtLiveTailThenResumes plants a half-written frame at
// the end of the newest segment: Poll must deliver the complete frames,
// stop without error, and deliver the completed frame once the rest of
// its bytes land.
func TestTailerStopsAtLiveTailThenResumes(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "00000000000000000001.wal")
	var full []byte
	full = AppendFrame(full, 1, []byte("first"))
	full = AppendFrame(full, 2, []byte("second"))
	cut := len(full)
	full = AppendFrame(full, 3, []byte("third"))
	if err := os.WriteFile(seg, full[:cut+7], 0o644); err != nil {
		t.Fatal(err)
	}

	tr := NewTailer(dir, 0, 0)
	if got := pollAll(t, tr); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("poll over torn tail = %v, want [1 2]", got)
	}
	// The writer finishes the frame.
	if err := os.WriteFile(seg, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, tr); fmt.Sprint(got) != "[3]" {
		t.Fatalf("poll after completion = %v, want [3]", got)
	}
}

// TestTailerRejectsTornSealedSegment: a parse failure anywhere but the
// newest segment cannot be a live tail — rotation seals segments whole —
// so the Tailer must report ErrCorrupt rather than skip bytes.
func TestTailerRejectsTornSealedSegment(t *testing.T) {
	dir := t.TempDir()
	var first []byte
	first = AppendFrame(first, 1, []byte("first"))
	first = AppendFrame(first, 2, []byte("second"))
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000001.wal"), first[:len(first)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var second []byte
	second = AppendFrame(second, 3, []byte("third"))
	if err := os.WriteFile(filepath.Join(dir, "00000000000000000003.wal"), second, 0o644); err != nil {
		t.Fatal(err)
	}

	tr := NewTailer(dir, 0, 0)
	n, err := tr.Poll(func(lsn uint64, payload []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("poll over torn sealed segment = %v, want ErrCorrupt", err)
	}
	if n != 1 {
		t.Fatalf("delivered %d records before the corruption, want 1", n)
	}
}

// TestTailerRedeliversAfterCallbackError: a record whose callback failed
// counts as undelivered and leads the next poll.
func TestTailerRedeliversAfterCallbackError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, lsn := range []uint64{1, 2, 3} {
		if err := l.AppendLSN(lsn, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	tr := NewTailer(dir, 0, 0)
	boom := errors.New("apply failed")
	n, err := tr.Poll(func(lsn uint64, payload []byte) error {
		if lsn == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("poll with failing callback = (%d, %v), want (1, apply failed)", n, err)
	}
	if got := pollAll(t, tr); fmt.Sprint(got) != "[2 3]" {
		t.Fatalf("retry poll = %v, want [2 3]", got)
	}
}

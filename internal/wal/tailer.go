package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Tailer incrementally reads a live log directory — the reader half of
// primary→replica shipping. Unlike Scan, which reads a quiesced log once,
// a Tailer keeps its position (segment + byte offset + last LSN) across
// Poll calls and picks up whatever the writer has flushed since.
//
// The writer and the Tailer share nothing but the filesystem: the Tailer
// may run in another process. It only sees bytes the writer has pushed
// to the file — under SyncEveryRecord every acked append, under the
// buffered policies whatever Log.Flush (or a group sync) has pushed out.
// A partial frame at the end of the newest segment is the live tail, not
// corruption: Poll stops before it and the next Poll retries. A parse
// failure in any older segment is real corruption — segments are sealed
// whole at rotation — and is reported as ErrCorrupt.
//
// A Tailer is not safe for concurrent use.
type Tailer struct {
	dir       string
	maxRecord int

	last       uint64 // highest LSN handed to a Poll callback
	positioned bool
	segFirst   uint64 // naming LSN of the segment being read
	off        int64  // consumed bytes within that segment
}

// NewTailer tails dir, delivering records with LSN > from. Pass the
// replica's watermark as from to resume shipping; 0 tails from the
// start. maxRecord <= 0 selects defaultMaxRecord.
func NewTailer(dir string, maxRecord int, from uint64) *Tailer {
	if maxRecord <= 0 {
		maxRecord = defaultMaxRecord
	}
	return &Tailer{dir: dir, maxRecord: maxRecord, last: from}
}

// LastLSN reports the highest LSN delivered so far (or the starting
// watermark if nothing has been delivered yet).
func (t *Tailer) LastLSN() uint64 { return t.last }

// Poll reads everything newly visible and hands each record to fn in
// LSN order, returning how many records were delivered. The payload
// slice is only valid during the call. An empty or still-unborn
// directory is not an error — a log defers its first segment until the
// first append lands there. If fn fails, the record counts as
// undelivered and the same record leads the next Poll.
func (t *Tailer) Poll(fn func(lsn uint64, payload []byte) error) (int, error) {
	segs, err := listSegments(t.dir)
	if err != nil {
		return 0, err
	}
	if len(segs) == 0 {
		return 0, nil
	}
	if !t.positioned {
		// Records past the watermark can only live in the last segment
		// named <= last+1 or later ones; earlier segments are wholly
		// behind it. Already-shipped records inside the chosen segment
		// are skipped by LSN below.
		t.segFirst = segs[0].first
		for _, s := range segs[1:] {
			if s.first > t.last+1 {
				break
			}
			t.segFirst = s.first
		}
		t.off = 0
		t.positioned = true
	}
	delivered := 0
	for {
		idx := -1
		for i, s := range segs {
			if s.first == t.segFirst {
				idx = i
				break
			}
		}
		if idx < 0 {
			return delivered, fmt.Errorf("wal: tail %s: segment %s disappeared — truncated under the tailer",
				t.dir, filepath.Base(segmentPath(t.dir, t.segFirst)))
		}
		data, err := readSegmentFrom(segs[idx].path, t.off)
		if err != nil {
			return delivered, err
		}
		off := 0
		tail := false
		for off < len(data) {
			lsn, payload, frameLen, perr := ParseFrame(data[off:], t.maxRecord)
			if perr != nil {
				if idx == len(segs)-1 {
					// The writer is mid-append (or mid-flush) on the
					// newest segment; the frame completes later.
					tail = true
					break
				}
				return delivered, fmt.Errorf("%w: %s at offset %d: %v",
					ErrCorrupt, filepath.Base(segs[idx].path), t.off+int64(off), perr)
			}
			if lsn > t.last {
				if fn != nil {
					if ferr := fn(lsn, payload); ferr != nil {
						return delivered, ferr
					}
				}
				t.last = lsn
				delivered++
			}
			off += frameLen
		}
		t.off += int64(off)
		if tail || idx == len(segs)-1 {
			return delivered, nil
		}
		// This segment is sealed (a newer one exists) and fully
		// consumed: move on.
		t.segFirst = segs[idx+1].first
		t.off = 0
	}
}

func readSegmentFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: tail: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("wal: tail: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: tail: %w", err)
	}
	return data, nil
}

package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the frame parser. The
// contract under test: ParseFrame never panics, every failure is one of
// the typed errors, and any frame it does accept re-encodes to the
// exact bytes it consumed (no silent reinterpretation).
func FuzzFrameDecode(f *testing.F) {
	// Seed with the interesting shapes: valid frames, truncations at
	// every boundary, a bit flip, an oversized length, and zeroes.
	valid := AppendFrame(nil, 7, []byte("seed-payload"))
	f.Add(valid)
	f.Add(valid[:frameHeaderSize-1]) // short header
	f.Add(valid[:frameHeaderSize])   // header only
	f.Add(valid[:len(valid)-1])      // cut mid-payload
	flipped := append([]byte(nil), valid...)
	flipped[frameHeaderSize] ^= 0x01
	f.Add(flipped)
	huge := append([]byte(nil), valid...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	f.Add(huge)
	f.Add(make([]byte, 64))
	f.Add([]byte{})

	typed := []error{ErrShortFrame, errFrameTooLarge, errChecksum, errBadFrame}

	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, payload, frameLen, err := ParseFrame(data, defaultMaxRecord)
		if err != nil {
			ok := false
			for _, want := range typed {
				if errors.Is(err, want) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		if frameLen < frameHeaderSize || frameLen > len(data) {
			t.Fatalf("frameLen %d outside [%d, %d]", frameLen, frameHeaderSize, len(data))
		}
		// Accepted frames are exactly re-encodable: the CRC pins both
		// LSN and payload to the consumed bytes.
		if re := AppendFrame(nil, lsn, payload); !bytes.Equal(re, data[:frameLen]) {
			t.Fatalf("accepted frame does not re-encode to its input")
		}
	})
}

// FuzzScanDir feeds fuzzed bytes to a whole-directory scan as a lone
// segment file: Scan must classify any damage as a torn tail or a typed
// error, never panic, and never mutate the file.
func FuzzScanDir(f *testing.F) {
	good := AppendFrame(nil, 1, []byte("a"))
	good = AppendFrame(good, 2, []byte("bb"))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := writeSegment(dir, 1, data); err != nil {
			t.Skip()
		}
		report, err := Scan(dir, defaultMaxRecord, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan error not ErrCorrupt: %v", err)
			}
			return
		}
		if report.Records > 0 && report.FirstLSN != 1 {
			t.Fatalf("first LSN %d, want 1", report.FirstLSN)
		}
	})
}

func writeSegment(dir string, first uint64, data []byte) error {
	return os.WriteFile(segmentPath(dir, first), data, 0o644)
}

// FuzzMergeShards feeds fuzzed bytes to a two-shard merge, each blob a
// lone sparse segment. The contract: MergeShards never panics, every
// failure is ErrCorrupt, and any merged stream it does produce is
// strictly increasing in LSN with correct shard attribution.
func FuzzMergeShards(f *testing.F) {
	frames := func(lsns ...uint64) []byte {
		var out []byte
		for _, lsn := range lsns {
			out = AppendFrame(out, lsn, []byte{byte(lsn), 'p'})
		}
		return out
	}
	// Interleaved gapped shards; duplicate watermarks (LSN 3 in both);
	// one torn tail among healthy siblings; garbage.
	f.Add(frames(1, 3, 5), frames(2, 4))
	f.Add(frames(1, 3), frames(2, 3, 6))
	f.Add(frames(1, 4, 9), frames(2, 7)[:len(frames(2, 7))-3])
	f.Add(frames(2, 2), frames(5))
	f.Add([]byte("garbage"), frames(1))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, a []byte, b []byte) {
		root := t.TempDir()
		for i, blob := range [][]byte{a, b} {
			if len(blob) == 0 {
				continue
			}
			dir := segmentDirForBlob(t, root, i, blob)
			_ = dir
		}
		var prev uint64
		seen := false
		_, err := MergeShards(root, defaultMaxRecord, 0, func(shard int, lsn uint64, payload []byte) error {
			if shard != 0 && shard != 1 {
				t.Fatalf("merged record from unknown shard %d", shard)
			}
			if seen && lsn <= prev {
				t.Fatalf("merged stream not increasing: %d after %d", lsn, prev)
			}
			prev, seen = lsn, true
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("merge error not ErrCorrupt: %v", err)
		}
	})
}

// segmentDirForBlob writes blob as the lone segment of shard i, named
// by its first parseable frame's LSN (or 1 for unparseable prefixes)
// so name==first-frame holds whenever the blob is well-formed.
func segmentDirForBlob(t *testing.T, root string, i int, blob []byte) string {
	t.Helper()
	dir := filepath.Join(root, ShardDirName(i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Skip()
	}
	first := uint64(1)
	if lsn, _, _, err := ParseFrame(blob, defaultMaxRecord); err == nil {
		first = lsn
	}
	if first == 0 {
		first = 1
	}
	if err := writeSegment(dir, first, blob); err != nil {
		t.Skip()
	}
	return dir
}

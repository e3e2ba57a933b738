// Package wal implements a segmented append-only write-ahead log: the
// durability substrate under cloud.Durable. Records are length-prefixed
// CRC32C-protected frames carrying strictly increasing log sequence numbers
// (LSNs); segments rotate at a size threshold and recovery truncates a
// torn tail instead of failing. Fsync behaviour is configurable per log:
// per-record, grouped, or left to the OS entirely.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame layout (all integers little-endian):
//
//	[0:4)   payload length (uint32)
//	[4:8)   CRC32C over bytes [8 : 16+length) — the LSN and the payload
//	[8:16)  LSN (uint64)
//	[16:…)  payload
//
// The checksum covers the LSN so a frame copied to the wrong position
// (or recycled bytes from an earlier segment generation) cannot pass
// verification with a sequence number it was never written under.
const frameHeaderSize = 16

// defaultMaxRecord bounds a single record's payload. The bound is a
// parsing defence as much as a write-side check: a torn or bit-flipped
// length field must not make recovery attempt a multi-gigabyte read.
const defaultMaxRecord = 1 << 20

// Typed frame-parsing errors. Decoding never panics: every malformed
// input maps onto one of these.
var (
	// ErrShortFrame reports a buffer that ends mid-frame — the torn-tail
	// signature.
	ErrShortFrame = errors.New("wal: short frame")
	// errFrameTooLarge reports a length field exceeding the record bound.
	errFrameTooLarge = errors.New("wal: frame exceeds max record size")
	// errChecksum reports a CRC32C mismatch.
	errChecksum = errors.New("wal: frame checksum mismatch")
	// errBadFrame reports a structurally invalid frame (zero-length
	// payload — appends never write one, so zeroed disk regions cannot
	// parse as records).
	errBadFrame = errors.New("wal: invalid frame")
	// errBadLSN reports a sequence break: a CRC-valid frame whose LSN is
	// not the expected successor.
	errBadLSN = errors.New("wal: non-monotonic LSN")
	// ErrCorrupt reports damage outside the replaceable tail — a bad
	// frame in a fully synced region of the log.
	ErrCorrupt = errors.New("wal: corrupt segment")
)

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame encodes one record into dst and returns the extended
// slice. Exported because the frame geometry is shared with the binapi
// wire protocol: the wire reuses this exact layout with the LSN slot
// carrying a (stream ID, kind, flags) header word instead, so one
// encoder and one parser serve both the log and the connection.
func AppendFrame(dst []byte, lsn uint64, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(dst[off+8:], lsn)
	sum := crc32.Checksum(dst[off+8:], castagnoli)
	binary.LittleEndian.PutUint32(dst[off+4:], sum)
	return dst
}

// ParseFrame decodes the frame at the start of buf. It returns the
// frame's LSN, its payload (aliasing buf), and the total encoded frame
// length. maxRecord <= 0 selects defaultMaxRecord. Errors are always
// one of the typed vocabulary above; no input panics.
func ParseFrame(buf []byte, maxRecord int) (lsn uint64, payload []byte, frameLen int, err error) {
	if maxRecord <= 0 {
		maxRecord = defaultMaxRecord
	}
	if len(buf) < frameHeaderSize {
		return 0, nil, 0, ErrShortFrame
	}
	length := binary.LittleEndian.Uint32(buf)
	if length == 0 {
		return 0, nil, 0, errBadFrame
	}
	if length > uint32(maxRecord) {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", errFrameTooLarge, length)
	}
	total := frameHeaderSize + int(length)
	if len(buf) < total {
		return 0, nil, 0, ErrShortFrame
	}
	want := binary.LittleEndian.Uint32(buf[4:])
	if crc32.Checksum(buf[8:total], castagnoli) != want {
		return 0, nil, 0, errChecksum
	}
	lsn = binary.LittleEndian.Uint64(buf[8:])
	return lsn, buf[frameHeaderSize:total], total, nil
}

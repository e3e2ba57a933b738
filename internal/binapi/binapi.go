// Package binapi is the persistent-connection binary front end: one
// long-lived connection per device (or per aggregating hub) carrying
// many multiplexed request/response streams, replacing the
// JSON-body-per-request framing of httpapi with the compact
// binary record forms the WAL already uses (internal/wirecodec).
//
// The paper's three binding primitives are microseconds of logic; at
// fleet scale the hardware limit is framing, syscalls, and
// goroutine-per-connection overhead. binapi attacks all three:
//
//   - Frames reuse the WAL's exact geometry (internal/wal.ParseFrame /
//     AppendFrame: length u32, CRC32C u32, u64 word, payload) with the
//     LSN slot carrying a (stream ID, kind, flags) header word. Every
//     operation has its own frame kind, and a frame's payload is the
//     operation's wirecodec body — encoded by the same code that logs
//     it; for a logged operation the kind is the WAL record tag. The
//     per-operation fan-out is one table of rows (ops.go); only status,
//     the hot operation, is written out by hand.
//
//   - Streams: a uint32 stream ID pairs each response with its request,
//     so one connection carries many in-flight operations.
//
//   - Credit-based backpressure: the server advertises a window in its
//     hello frame; at most that many requests may be outstanding per
//     connection. The client blocks on a credit semaphore; a sender
//     that ignores the window gets `wire_backpressure` error frames for
//     the excess instead of ballooning server memory.
//
//   - One serving model: a connection is served by the goroutine that
//     already holds its bytes. It drains every complete frame,
//     dispatches synchronously (the handlers are sub-microsecond), and
//     flushes all of the connection's responses in one write — so a
//     pipelined burst costs one syscall per direction, not one per
//     message. In pipe mode (in-process duplex buffers, the 100k-
//     connection testbed) that goroutine is the client's writer, so a
//     pipe adds no goroutine at all. Socket mode has two readiness
//     sources: on Linux up to GOMAXPROCS raw-epoll poller goroutines
//     (edge-triggered EPOLLIN|EPOLLRDHUP over non-blocking fds), each
//     reading its sockets and serving them in place — one wake-up, one
//     read and one write per request, no allocation — so 100k real
//     sockets run on the pollers alone; elsewhere (or with
//     WithReadiness(ReadinessPump)) a pump goroutine per connection
//     blocks in Read with Go's netpoller as the readiness source and
//     serves what it read.
//
// The client implements transport.Cloud, so devices, apps, retry
// wrappers and the cluster Router run over it unchanged.
package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// errEpollUnsupported reports a raw-epoll request on a platform without
// epoll: a server asked for ReadinessEpoll off-Linux refuses its socket
// connections with it. Clients need no readiness source of their own.
var errEpollUnsupported = errors.New("binapi: epoll readiness source requires linux")

// Frame kinds: one per operation, the same value in the request and in
// its response. A logged operation's kind is its wirecodec record tag
// (the rows in ops.go name the tag itself), so a captured request payload
// is bit-identical to the body of the WAL record it produced; 0x03, the
// liveness record, is WAL-only and is never a kind, and 0x02, the
// retired status batch, is no kind either. A request's payload
// is the operation's wirecodec request body; a response's is its
// response body, or the one ack byte for an operation that returns only
// an error (TestKindsComplete holds the table to transport.Ops).
const (
	kindStatus      = wirecodec.TagStatus
	kindReadings    = 0x0f // the four reads are never logged: no tag
	kindShares      = 0x10
	kindDelegations = 0x11
	kindShadow      = 0x12
	kindError       = 0x20 // response only: wire code string + message string
	kindHello       = 0x30 // server → client greeting on stream 0
)

// Flag bits (low byte of the header word).
const (
	flagResponse = 0x01
)

// Header word packing: the u64 slot that carries the LSN in WAL frames
// carries (stream ID << 32 | kind << 8 | flags) on the wire.
func packHeader(stream uint32, kind, flags uint8) uint64 {
	return uint64(stream)<<32 | uint64(kind)<<8 | uint64(flags)
}

func unpackHeader(hdr uint64) (stream uint32, kind, flags uint8) {
	return uint32(hdr >> 32), uint8(hdr >> 8), uint8(hdr)
}

// helloMagic opens the hello payload: protocol name + version byte.
var helloMagic = [4]byte{'i', 'o', 't', 'b'}

// helloVersion names the frame-kind vocabulary. Version 1 carried the
// cold operations as a JSON envelope in one kind; a client of either
// version fails at the other's hello rather than on its first request.
const helloVersion = 2

// defaultWindow is the per-connection credit window: the number of
// requests that may be in flight on one connection before the sender
// must wait for responses. It bounds the server's per-connection buffer
// to window × frame size.
const defaultWindow = 64

// defaultMaxFrame bounds a single frame's payload unless overridden
// with withMaxFrame — the same default as the WAL record bound.
const defaultMaxFrame = 1 << 20

// maxWindow bounds configurable windows; stream slot indices must fit
// in the low 16 bits of the stream ID.
const maxWindow = 1 << 15

// Readiness selects the server's readiness source for socket
// connections: what tells the server that a connection has bytes to
// parse.
type Readiness int

const (
	// readinessAuto picks raw epoll on Linux and the netpoller pump
	// elsewhere. This is the default.
	readinessAuto Readiness = iota
	// ReadinessPump runs one pump goroutine per socket connection,
	// blocking in Read with the Go netpoller as the readiness source.
	// Portable; goroutine count is O(connections).
	ReadinessPump
	// ReadinessEpoll runs up to GOMAXPROCS raw-epoll poller goroutines
	// (edge-triggered EPOLLIN|EPOLLRDHUP), each reading and serving the
	// sockets assigned to it round-robin; socket mode then has a fixed
	// goroutine count. Linux only: requesting it elsewhere makes the
	// server reject socket connections.
	ReadinessEpoll
)

// String reports the readiness source name as used in benchmarks and
// experiment tables.
func (r Readiness) String() string {
	switch r {
	case ReadinessPump:
		return "pump"
	case ReadinessEpoll:
		return "epoll"
	default:
		return "auto"
	}
}

// options holds the knobs shared by Server and Client.
type options struct {
	window      int
	maxFrame    int
	readiness   Readiness
	idleTimeout time.Duration
}

func defaultOptions() options {
	return options{window: defaultWindow, maxFrame: defaultMaxFrame}
}

// Option configures a Server or Client.
type Option func(*options)

// WithWindow sets the per-connection credit window the server
// advertises (and enforces). Values are clamped to [1, maxWindow];
// non-positive keeps the default.
func WithWindow(n int) Option {
	return func(o *options) {
		if n > 0 {
			if n > maxWindow {
				n = maxWindow
			}
			o.window = n
		}
	}
}

// withMaxFrame sets the maximum accepted frame payload in bytes on
// either side. Non-positive values keep the default.
func withMaxFrame(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithReadiness selects the socket readiness source (see Readiness).
// Pipe connections are unaffected: they have no socket to poll, and the
// client goroutine that writes to one serves it.
func WithReadiness(r Readiness) Option {
	return func(o *options) { o.readiness = r }
}

// WithIdleTimeout makes the server drop a socket connection that
// delivers no inbound bytes for d: a stalled or half-open client holds
// a socket (and, on the pump path, a goroutine) forever otherwise, and
// a fleet of them is a resource-exhaustion attack no status-path
// defence sees. The epoll path arms a coarse per-poller deadline sweep
// (granularity ~d/4); the pump path uses read deadlines. Zero (the
// default) keeps connections indefinitely. Pipe connections are never
// swept. Server-side only; clients ignore it.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.idleTimeout = d
		}
	}
}

// encodeHello builds the server greeting payload.
func encodeHello(b *bytes.Buffer, window, maxFrame int) {
	b.Write(helloMagic[:])
	wirecodec.PutU8(b, helloVersion)
	wirecodec.PutUvarint(b, uint64(window))
	wirecodec.PutUvarint(b, uint64(maxFrame))
}

// decodeHello parses the server greeting payload.
func decodeHello(payload []byte) (window, maxFrame int, err error) {
	if len(payload) < len(helloMagic)+1 || !bytes.Equal(payload[:4], helloMagic[:]) {
		return 0, 0, fmt.Errorf("binapi: bad hello magic")
	}
	if payload[4] != helloVersion {
		return 0, 0, fmt.Errorf("binapi: unsupported protocol version %d", payload[4])
	}
	c := wirecodec.NewCursor(payload, 5)
	w := c.Uvarint()
	m := c.Uvarint()
	if !c.Done() || w == 0 || w > maxWindow || m == 0 || m > 1<<30 {
		return 0, 0, fmt.Errorf("binapi: malformed hello")
	}
	return int(w), int(m), nil
}

// appendFrame frames one payload for the wire.
func appendFrame(dst []byte, stream uint32, kind, flags uint8, payload []byte) []byte {
	return wal.AppendFrame(dst, packHeader(stream, kind, flags), payload)
}

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
//     per-operation fan-out is one table of rows (ops.go); only status
//     and status batch, the hot pair, are written out by hand.
//
//   - Streams: a uint32 stream ID pairs each response with its request,
//     so one connection carries many in-flight operations — the same
//     stitching the cluster Router does for split batches, pushed down
//     to the wire.
//
//   - Credit-based backpressure: the server advertises a window in its
//     hello frame; at most that many requests may be outstanding per
//     connection. The client blocks on a credit semaphore; a sender
//     that ignores the window gets `wire_backpressure` error frames for
//     the excess instead of ballooning server memory.
//
//   - Connection-striped event loop: N stripes each own a disjoint set
//     of connections. Whoever serves a connection drains every complete
//     frame, dispatches synchronously (the handlers are sub-microsecond),
//     and flushes all of the connection's responses in one write — so a
//     pipelined burst costs one syscall per direction, not one per
//     message. In pipe mode (in-process duplex buffers, the 100k-
//     connection testbed) the client's writer hands the bytes to the
//     stripe's ready queue and the stripe goroutine serves them: zero
//     goroutines per connection. Socket mode has two readiness sources:
//     on Linux a raw-epoll poller goroutine per stripe (edge-triggered
//     EPOLLIN|EPOLLRDHUP over non-blocking fds) reads its sockets and
//     serves them in place, with the same parser and dispatcher — one
//     wake-up, one read and one write per request, no allocation — so
//     100k real sockets run on stripes + pollers goroutines; elsewhere
//     (or with WithReadiness(ReadinessPump)) a minimal pump goroutine
//     per connection blocks in Read with Go's netpoller acting as the
//     readiness source and feeds the stripe's ready queue like a pipe.
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

// ErrEpollUnsupported reports a raw-epoll request on a platform without
// epoll (ReadinessEpoll off-Linux, or NewClientPoller there).
var ErrEpollUnsupported = errors.New("binapi: epoll readiness source requires linux")

// Frame kinds: one per operation, the same value in the request and in
// its response. A logged operation's kind is its wirecodec record tag
// (the rows in ops.go name the tag itself), so a captured request payload
// is bit-identical to the body of the WAL record it produced; 0x03, the
// liveness record, is WAL-only and is never a kind. A request's payload
// is the operation's wirecodec request body; a response's is its
// response body, or the one ack byte for an operation that returns only
// an error (TestKindsComplete holds the table to transport.Ops).
const (
	kindStatus      = wirecodec.TagStatus
	kindBatch       = wirecodec.TagBatch
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

// DefaultWindow is the per-connection credit window: the number of
// requests that may be in flight on one connection before the sender
// must wait for responses. It bounds the server's per-connection buffer
// to window × frame size.
const DefaultWindow = 64

// DefaultMaxFrame bounds a single frame's payload unless overridden
// with WithMaxFrame — the same default as the WAL record bound.
const DefaultMaxFrame = 1 << 20

// MaxWindow bounds configurable windows; stream slot indices must fit
// in the low 16 bits of the stream ID.
const MaxWindow = 1 << 15

// Readiness selects the server's readiness source for socket
// connections: what tells a stripe that a connection has bytes to
// parse.
type Readiness int

const (
	// ReadinessAuto picks raw epoll on Linux and the netpoller pump
	// elsewhere. This is the default.
	ReadinessAuto Readiness = iota
	// ReadinessPump runs one pump goroutine per socket connection,
	// blocking in Read with the Go netpoller as the readiness source.
	// Portable; goroutine count is O(connections).
	ReadinessPump
	// ReadinessEpoll runs one raw-epoll poller goroutine per stripe
	// (edge-triggered EPOLLIN|EPOLLRDHUP) that reads and serves its
	// sockets itself; socket mode then has a fixed goroutine count, as
	// pipe mode does. Linux only: requesting it elsewhere makes the
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
	stripes     int
	readiness   Readiness
	idleTimeout time.Duration
}

func defaultOptions() options {
	return options{window: DefaultWindow, maxFrame: DefaultMaxFrame}
}

// Option configures a Server or Client.
type Option func(*options)

// WithWindow sets the per-connection credit window the server
// advertises (and enforces). Values are clamped to [1, MaxWindow];
// non-positive keeps the default.
func WithWindow(n int) Option {
	return func(o *options) {
		if n > 0 {
			if n > MaxWindow {
				n = MaxWindow
			}
			o.window = n
		}
	}
}

// WithMaxFrame sets the maximum accepted frame payload in bytes on
// either side. Non-positive values keep the default.
func WithMaxFrame(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithStripes sets the server's stripe count (default GOMAXPROCS).
// Each stripe is one goroutine owning a disjoint set of connections.
func WithStripes(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.stripes = n
		}
	}
}

// WithReadiness selects the socket readiness source (see Readiness).
// Pipe connections are unaffected; they have no socket to poll.
func WithReadiness(r Readiness) Option {
	return func(o *options) { o.readiness = r }
}

// WithIdleTimeout makes the server drop a socket connection that
// delivers no inbound bytes for d: a stalled or half-open client holds
// a socket (and, on the pump path, a goroutine) forever otherwise, and
// a fleet of them is a resource-exhaustion attack no status-path
// defence sees. The epoll path arms a coarse per-stripe deadline sweep
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
	if !c.Done() || w == 0 || w > MaxWindow || m == 0 || m > 1<<30 {
		return 0, 0, fmt.Errorf("binapi: malformed hello")
	}
	return int(w), int(m), nil
}

// appendFrame frames one payload for the wire.
func appendFrame(dst []byte, stream uint32, kind, flags uint8, payload []byte) []byte {
	return wal.AppendFrame(dst, packHeader(stream, kind, flags), payload)
}

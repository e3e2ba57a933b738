package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// Client is the device/app side of a binapi connection: one persistent
// connection multiplexing many in-flight requests, implementing
// transport.Cloud so everything built against the in-process and HTTP
// transports runs over it unchanged.
//
// Stream IDs are generation-tagged slot indices (gen<<16 | idx): the
// slot table bounds in-flight calls to the server's advertised window,
// and the generation tag makes a late response to a recycled slot
// detectable instead of delivered to the wrong caller.
type Client struct {
	write   func([]byte) error
	closefn func()

	// maxFrame starts at the local option and adopts the server's hello
	// value — written once, before helloCh closes — and bounds frames in
	// both directions: what feed will parse and what roundTrip will send.
	maxFrame int

	helloCh   chan struct{}
	helloOnce sync.Once
	window    int

	credits  chan struct{}
	closedCh chan struct{}

	// wmu serializes writes so frames stay contiguous on the wire.
	wmu sync.Mutex

	// pmu guards the slot table and the closed/ferr pair. Response
	// delivery (body copy + done signal) happens under pmu so that a
	// sender aborting a call can tell "already signalled" from "never
	// will be" without racing.
	pmu    sync.Mutex
	slots  []slot
	free   []uint16
	closed bool
	ferr   error

	// fmu guards the inbound reassembly buffer; feed is called by one
	// goroutine at a time (the socket reader or the server stripe) but
	// the lock keeps misuse from corrupting framing state.
	fmu  sync.Mutex
	rbuf []byte

	dropped  atomic.Uint64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

type slot struct {
	gen  uint16
	call *call
}

// call is one in-flight request. Pooled: the done channel is reused
// across calls, and delivery discipline (exactly one signal per call,
// sent under pmu) keeps stale signals impossible. The reader copies a
// response's bytes into body and the caller decodes them on its own
// goroutine, through cur when the decoder is a row's func value.
type call struct {
	done chan struct{}
	kind uint8
	err  error
	body []byte
	cur  wirecodec.Cursor
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// maxPooledBody bounds the response buffer a pooled call keeps: a rare
// giant response must not pin its buffer for the process lifetime.
const maxPooledBody = 64 << 10

// encBuf pools the encode-side scratch: binary payload staging plus the
// framed bytes handed to write.
type encBuf struct {
	payload bytes.Buffer
	frame   []byte
}

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

// getEncBuf returns an empty pooled encode buffer; roundTrip returns it.
func getEncBuf() *encBuf {
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	return eb
}

var errClientClosed = errors.New("binapi: client closed")

var _ transport.Cloud = (*Client)(nil)

func newClient(o options) *Client {
	return &Client{
		maxFrame: o.maxFrame,
		helloCh:  make(chan struct{}),
		closedCh: make(chan struct{}),
	}
}

// Dial connects to a binapi server over TCP and waits for its hello.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("binapi: dial: %w", err)
	}
	c := newClient(o)
	c.write = func(b []byte) error {
		_, werr := nc.Write(b)
		return werr
	}
	c.closefn = func() { _ = nc.Close() }
	go func() {
		buf := getInBuf()
		buf = buf[:cap(buf)]
		defer putInBuf(buf[:0])
		for {
			n, rerr := nc.Read(buf)
			if n > 0 {
				if ferr := c.feed(buf[:n]); ferr != nil {
					return
				}
			}
			if rerr != nil {
				c.fail(fmt.Errorf("binapi: read: %w", rerr))
				return
			}
		}
	}()
	if err := c.awaitHello(nc); err != nil {
		return nil, err
	}
	return c, nil
}

// awaitHello blocks until the server's hello configures the client, the
// connection dies, or a timeout poisons it.
func (c *Client) awaitHello(nc net.Conn) error {
	select {
	case <-c.helloCh:
		return nil
	case <-c.closedCh:
		_ = nc.Close()
		return c.fatalErr()
	case <-time.After(10 * time.Second):
		_ = nc.Close()
		c.fail(errors.New("binapi: hello timeout"))
		return errors.New("binapi: timed out waiting for server hello")
	}
}

// Close tears the connection down; in-flight calls fail with a closed
// error.
func (c *Client) Close() error {
	c.fail(errClientClosed)
	if c.closefn != nil {
		c.closefn()
	}
	return nil
}

// Window reports the server-advertised credit window.
func (c *Client) Window() int { return c.window }

// BytesIn reports total wire bytes received.
func (c *Client) BytesIn() int64 { return c.bytesIn.Load() }

// BytesOut reports total wire bytes sent.
func (c *Client) BytesOut() int64 { return c.bytesOut.Load() }

// DroppedResponses reports frames that matched no in-flight stream
// (stale generation, unknown slot, or spurious kinds).
func (c *Client) DroppedResponses() uint64 { return c.dropped.Load() }

func (c *Client) fatalErr() error {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.ferr != nil {
		return c.ferr
	}
	return errClientClosed
}

// fail closes the client once: every in-flight call completes with err
// and closedCh unblocks credit waiters and the dialer.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return
	}
	c.closed = true
	c.ferr = err
	for i := range c.slots {
		s := &c.slots[i]
		if s.call != nil {
			s.call.err = err
			s.call.done <- struct{}{}
			s.call = nil
		}
	}
	c.pmu.Unlock()
	close(c.closedCh)
}

// feed consumes raw inbound bytes: every complete frame is routed to
// its stream, a trailing partial frame is buffered for the next feed.
// Returns a non-nil error only when the stream is poisoned (unframeable
// bytes) or the client is closed; the connection is failed either way.
func (c *Client) feed(b []byte) error {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	select {
	case <-c.closedCh:
		return errClientClosed
	default:
	}
	c.bytesIn.Add(int64(len(b)))
	data := b
	if len(c.rbuf) > 0 {
		c.rbuf = append(c.rbuf, b...)
		data = c.rbuf
	}
	off := 0
	for off < len(data) {
		hdr, payload, n, err := wal.ParseFrame(data[off:], c.maxFrame)
		if err != nil {
			if errors.Is(err, wal.ErrShortFrame) {
				break
			}
			ferr := fmt.Errorf("binapi: unframeable response bytes: %w", err)
			c.fail(ferr)
			return ferr
		}
		stream, kind, flags := unpackHeader(hdr)
		c.route(stream, kind, flags, payload)
		off += n
	}
	tail := data[off:]
	if len(c.rbuf) > 0 {
		n := copy(c.rbuf, tail)
		c.rbuf = c.rbuf[:n]
		if n == 0 && cap(c.rbuf) > 1<<22 {
			c.rbuf = nil
		}
	} else if len(tail) > 0 {
		c.rbuf = append(c.rbuf[:0], tail...)
	}
	return nil
}

// handleHello adopts the server's window and frame bound and releases
// the constructor.
func (c *Client) handleHello(payload []byte) {
	w, m, err := decodeHello(payload)
	if err != nil {
		c.fail(err)
		return
	}
	c.helloOnce.Do(func() {
		c.window = w
		c.maxFrame = m
		c.credits = make(chan struct{}, w)
		for i := 0; i < w; i++ {
			c.credits <- struct{}{}
		}
		c.pmu.Lock()
		c.slots = make([]slot, w)
		c.free = make([]uint16, w)
		for i := range c.free {
			c.free[i] = uint16(i)
		}
		c.pmu.Unlock()
		close(c.helloCh)
	})
}

// route delivers one frame to its in-flight call. The body copy and the
// done signal happen under pmu — see Client.pmu.
func (c *Client) route(stream uint32, kind, flags uint8, payload []byte) {
	if stream == 0 && kind == kindHello {
		c.handleHello(payload)
		return
	}
	if flags&flagResponse == 0 {
		c.dropped.Add(1)
		return
	}
	idx, gen := uint16(stream), uint16(stream>>16)
	c.pmu.Lock()
	var cl *call
	if int(idx) < len(c.slots) {
		s := &c.slots[idx]
		if s.gen == gen && s.call != nil {
			cl = s.call
			s.call = nil
		}
	}
	if cl == nil {
		c.pmu.Unlock()
		c.dropped.Add(1)
		return
	}
	switch kind {
	case kindError:
		cur := wirecodec.NewCursor(payload, 0)
		code := cur.Str()
		msg := cur.Str()
		switch sentinel, ok := protocol.FromWireCode(code); {
		case !cur.Done():
			cl.err = errors.New("binapi: malformed error frame")
		case ok:
			cl.err = fmt.Errorf("%s: %w", msg, sentinel)
		default:
			cl.err = fmt.Errorf("binapi: %s: %s", code, msg)
		}
	case cl.kind:
		cl.body = append(cl.body[:0], payload...)
	default:
		cl.err = fmt.Errorf("binapi: response kind 0x%02x for request kind 0x%02x", kind, cl.kind)
	}
	cl.done <- struct{}{}
	c.pmu.Unlock()
}

// begin takes a credit and a stream slot for one request.
func (c *Client) begin(kind uint8) (*call, uint32, error) {
	select {
	case <-c.credits:
	case <-c.closedCh:
		return nil, 0, c.fatalErr()
	}
	cl := callPool.Get().(*call)
	cl.kind = kind
	cl.err = nil
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		callPool.Put(cl)
		return nil, 0, c.fatalErr()
	}
	idx := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	s := &c.slots[idx]
	s.gen++
	s.call = cl
	id := uint32(s.gen)<<16 | uint32(idx)
	c.pmu.Unlock()
	return cl, id, nil
}

// finish returns the slot, credit and call after the caller has decoded
// the response body.
func (c *Client) finish(id uint32, cl *call) {
	c.pmu.Lock()
	if !c.closed {
		c.free = append(c.free, uint16(id))
	}
	c.pmu.Unlock()
	c.credits <- struct{}{}
	cl.err = nil
	cl.cur.Reset(nil)
	if cap(cl.body) > maxPooledBody {
		cl.body = nil
	}
	callPool.Put(cl)
}

// abort reclaims a call whose request never made it to the wire. If a
// concurrent fail already signalled it, the signal is consumed so the
// pooled call carries no stale token.
func (c *Client) abort(id uint32, cl *call) {
	idx, gen := uint16(id), uint16(id>>16)
	claimed := false
	c.pmu.Lock()
	if int(idx) < len(c.slots) {
		s := &c.slots[idx]
		if s.gen == gen && s.call == cl {
			s.call = nil
		} else {
			claimed = true
		}
	} else {
		claimed = true
	}
	c.pmu.Unlock()
	if claimed {
		<-cl.done
	}
	c.finish(id, cl)
}

// send writes one framed request.
func (c *Client) send(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	select {
	case <-c.closedCh:
		return c.fatalErr()
	default:
	}
	if err := c.write(frame); err != nil {
		ferr := fmt.Errorf("binapi: write: %w", err)
		c.fail(ferr)
		return ferr
	}
	c.bytesOut.Add(int64(len(frame)))
	return nil
}

// roundTrip sends the request body staged in eb as one frame of kind and
// waits for its response. On success the response body is in cl.body,
// for the caller to decode before it calls finish; on any error the call
// is already reclaimed. A body the server's advertised frame cap would
// refuse is refused here instead: sent, it would cost the connection —
// the server cannot resynchronise past a frame it will not buffer — and
// every other call in flight on it.
func (c *Client) roundTrip(kind uint8, eb *encBuf) (*call, uint32, error) {
	if n := eb.payload.Len(); n > c.maxFrame {
		encPool.Put(eb)
		return nil, 0, fmt.Errorf("binapi: %w: %d-byte request body, the server accepts %d", protocol.ErrPayloadTooLarge, n, c.maxFrame)
	}
	cl, id, err := c.begin(kind)
	if err == nil {
		eb.frame = appendFrame(eb.frame[:0], id, kind, 0, eb.payload.Bytes())
		if err = c.send(eb.frame); err != nil {
			c.abort(id, cl)
		}
	}
	encPool.Put(eb)
	if err != nil {
		return nil, 0, err
	}
	<-cl.done
	if err := cl.err; err != nil {
		c.finish(id, cl)
		return nil, 0, err
	}
	return cl, id, nil
}

// HandleStatus sends one status message. Hand-written, like the batch
// below and unlike the operations in ops.go: the status body encoder
// takes a pointer, and the hot path is kept free of func values.
func (c *Client) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	eb := getEncBuf()
	wirecodec.PutStatusBody(&eb.payload, &req)
	cl, id, err := c.roundTrip(kindStatus, eb)
	if err != nil {
		return protocol.StatusResponse{}, err
	}
	cur := wirecodec.NewCursor(cl.body, 0)
	resp := wirecodec.ReadStatusResponse(cur)
	if !cur.Done() {
		resp, err = protocol.StatusResponse{}, errors.New("binapi: malformed status response")
	}
	c.finish(id, cl)
	return resp, err
}

// HandleStatusBatch sends a status batch.
func (c *Client) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	eb := getEncBuf()
	wirecodec.PutBatchBody(&eb.payload, &req)
	cl, id, err := c.roundTrip(kindBatch, eb)
	if err != nil {
		return protocol.StatusBatchResponse{}, err
	}
	cur := wirecodec.NewCursor(cl.body, 0)
	resp := wirecodec.ReadStatusBatchResponse(cur)
	done := cur.Done()
	c.finish(id, cl)
	if !done {
		return protocol.StatusBatchResponse{}, errors.New("binapi: malformed batch response")
	}
	if len(resp.Results) != len(req.Items) {
		return resp, fmt.Errorf("%w: %d items, %d results", protocol.ErrBatchMismatch, len(req.Items), len(resp.Results))
	}
	return resp, nil
}

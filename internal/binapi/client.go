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
//
// A Client runs no goroutine of its own. A socket client's responses
// are read by the callers waiting for them (await), a pipe client's are
// fed by the goroutine that writes the request. So nothing reads an
// idle socket client's connection: it learns that the server closed it
// (an idle timeout, a restart) at its next call, which fails with the
// read or write error, as does every call after it.
type Client struct {
	write   func([]byte) error
	closefn func()

	// nc is a socket client's connection, read by whichever waiting
	// caller holds rtok, the one-slot read token; both are nil for a
	// pipe. The holder reads into small, or, after a read that filled
	// small, into a buffer borrowed from inBufPool for the turn.
	nc    net.Conn
	rtok  chan struct{}
	small [smallRead]byte
	full  bool

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
	// goroutine at a time (the read token's holder, or a pipe's writer)
	// but the lock keeps misuse from corrupting framing state.
	fmu  sync.Mutex
	rbuf []byte

	dropped  atomic.Uint64
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// spareCall and spareEnc keep one call and one encode buffer ahead of
	// callPool and encPool, which every GC empties (refilling them costs a
	// varying few allocations): one caller at a time never reaches them.
	spareCall atomic.Pointer[call]
	spareEnc  atomic.Pointer[encBuf]
}

type slot struct {
	gen  uint16
	call *call
}

// call is one in-flight request. Pooled: the done channel is reused
// across calls, and delivery discipline (exactly one signal per call,
// sent under pmu) keeps stale signals impossible. Whoever reads the
// response copies its bytes into body and the caller decodes them,
// through cur when the decoder is a row's func value.
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

// getEncBuf returns an empty encode buffer; roundTrip returns it.
func (c *Client) getEncBuf() *encBuf {
	eb := getSpare(&c.spareEnc, &encPool)
	eb.payload.Reset()
	return eb
}

// getSpare takes the client's spare from slot, else an object from pool;
// putSpare gives v back to whichever of the two has room.
func getSpare[T any](slot *atomic.Pointer[T], pool *sync.Pool) *T {
	if v := slot.Swap(nil); v != nil {
		return v
	}
	return pool.Get().(*T)
}

func putSpare[T any](slot *atomic.Pointer[T], pool *sync.Pool, v *T) {
	if !slot.CompareAndSwap(nil, v) {
		pool.Put(v)
	}
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

// helloTimeout bounds how long Dial waits for the server's hello.
const helloTimeout = 10 * time.Second

// Dial connects to a binapi server over TCP and reads its hello.
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
	c.nc = nc
	c.rtok = make(chan struct{}, 1)
	c.write = func(b []byte) error {
		_, werr := nc.Write(b)
		return werr
	}
	c.closefn = func() { _ = nc.Close() }
	// A TCP connection refuses a deadline only once closed, and then
	// the read below fails.
	_ = nc.SetReadDeadline(time.Now().Add(helloTimeout))
	for {
		select {
		case <-c.helloCh:
			_ = nc.SetReadDeadline(time.Time{})
			return c, nil
		case <-c.closedCh:
			_ = nc.Close()
			return nil, fmt.Errorf("binapi: waiting for server hello: %w", c.fatalErr())
		default:
		}
		c.readOnce()
	}
}

// smallRead sizes a socket client's own read buffer: a few responses'
// worth, so an idle connection pins 512 bytes, not a 32 KiB buffer.
const smallRead = 512

// readOnce reads the socket once and feeds what arrived to the calls it
// belongs to. A read that filled small says more may be queued, so the
// next one borrows a pooled buffer for its turn. (Borrowing for every
// read, held across the caller's park in Read, made the pool allocate
// afresh: bench's heartbeat went 0.0014 → 0.0017 allocations per op.)
// A read error fails the client, and with it every call in flight.
func (c *Client) readOnce() {
	buf := c.small[:]
	var bp *[]byte
	if c.full {
		bp = inBufPool.Get().(*[]byte)
		buf = (*bp)[:cap(*bp)]
	}
	n, err := c.nc.Read(buf)
	c.full = n == smallRead
	if n > 0 {
		_ = c.feed(buf[:n]) // an error there has failed the client
	}
	if bp != nil {
		inBufPool.Put(bp)
	}
	if err != nil {
		c.fail(fmt.Errorf("binapi: read: %w", err))
	}
}

// await blocks until cl is done. A pipe's responses are fed on the
// writing goroutine, so there is only the signal to wait for. On a
// socket the waiting callers take turns with the read token: the holder
// reads once for everyone, since feed signals each call a frame belongs
// to, and hands the token on, until its own call is done. A call done
// while its caller waited for the token is caught by the re-check.
func (c *Client) await(cl *call) {
	if c.rtok == nil {
		<-cl.done
		return
	}
	for {
		select {
		case <-cl.done:
			return
		case c.rtok <- struct{}{}:
		}
		select {
		case <-cl.done:
			<-c.rtok
			return
		default:
		}
		c.readOnce()
		<-c.rtok
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
	cl := getSpare(&c.spareCall, &callPool)
	cl.kind = kind
	cl.err = nil
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		putSpare(&c.spareCall, &callPool, cl)
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
	putSpare(&c.spareCall, &callPool, cl)
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
		putSpare(&c.spareEnc, &encPool, eb)
		return nil, 0, fmt.Errorf("binapi: %w: %d-byte request body, the server accepts %d", protocol.ErrPayloadTooLarge, n, c.maxFrame)
	}
	cl, id, err := c.begin(kind)
	if err == nil {
		eb.frame = appendFrame(eb.frame[:0], id, kind, 0, eb.payload.Bytes())
		if err = c.send(eb.frame); err != nil {
			c.abort(id, cl)
		}
	}
	putSpare(&c.spareEnc, &encPool, eb)
	if err != nil {
		return nil, 0, err
	}
	c.await(cl)
	if err := cl.err; err != nil {
		c.finish(id, cl)
		return nil, 0, err
	}
	return cl, id, nil
}

// HandleStatus sends one status message. Hand-written, unlike the
// operations in ops.go: the status body encoder takes a pointer, and the
// hot path is kept free of func values.
func (c *Client) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	eb := c.getEncBuf()
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

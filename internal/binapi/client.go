package binapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/iotbind/iotbind/internal/jsonpool"
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
	// JSONLane sends every operation without a binary kind through the
	// JSON envelope; the five binary methods below shadow it.
	transport.JSONLane

	write   func([]byte) error
	closefn func()

	// maxFrame starts at the local option and adopts the server's hello
	// value; only the feed goroutine touches it after construction.
	maxFrame int

	helloCh   chan struct{}
	helloOnce sync.Once
	window    int

	credits  chan struct{}
	closedCh chan struct{}

	// wmu serializes writes so frames stay contiguous on the wire.
	wmu sync.Mutex

	// pmu guards the slot table and the closed/ferr pair. Response
	// delivery (result copy + done signal) happens under pmu so that a
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
// sent under pmu) keeps stale signals impossible.
type call struct {
	done   chan struct{}
	kind   uint8
	err    error
	status protocol.StatusResponse
	batch  protocol.StatusBatchResponse
	deleg  protocol.DelegateResponse
	json   []byte
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// encBuf pools the encode-side scratch: binary payload staging plus the
// framed bytes handed to write.
type encBuf struct {
	payload bytes.Buffer
	frame   []byte
}

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

var errClientClosed = errors.New("binapi: client closed")

func newClient(o options) *Client {
	c := &Client{
		maxFrame: o.maxFrame,
		helloCh:  make(chan struct{}),
		closedCh: make(chan struct{}),
	}
	c.JSONLane = transport.NewJSONLane(jsonLane{c})
	return c
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

// route delivers one frame to its in-flight call. The result copy and
// the done signal happen under pmu — see Client.pmu.
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
	switch {
	case kind == kindError:
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
	case kind != cl.kind:
		cl.err = fmt.Errorf("binapi: response kind 0x%02x for request kind 0x%02x", kind, cl.kind)
	case kind == kindStatus:
		cur := wirecodec.NewCursor(payload, 0)
		cl.status = wirecodec.ReadStatusResponse(cur)
		if !cur.Done() {
			cl.err = errors.New("binapi: malformed status response")
		}
	case kind == kindBatch:
		cur := wirecodec.NewCursor(payload, 0)
		cl.batch = wirecodec.ReadStatusBatchResponse(cur)
		if !cur.Done() {
			cl.err = errors.New("binapi: malformed batch response")
		}
	case kind == kindDelegate:
		cur := wirecodec.NewCursor(payload, 0)
		cl.deleg = wirecodec.ReadDelegateResponse(cur)
		if !cur.Done() {
			cl.err = errors.New("binapi: malformed delegate response")
		}
	case kind == kindShare, kind == kindRevokeDelegation:
		// Success responses for these carry only the explicit ack byte
		// (the frame layout forbids empty payloads).
		if len(payload) != 1 || payload[0] != ackPayload[0] {
			cl.err = fmt.Errorf("binapi: malformed ack on response kind 0x%02x", kind)
		}
	case kind == kindJSON:
		cl.json = append([]byte(nil), payload...)
	default:
		cl.err = fmt.Errorf("binapi: unexpected response kind 0x%02x", kind)
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

// finish returns the slot, credit and call after the caller has copied
// the results out.
func (c *Client) finish(id uint32, cl *call) {
	c.pmu.Lock()
	if !c.closed {
		c.free = append(c.free, uint16(id))
	}
	c.pmu.Unlock()
	c.credits <- struct{}{}
	cl.status = protocol.StatusResponse{}
	cl.batch = protocol.StatusBatchResponse{}
	cl.deleg = protocol.DelegateResponse{}
	cl.json = nil
	cl.err = nil
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

// HandleStatus sends one status message in binary form.
func (c *Client) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	cl, id, err := c.begin(kindStatus)
	if err != nil {
		return protocol.StatusResponse{}, err
	}
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	wirecodec.PutStatusBody(&eb.payload, &req)
	eb.frame = appendFrame(eb.frame[:0], id, kindStatus, 0, eb.payload.Bytes())
	err = c.send(eb.frame)
	encPool.Put(eb)
	if err != nil {
		c.abort(id, cl)
		return protocol.StatusResponse{}, err
	}
	<-cl.done
	resp, rerr := cl.status, cl.err
	c.finish(id, cl)
	return resp, rerr
}

// HandleStatusBatch sends a status batch in binary form.
func (c *Client) HandleStatusBatch(req protocol.StatusBatchRequest) (protocol.StatusBatchResponse, error) {
	cl, id, err := c.begin(kindBatch)
	if err != nil {
		return protocol.StatusBatchResponse{}, err
	}
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	wirecodec.PutBatchBody(&eb.payload, &req)
	eb.frame = appendFrame(eb.frame[:0], id, kindBatch, 0, eb.payload.Bytes())
	err = c.send(eb.frame)
	encPool.Put(eb)
	if err != nil {
		c.abort(id, cl)
		return protocol.StatusBatchResponse{}, err
	}
	<-cl.done
	resp, rerr := cl.batch, cl.err
	c.finish(id, cl)
	if rerr != nil {
		return protocol.StatusBatchResponse{}, rerr
	}
	if len(resp.Results) != len(req.Items) {
		return resp, fmt.Errorf("%w: %d items, %d results", protocol.ErrBatchMismatch, len(req.Items), len(resp.Results))
	}
	return resp, nil
}

// jsonLane is the Client's JSON envelope round trip.
type jsonLane struct{ c *Client }

func (l jsonLane) RoundTrip(op transport.Op, payload, out any) error {
	c := l.c
	cl, id, err := c.begin(kindJSON)
	if err != nil {
		return err
	}
	buf := jsonpool.Get()
	if err = buf.Encode(jsonRequest{Op: op.String(), Payload: payload}); err == nil {
		eb := encPool.Get().(*encBuf)
		eb.frame = appendFrame(eb.frame[:0], id, kindJSON, 0, buf.Bytes())
		err = c.send(eb.frame)
		encPool.Put(eb)
	}
	buf.Put()
	if err != nil {
		c.abort(id, cl)
		return err
	}
	<-cl.done
	raw, rerr := cl.json, cl.err
	c.finish(id, cl)
	if rerr != nil {
		return rerr
	}
	var resp struct {
		OK      bool            `json:"ok"`
		Code    string          `json:"code"`
		Message string          `json:"message"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("binapi: malformed json response: %w", err)
	}
	if !resp.OK {
		if sentinel, ok := protocol.FromWireCode(resp.Code); ok {
			return fmt.Errorf("%s: %w", resp.Message, sentinel)
		}
		return fmt.Errorf("binapi: %s: %s", resp.Code, resp.Message)
	}
	if out != nil && len(resp.Payload) > 0 {
		if err := json.Unmarshal(resp.Payload, out); err != nil {
			return fmt.Errorf("binapi: malformed json payload: %w", err)
		}
	}
	return nil
}

// HandleShare sends a share grant/revoke in binary form.
func (c *Client) HandleShare(req protocol.ShareRequest) error {
	cl, id, err := c.begin(kindShare)
	if err != nil {
		return err
	}
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	wirecodec.PutShareBody(&eb.payload, &req)
	eb.frame = appendFrame(eb.frame[:0], id, kindShare, 0, eb.payload.Bytes())
	err = c.send(eb.frame)
	encPool.Put(eb)
	if err != nil {
		c.abort(id, cl)
		return err
	}
	<-cl.done
	rerr := cl.err
	c.finish(id, cl)
	return rerr
}

// HandleDelegate sends a delegation grant in binary form.
func (c *Client) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	cl, id, err := c.begin(kindDelegate)
	if err != nil {
		return protocol.DelegateResponse{}, err
	}
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	wirecodec.PutDelegateBody(&eb.payload, &req)
	eb.frame = appendFrame(eb.frame[:0], id, kindDelegate, 0, eb.payload.Bytes())
	err = c.send(eb.frame)
	encPool.Put(eb)
	if err != nil {
		c.abort(id, cl)
		return protocol.DelegateResponse{}, err
	}
	<-cl.done
	resp, rerr := cl.deleg, cl.err
	c.finish(id, cl)
	return resp, rerr
}

// HandleRevokeDelegation sends a delegation revocation in binary form.
func (c *Client) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	cl, id, err := c.begin(kindRevokeDelegation)
	if err != nil {
		return err
	}
	eb := encPool.Get().(*encBuf)
	eb.payload.Reset()
	wirecodec.PutRevokeDelegationBody(&eb.payload, &req)
	eb.frame = appendFrame(eb.frame[:0], id, kindRevokeDelegation, 0, eb.payload.Bytes())
	err = c.send(eb.frame)
	encPool.Put(eb)
	if err != nil {
		c.abort(id, cl)
		return err
	}
	<-cl.done
	rerr := cl.err
	c.finish(id, cl)
	return rerr
}

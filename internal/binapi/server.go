package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// Server serves a cloud over persistent binary connections. Connections
// are striped over a fixed set of event-loop goroutines — a stripe's own
// loop for pipe and pump connections, the stripe's epoll poller for
// epoll sockets; whichever serves a connection owns its decode state and
// response buffers, so the hot path runs without per-message goroutines
// or per-message locks.
type Server struct {
	cloud transport.Cloud
	opts  options

	stripes []*stripe
	next    atomic.Uint32

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool
	wg        sync.WaitGroup

	backpressured atomic.Uint64
	shortWrites   atomic.Uint64
	// goros counts the server's own goroutines — stripes, pollers, and
	// (on the pump path) one per socket connection. The epoll path's
	// whole point is that this stays at stripes + pollers however many
	// sockets are open.
	goros atomic.Int64
}

// NewServer wraps a cloud implementation and starts the stripe
// goroutines. Callers must Close the server to stop them.
func NewServer(cloud transport.Cloud, opts ...Option) *Server {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.stripes <= 0 {
		o.stripes = runtime.GOMAXPROCS(0)
	}
	if o.readiness == ReadinessAuto {
		if EpollSupported() {
			o.readiness = ReadinessEpoll
		} else {
			o.readiness = ReadinessPump
		}
	}
	s := &Server{
		cloud:     cloud,
		opts:      o,
		conns:     make(map[*conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
	s.stripes = make([]*stripe, o.stripes)
	for i := range s.stripes {
		st := &stripe{
			worker: worker{srv: s},
			wake:   make(chan struct{}, 1),
			quit:   make(chan struct{}),
		}
		s.stripes[i] = st
		s.wg.Add(1)
		s.goros.Add(1)
		go st.loop()
	}
	return s
}

// Backpressured reports how many request frames arrived past a
// connection's credit window and were answered with wire_backpressure
// instead of being dispatched.
func (s *Server) Backpressured() uint64 { return s.backpressured.Load() }

// Stripes reports the configured stripe count.
func (s *Server) Stripes() int { return len(s.stripes) }

// Readiness reports the effective socket readiness source (never
// ReadinessAuto).
func (s *Server) Readiness() Readiness { return s.opts.readiness }

// ShortWrites reports how many coalesced flushes hit a full socket
// buffer and parked their tail for EPOLLOUT (epoll mode only).
func (s *Server) ShortWrites() uint64 { return s.shortWrites.Load() }

// Goroutines reports the server's own live goroutine count: stripes,
// epoll pollers, and pump goroutines. With the epoll readiness source
// it is independent of the connection count.
func (s *Server) Goroutines() int { return int(s.goros.Load()) }

// Conns reports the number of live connections (all transports).
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// errServerClosed reports an operation on a closed server.
var errServerClosed = errors.New("binapi: server closed")

// addConn registers a connection, assigns it a stripe round-robin and
// gives it its view of the cloud.
func (s *Server) addConn(c *conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errServerClosed
	}
	c.st = s.stripes[int(s.next.Add(1))%len(s.stripes)]
	c.cloud = transport.StampSource(s.cloud, c.src)
	if c.in == nil {
		c.in = getInBuf()
	}
	s.conns[c] = struct{}{}
	return nil
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Serve accepts socket connections on l until Close. It blocks. Each
// accepted connection gets a hello frame and is served through the
// configured readiness source (startSocketConn), by the same parser and
// dispatcher as pipe connections. Serve always closes l: on a server that
// was closed first — `go srv.Serve(ln)` beside `defer srv.Close()` and an
// early return — nothing else ever would.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return errServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()

	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			_ = l.Close()
			return fmt.Errorf("binapi: accept: %w", err)
		}
		if err := s.startSocketConn(nc); err != nil {
			_ = nc.Close()
		}
	}
}

// startSocketConn wires one accepted socket into the stripe machinery
// through the configured readiness source: the per-stripe epoll poller
// on Linux, or a per-connection pump goroutine on the fallback path.
func (s *Server) startSocketConn(nc net.Conn) error {
	if s.opts.readiness == ReadinessEpoll {
		if sc, ok := nc.(syscall.Conn); ok {
			return s.startEpollConn(nc, sc)
		}
		// A listener handing out conns without raw fd access (test
		// doubles, exotic wrappers) falls back to the pump.
	}
	c := &conn{srv: s, src: remoteIP(nc), sock: nc}
	c.flush = func(b []byte) error {
		_, err := nc.Write(b)
		return err
	}
	if err := s.addConn(c); err != nil {
		return err
	}
	if err := c.flush(s.helloFrame()); err != nil {
		c.close(err)
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.close(errServerClosed)
		return errServerClosed
	}
	s.wg.Add(1)
	s.goros.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		defer s.goros.Add(-1)
		c.pump(nc)
	}()
	return nil
}

// ErrIdle closes a connection that delivered no bytes for the server's
// idle timeout.
var ErrIdle = errors.New("binapi: connection idle timeout")

// pump moves bytes from a socket into the stripe readiness queue. This
// is the per-connection goroutine of the fallback readiness source —
// it does no parsing or dispatch, it blocks in Read (parking on the
// netpoller) and hands buffers to the owning stripe. The read buffer
// is pooled across connection churn.
func (c *conn) pump(nc net.Conn) {
	idle := c.srv.opts.idleTimeout
	buf := getInBuf()
	buf = buf[:cap(buf)]
	defer putInBuf(buf[:0])
	for {
		if idle > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(idle))
		}
		n, err := nc.Read(buf)
		if n > 0 {
			if derr := c.deliver(buf[:n]); derr != nil {
				c.close(derr)
				return
			}
		}
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = ErrIdle
			}
			c.close(err)
			return
		}
	}
}

// helloFrame builds the greeting sent on every new connection.
func (s *Server) helloFrame() []byte {
	var payload bytes.Buffer
	encodeHello(&payload, s.opts.window, s.opts.maxFrame)
	return appendFrame(nil, 0, kindHello, flagResponse, payload.Bytes())
}

// Close stops accepting, closes every connection, and stops the
// stripes.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		_ = l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, c := range conns {
		c.close(errServerClosed)
	}
	for _, st := range s.stripes {
		close(st.quit)
		if st.pl != nil {
			st.pl.close()
		}
	}
	s.wg.Wait()
	return nil
}

// conn is the server side of one connection. Inbound bytes accumulate
// in a buffer guarded by inMu; all parsing, dispatch and response
// encoding happen on one goroutine — the stripe's loop, or for an epoll
// socket the stripe's poller — which is the only reader of the
// decode-state fields.
type conn struct {
	srv *Server
	st  *stripe
	src string
	// cloud is the server's cloud behind transport.StampSource(src): every
	// handler calls through it, so the source address of a network-facing
	// request is the connection's whatever the sender claimed, and no
	// per-kind code stamps anything.
	cloud transport.Cloud

	// flush writes one coalesced batch of response frames back to the
	// client: a socket write in socket mode, a direct feed into the
	// client's decoder in pipe mode.
	flush func([]byte) error
	// onClose, when set, tells the pipe client its server side died.
	onClose func(error)
	sock    net.Conn

	// Epoll-mode plumbing. rc gives raw fd access with the runtime's
	// fd refcounting, so a concurrent Close can never race a read or
	// write onto a recycled fd number; pl/pidx tie the conn to its
	// stripe poller's slot table.
	rc      syscall.RawConn
	pl      *epoller
	pidx    uint32
	lastAct atomic.Int64

	// wmu guards the short-write pending buffer, the EPOLLOUT arm state
	// and the raw-write state. Leaf lock: never held around parsing or
	// dispatch.
	wmu      sync.Mutex
	wbuf     []byte
	outArmed bool
	// writeFd is the callback handed to rc.Write, built once per
	// connection; it writes wsrc and reports through wn/werr, so a flush
	// allocates nothing.
	writeFd func(fd uintptr) bool
	wsrc    []byte
	wn      int
	werr    error

	inMu   sync.Mutex
	in     []byte
	queued bool
	closed bool
	// parsing marks a worker holding a snapshot of in outside inMu;
	// a close arriving mid-parse defers buffer recycling to the parser
	// (recycleIn) instead of racing it.
	parsing   bool
	recycleIn bool

	// Device-ID interning cache, worker-owned: a persistent connection
	// speaks for one device (or a stable hub set), so the previous
	// message's ID almost always matches and the per-message string
	// allocation disappears.
	devIDRaw []byte
	devID    string
}

// inBufPool recycles per-connection inbound buffers (and pump/client
// read buffers) across connection teardown and accept, so a
// connect/disconnect storm reuses warm buffers instead of regrowing
// them per connection.
var inBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 32*1024)
	return &b
}}

func getInBuf() []byte {
	return *inBufPool.Get().(*[]byte)
}

func putInBuf(b []byte) {
	// Buffers that ballooned (a client sending max-size frames) go to
	// the GC rather than pinning megabytes in the pool.
	if cap(b) == 0 || cap(b) > 1<<20 {
		return
	}
	b = b[:0]
	inBufPool.Put(&b)
}

// inboundCap bounds buffered inbound bytes per connection. A client
// honouring the credit window can never exceed window in-flight frames;
// a flood past the cap costs the sender its connection rather than
// server memory.
func (c *conn) inboundCap() int {
	return (c.srv.opts.window + 2) * (c.srv.opts.maxFrame + 64)
}

// appendInLocked appends inbound bytes under the inbound cap. Caller
// holds inMu.
func (c *conn) appendInLocked(b []byte) error {
	if c.closed {
		return errConnClosed
	}
	if len(c.in)+len(b) > c.inboundCap() {
		return fmt.Errorf("%w: inbound buffer over %d bytes", protocol.ErrBackpressure, c.inboundCap())
	}
	c.in = append(c.in, b...)
	return nil
}

// deliver appends inbound bytes and marks the connection ready on its
// stripe. Called from goroutines that do not serve connections — the
// pump (socket mode) or the client's writer (pipe mode); an epoll
// connection's bytes are read by the goroutine that serves them (see
// conn.onReadable) and never come through here.
func (c *conn) deliver(b []byte) error {
	c.inMu.Lock()
	if err := c.appendInLocked(b); err != nil {
		c.inMu.Unlock()
		return err
	}
	enqueue := !c.queued
	c.queued = true
	c.inMu.Unlock()
	if enqueue {
		c.st.enqueue(c)
	}
	return nil
}

var errConnClosed = errors.New("binapi: connection closed")

// close tears the connection down once; safe from any goroutine. The
// inbound buffer is recycled here unless a worker is mid-parse on a
// snapshot of it, in which case the worker recycles it when done.
func (c *conn) close(err error) {
	c.inMu.Lock()
	if c.closed {
		c.inMu.Unlock()
		return
	}
	c.closed = true
	if c.parsing {
		c.recycleIn = true
	} else if c.in != nil {
		putInBuf(c.in)
	}
	c.in = nil
	c.inMu.Unlock()
	if c.pl != nil {
		// Clear the poller slot before the fd closes: events already
		// pulled from the kernel then resolve to nothing instead of a
		// recycled slot.
		c.pl.remove(c.pidx, c)
	}
	c.wmu.Lock()
	putInBuf(c.wbuf)
	c.wbuf = nil
	c.wmu.Unlock()
	if c.sock != nil {
		_ = c.sock.Close()
	}
	if c.onClose != nil {
		c.onClose(err)
	}
	c.srv.dropConn(c)
}

// worker is what a goroutine that serves connections owns — a stripe's
// loop, or an epoll poller: out collects one connection's response
// frames for a single coalesced flush, scratch stages each payload, cur
// is the cursor a row's read func walks (ops.go). All are reused across
// every connection the goroutine serves.
type worker struct {
	srv     *Server
	out     []byte
	scratch bytes.Buffer
	cur     wirecodec.Cursor
}

// stripe is one event-loop goroutine serving the pipe and pump
// connections assigned to it, whose bytes arrive on foreign goroutines.
// The ready queue is double-buffered: producers append under mu, the
// loop swaps the whole batch out and services it lock-free.
type stripe struct {
	worker
	mu    sync.Mutex
	ready []*conn
	spare []*conn
	wake  chan struct{}
	quit  chan struct{}

	// pl is the stripe's raw-epoll poller, created lazily (under
	// Server.mu) by the first epoll-mode socket connection assigned
	// here. It serves those connections itself, with its own worker;
	// they never enter ready. Linux only; nil on the pump path and for
	// pipe-only servers.
	pl *epoller
}

func (st *stripe) enqueue(c *conn) {
	st.mu.Lock()
	st.ready = append(st.ready, c)
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

func (st *stripe) take() []*conn {
	st.mu.Lock()
	batch := st.ready
	st.ready = st.spare[:0]
	st.spare = batch
	st.mu.Unlock()
	return batch
}

func (st *stripe) loop() {
	defer st.srv.wg.Done()
	for {
		select {
		case <-st.wake:
		case <-st.quit:
			return
		}
		for {
			batch := st.take()
			if len(batch) == 0 {
				break
			}
			for _, c := range batch {
				st.service(c)
			}
		}
	}
}

// service drains one connection: snapshot the inbound buffer, process
// every complete frame, compact the unconsumed tail, and flush all
// responses in one write.
func (w *worker) service(c *conn) {
	c.inMu.Lock()
	if c.closed {
		c.inMu.Unlock()
		return
	}
	data := c.in
	c.queued = false
	c.parsing = true
	c.inMu.Unlock()

	consumed, fatal := w.process(c, data)

	c.inMu.Lock()
	c.parsing = false
	if !c.closed {
		// The readiness source may have appended while we parsed; the
		// consumed prefix is identical in either buffer, so shift the
		// tail down.
		n := copy(c.in, c.in[consumed:])
		c.in = c.in[:n]
	} else if c.recycleIn {
		// Closed mid-parse: the snapshot we hold is the only live
		// reference to the buffer, so it recycles here.
		c.recycleIn = false
		putInBuf(data)
	}
	c.inMu.Unlock()

	if len(w.out) > 0 {
		err := c.flush(w.out)
		w.out = w.out[:0]
		if cap(w.out) > 1<<22 {
			w.out = nil
		}
		if fatal == nil {
			fatal = err
		}
	}
	if fatal != nil {
		c.close(fatal)
	}
}

// process parses every complete frame in data, dispatching at most
// window requests (the credit rule) and answering the excess with
// wire_backpressure error frames. It returns the consumed byte count
// and a fatal error if the byte stream itself is unframeable.
func (w *worker) process(c *conn, data []byte) (consumed int, fatal error) {
	off := 0
	handled := 0
	for off < len(data) {
		hdr, payload, frameLen, err := wal.ParseFrame(data[off:], w.srv.opts.maxFrame)
		if err != nil {
			if errors.Is(err, wal.ErrShortFrame) {
				break
			}
			// Framing is stateful: a bad length or checksum poisons
			// everything after it, so the connection dies.
			return off, fmt.Errorf("binapi: unframeable inbound bytes: %w", err)
		}
		stream, kind, flags := unpackHeader(hdr)
		off += frameLen
		if flags&flagResponse != 0 {
			// Clients do not answer the server; ignore.
			continue
		}
		handled++
		if handled > w.srv.opts.window {
			w.srv.backpressured.Add(1)
			w.errorFrame(stream, protocol.ErrBackpressure,
				fmt.Sprintf("more than %d requests in flight", w.srv.opts.window))
			continue
		}
		w.dispatch(c, stream, kind, payload)
	}
	return off, nil
}

// errorFrame appends a kindError response: wire code string + message.
func (w *worker) errorFrame(stream uint32, err error, msg string) {
	code, ok := protocol.WireCode(err)
	if !ok {
		code = "internal"
	}
	w.scratch.Reset()
	wirecodec.PutStr(&w.scratch, code)
	wirecodec.PutStr(&w.scratch, msg)
	w.out = appendFrame(w.out, stream, kindError, flagResponse, w.scratch.Bytes())
}

// dispatch routes one request frame to its kind's handler, which
// appends the response frame.
func (w *worker) dispatch(c *conn, stream uint32, kind uint8, payload []byte) {
	if serve := kinds[kind].serve; serve != nil {
		serve(w, c, stream, payload)
		return
	}
	w.errorFrame(stream, protocol.ErrBadRequest, fmt.Sprintf("unknown frame kind 0x%02x", kind))
}

// serveStatus is the hot handler, written by hand: the device ID is read
// through the connection's interning cache and the sender's source
// address claim is skipped undecoded, so a bare heartbeat's decode
// allocates nothing.
func (w *worker) serveStatus(c *conn, stream uint32, payload []byte) {
	cur := wirecodec.NewCursor(payload, 0)
	var req protocol.StatusRequest
	readStatusInterned(cur, c, &req)
	if !cur.Done() {
		w.errorFrame(stream, protocol.ErrBadRequest, "malformed status body")
		return
	}
	resp, err := c.cloud.HandleStatus(req)
	if err != nil {
		w.errorFrame(stream, err, err.Error())
		return
	}
	w.scratch.Reset()
	wirecodec.PutStatusResponse(&w.scratch, &resp)
	w.out = appendFrame(w.out, stream, kindStatus, flagResponse, w.scratch.Bytes())
}

// serveBatch is serveStatus for a batch: every item through the same
// interning cache, the envelope's address claim skipped like an item's.
func (w *worker) serveBatch(c *conn, stream uint32, payload []byte) {
	cur := wirecodec.NewCursor(payload, 0)
	var req protocol.StatusBatchRequest
	cur.StrBytes()
	n := cur.Count(wirecodec.MinStatusSize)
	if cur.Err() == nil && n > 0 {
		req.Items = make([]protocol.StatusRequest, n)
		for i := range req.Items {
			readStatusInterned(cur, c, &req.Items[i])
		}
	}
	if !cur.Done() {
		w.errorFrame(stream, protocol.ErrBadRequest, "malformed status batch body")
		return
	}
	resp, err := c.cloud.HandleStatusBatch(req)
	if err != nil {
		w.errorFrame(stream, err, err.Error())
		return
	}
	w.scratch.Reset()
	wirecodec.PutStatusBatchResponse(&w.scratch, &resp)
	w.out = appendFrame(w.out, stream, kindBatch, flagResponse, w.scratch.Bytes())
}

// readStatusInterned decodes one status body with the connection's
// device-ID cache: when the raw ID bytes match the previous message's,
// the cached string is reused and the decode allocates nothing. The
// sender's source-address claim is dropped undecoded: conn.cloud stamps
// the connection's address.
func readStatusInterned(cur *wirecodec.Cursor, c *conn, req *protocol.StatusRequest) {
	req.Kind = protocol.StatusKind(cur.U8())
	raw := cur.StrBytes()
	if len(raw) > 0 && bytes.Equal(raw, c.devIDRaw) {
		req.DeviceID = c.devID
	} else if cur.Err() == nil {
		req.DeviceID = string(raw)
		c.devIDRaw = append(c.devIDRaw[:0], raw...)
		c.devID = req.DeviceID
	}
	wirecodec.ReadStatusRest(cur, req)
}

func remoteIP(conn net.Conn) string {
	host, _, err := net.SplitHostPort(conn.RemoteAddr().String())
	if err != nil {
		return conn.RemoteAddr().String()
	}
	return host
}

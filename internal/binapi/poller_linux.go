//go:build linux

// Raw-epoll readiness source: one poller goroutine per stripe replaces
// the per-connection pump, so socket mode runs with the same fixed
// goroutine count as pipe mode. The poller owns an edge-triggered epoll
// set (EPOLLIN|EPOLLRDHUP|EPOLLET) over the stripe's socket fds and
// serves them itself: on readiness it drains the socket into the
// connection's inbound buffer and runs, with a worker of its own, the
// same service → process → dispatch → flush a stripe runs for pipe and
// pump connections. The bytes never change goroutine, so a request
// costs the server one wake-up, one read and one write, and (every
// RawConn callback being built once) no allocation.
//
// fd lifecycle rules (the hard part the netpoller was hiding):
//
//   - Every raw read/write/epoll_ctl goes through syscall.RawConn, so
//     the runtime's fd refcounting serializes them against Close — a
//     concurrent teardown can never land a syscall on a recycled fd
//     number.
//   - epoll event data carries a slot index into the poller's handler
//     table, never the fd. A closing connection clears its slot before
//     the fd closes; events already pulled from the kernel then resolve
//     to nil (or to a new handler, for which a spurious wakeup is
//     harmless — every readiness callback tolerates having nothing to
//     do) instead of touching freed state.
//   - The epoll fd itself is only created, used and closed under the
//     poller mutex, so a late add/mod can fail cleanly but never
//     operate on a recycled descriptor.
package binapi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// EpollSupported reports whether the raw-epoll readiness source is
// available on this platform.
func EpollSupported() bool { return true }

// Epoll event bits, spelled locally: syscall.EPOLLET is a negative
// int32 constant and the Events field is a uint32.
const (
	epIN    = 0x001
	epOUT   = 0x004
	epERR   = 0x008
	epHUP   = 0x010
	epRDHUP = 0x2000
	epET    = uint32(1) << 31
)

// readBudget bounds how many bytes one readiness event drains from a
// single connection before the poller serves them, re-arms the edge and
// moves on, so one firehose connection cannot starve its siblings.
const readBudget = 1 << 20

// epollHandler is what a poller slot points at: a server conn or a
// ClientPoller's client. Callbacks run on the poller goroutine and
// must tolerate spurious invocation (see the lifecycle rules above).
type epollHandler interface {
	// onReadable gets the event's mask: readChunk needs its hang-up bits.
	onReadable(events uint32)
	onWritable()
	expire(cutoff int64)
}

// epoller is one epoll instance plus its goroutine.
type epoller struct {
	idle   time.Duration
	onExit func()

	mu     sync.Mutex
	epfd   int
	wakeR  int
	wakeW  int
	slots  []epollHandler
	free   []uint32
	closed bool

	// epf wraps epfd as a pollable os.File: an epoll fd is itself
	// pollable (readable when its set has ready events), so the poller
	// goroutine parks on the runtime's own netpoller between batches
	// instead of pinning an OS thread inside a blocking epoll_wait.
	// Wakeups then ride the scheduler's fast path — at GOMAXPROCS=1
	// the difference between a ready-queue handoff and a thread
	// handoff is most of the round-trip latency.
	epf      *os.File
	eprc     syscall.RawConn
	pollable bool

	// Everything below is touched by the poller goroutine only. The
	// callbacks handed to RawConn.Read are built once and report through
	// fields: a closure literal there escapes together with the results
	// it captures, three allocations a call.
	events  []syscall.EpollEvent
	waitFd  func(fd uintptr) bool
	nready  int
	waitErr error

	rbuf    []byte
	readFd  func(fd uintptr) bool
	nread   int
	readErr error

	sweepBuf []epollHandler

	// worker serves a Server's connections on this goroutine; a
	// ClientPoller's epoller has none.
	worker *worker
}

func newEpoller(idle time.Duration, onExit func()) (*epoller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("binapi: epoll_create1: %w", err)
	}
	var pipe [2]int
	if err := syscall.Pipe2(pipe[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		_ = syscall.Close(epfd)
		return nil, fmt.Errorf("binapi: wake pipe: %w", err)
	}
	ep := &epoller{
		idle:   idle,
		onExit: onExit,
		epfd:   epfd,
		wakeR:  pipe[0],
		wakeW:  pipe[1],
		events: make([]syscall.EpollEvent, 128),
		rbuf:   make([]byte, 64*1024),
	}
	ep.waitFd = ep.harvest
	ep.readFd = ep.readOnce
	// The wake pipe is level-triggered and tagged with slot -1.
	ev := syscall.EpollEvent{Events: epIN, Fd: -1}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, pipe[0], &ev); err != nil {
		_ = syscall.Close(epfd)
		_ = syscall.Close(pipe[0])
		_ = syscall.Close(pipe[1])
		return nil, fmt.Errorf("binapi: epoll_ctl wake: %w", err)
	}
	// Hand the epoll fd to os.NewFile non-blocking so it registers with
	// the runtime netpoller; epf now owns the fd. A deadline probe
	// detects the (theoretical) unregistered case, where loop falls
	// back to blocking epoll_wait.
	_ = syscall.SetNonblock(epfd, true)
	ep.epf = os.NewFile(uintptr(epfd), "binapi-epoll")
	if rc, rcErr := ep.epf.SyscallConn(); rcErr == nil {
		ep.eprc = rc
		ep.pollable = ep.epf.SetReadDeadline(time.Time{}) == nil
	}
	return ep, nil
}

var errPollerClosed = errors.New("binapi: poller closed")

// alloc reserves a handler slot. The caller records the index (the
// handler's callbacks may need it for re-arms) before register makes
// events possible.
func (ep *epoller) alloc(h epollHandler) (uint32, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return 0, errPollerClosed
	}
	if n := len(ep.free); n > 0 {
		idx := ep.free[n-1]
		ep.free = ep.free[:n-1]
		ep.slots[idx] = h
		return idx, nil
	}
	ep.slots = append(ep.slots, h)
	return uint32(len(ep.slots) - 1), nil
}

// register adds the fd to the epoll set, edge-triggered. Readiness
// that predates registration is delivered immediately.
func (ep *epoller) register(rc syscall.RawConn, idx uint32, events uint32) error {
	var ctlErr error
	cerr := rc.Control(func(fd uintptr) {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		if ep.closed {
			ctlErr = errPollerClosed
			return
		}
		ev := syscall.EpollEvent{Events: events, Fd: int32(idx)}
		ctlErr = syscall.EpollCtl(ep.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev)
	})
	if cerr != nil {
		return cerr
	}
	return ctlErr
}

// mod rewrites the fd's event mask (EPOLLOUT arm/disarm, edge re-arm).
func (ep *epoller) mod(rc syscall.RawConn, idx uint32, events uint32) error {
	var ctlErr error
	cerr := rc.Control(func(fd uintptr) {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		if ep.closed {
			ctlErr = errPollerClosed
			return
		}
		ev := syscall.EpollEvent{Events: events, Fd: int32(idx)}
		ctlErr = syscall.EpollCtl(ep.epfd, syscall.EPOLL_CTL_MOD, int(fd), &ev)
	})
	if cerr != nil {
		return cerr
	}
	return ctlErr
}

// remove clears a handler slot. The identity check makes a late
// double-remove (teardown racing Close) a no-op instead of freeing a
// slot that was already recycled to another handler. The fd itself is
// dropped from the epoll set by its own close.
func (ep *epoller) remove(idx uint32, h epollHandler) {
	ep.mu.Lock()
	if int(idx) < len(ep.slots) && ep.slots[idx] == h {
		ep.slots[idx] = nil
		ep.free = append(ep.free, idx)
	}
	ep.mu.Unlock()
}

// lookup resolves an event's slot to its live handler, or nil for a
// stale event.
func (ep *epoller) lookup(idx uint32) epollHandler {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if int(idx) < len(ep.slots) {
		return ep.slots[idx]
	}
	return nil
}

// close wakes the poller goroutine, which owns fd cleanup.
func (ep *epoller) close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.closed = true
	one := [1]byte{1}
	_, _ = syscall.Write(ep.wakeW, one[:])
}

func (ep *epoller) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// loop is the poller goroutine: wait, dispatch, sweep.
func (ep *epoller) loop() {
	defer ep.onExit()
	defer func() {
		ep.mu.Lock()
		ep.closed = true
		_ = ep.epf.Close() // owns epfd
		_ = syscall.Close(ep.wakeR)
		_ = syscall.Close(ep.wakeW)
		ep.mu.Unlock()
	}()

	var granule time.Duration
	var nextSweep time.Time
	if ep.idle > 0 {
		granule = ep.idle / 4
		if granule < 10*time.Millisecond {
			granule = 10 * time.Millisecond
		}
		if granule > time.Second {
			granule = time.Second
		}
		nextSweep = time.Now().Add(granule)
	}

	for {
		n, err := ep.wait(granule)
		if err != nil {
			return
		}
		if ep.isClosed() {
			return
		}
		for i := 0; i < n; i++ {
			ev := &ep.events[i]
			if ev.Fd < 0 {
				ep.drainWake()
				continue
			}
			h := ep.lookup(uint32(ev.Fd))
			if h == nil {
				continue // stale event for a closed connection
			}
			if ev.Events&epOUT != 0 {
				h.onWritable()
			}
			if ev.Events&(epIN|epRDHUP|epHUP|epERR) != 0 {
				h.onReadable(ev.Events)
			}
		}
		if ep.idle > 0 {
			if now := time.Now(); now.After(nextSweep) {
				ep.sweep(now.Add(-ep.idle).UnixNano())
				nextSweep = now.Add(ep.idle / 4)
			}
		}
	}
}

// wait returns the next batch of ready events. On the normal path it
// drains the epoll set non-blocking and, when empty, parks on the
// runtime netpoller until the epoll fd reports readable — so the wait
// costs a goroutine park, not an OS-thread block. granule bounds the
// park (via a read deadline) to keep the idle sweep's cadence; a
// deadline expiry returns (0, nil) like a timed-out epoll_wait.
func (ep *epoller) wait(granule time.Duration) (int, error) {
	if !ep.pollable {
		waitMs := -1
		if granule > 0 {
			waitMs = int(granule / time.Millisecond)
		}
		for {
			n, err := syscall.EpollWait(ep.epfd, ep.events, waitMs)
			if err == syscall.EINTR {
				continue
			}
			return n, err
		}
	}
	if granule > 0 {
		if err := ep.epf.SetReadDeadline(time.Now().Add(granule)); err != nil {
			return 0, err
		}
	}
	if rerr := ep.eprc.Read(ep.waitFd); rerr != nil {
		if errors.Is(rerr, os.ErrDeadlineExceeded) {
			return 0, nil // sweep tick
		}
		return 0, rerr
	}
	return ep.nready, ep.waitErr
}

// harvest is wait's RawConn callback: one non-blocking epoll_wait.
func (ep *epoller) harvest(fd uintptr) bool {
	for {
		n, err := syscall.EpollWait(int(fd), ep.events, 0)
		if err == syscall.EINTR {
			continue
		}
		ep.nready, ep.waitErr = n, err
		// Park (return false) only on an empty set: the next inner
		// event is then a fresh edge on the outer poll.
		return n > 0 || err != nil
	}
}

// readOnce is readChunk's RawConn callback: one non-blocking read.
func (ep *epoller) readOnce(fd uintptr) bool {
	for {
		n, err := syscall.Read(int(fd), ep.rbuf)
		if err == syscall.EINTR {
			continue
		}
		ep.nread, ep.readErr = n, err
		return true
	}
}

// readChunk reads rc once without blocking, for the handler whose
// readiness event carried events. b is what arrived, valid until the
// poller's next read; more reports whether the receive queue may hold
// more; err is io.EOF on an orderly close. The RawConn wrapper
// refcounts the fd against a concurrent Close.
//
// A read that returns less than was asked of a stream socket has
// emptied its receive queue, and the next arrival is a fresh edge
// (epoll(7), "Questions and answers" 9), so the read that would only
// confirm it with EAGAIN is not made — unless the event carried a
// hang-up or error bit: a FIN or reset that rode in with the data posts
// no further edge, and only reading on to EOF or the error finds it.
func (ep *epoller) readChunk(rc syscall.RawConn, events uint32) (b []byte, more bool, err error) {
	if cerr := rc.Read(ep.readFd); cerr != nil {
		return nil, false, cerr
	}
	n, rerr := ep.nread, ep.readErr
	switch {
	case rerr == syscall.EAGAIN:
		return nil, false, nil
	case rerr != nil:
		return nil, false, rerr
	case n == 0:
		return nil, false, io.EOF
	default:
		hungUp := events&(epRDHUP|epHUP|epERR) != 0
		return ep.rbuf[:n], n == len(ep.rbuf) || hungUp, nil
	}
}

func (ep *epoller) drainWake() {
	var b [64]byte
	for {
		n, err := syscall.Read(ep.wakeR, b[:])
		if err != nil || n < len(b) {
			return
		}
	}
}

// sweep offers every live handler the idle cutoff; handlers that were
// silent since then close themselves.
func (ep *epoller) sweep(cutoff int64) {
	ep.mu.Lock()
	hs := ep.sweepBuf[:0]
	for _, h := range ep.slots {
		if h != nil {
			hs = append(hs, h)
		}
	}
	ep.sweepBuf = hs
	ep.mu.Unlock()
	for _, h := range hs {
		h.expire(cutoff)
	}
	for i := range hs {
		hs[i] = nil
	}
}

// ---- server integration ----------------------------------------------------

// pollerFor lazily creates the stripe's poller. Creation is under
// Server.mu so Close, which forbids new pollers once closed, sees
// every poller it must stop.
func (s *Server) pollerFor(st *stripe) (*epoller, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServerClosed
	}
	if st.pl != nil {
		return st.pl, nil
	}
	pl, err := newEpoller(s.opts.idleTimeout, func() {
		s.goros.Add(-1)
		s.wg.Done()
	})
	if err != nil {
		return nil, err
	}
	pl.worker = s.newWorker()
	st.pl = pl
	s.wg.Add(1)
	s.goros.Add(1)
	go pl.loop()
	return pl, nil
}

// startEpollConn wires one accepted socket into its stripe's epoll
// poller: slot allocation, then the hello (nothing inbound is parsed
// before registration, so it is the first frame out), then epoll
// registration — readiness that arrived in between is delivered by the
// edge-triggered add. The poller and slot are assigned before the hello
// is flushed because a short write there already parks a tail and arms
// EPOLLOUT through them; that arm cannot reach an fd not yet in the
// set, so the registration mask carries it.
func (s *Server) startEpollConn(nc net.Conn, sc syscall.Conn) error {
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	c := &conn{srv: s, src: remoteIP(nc), sock: nc, rc: rc}
	c.flush = c.epollWrite
	c.writeFd = c.writeAll
	if err := s.addConn(c); err != nil {
		return err
	}
	pl, err := s.pollerFor(c.st)
	if err != nil {
		c.close(err)
		return err
	}
	if s.opts.idleTimeout > 0 {
		c.lastAct.Store(time.Now().UnixNano())
	}
	c.pl = pl
	if c.pidx, err = pl.alloc(c); err != nil {
		c.close(err) // no slot yet: remove's identity check makes that a no-op
		return err
	}
	if err := c.flush(s.helloFrame()); err != nil {
		c.close(err)
		return err
	}
	c.wmu.Lock()
	err = pl.register(rc, c.pidx, c.eventsLocked())
	c.wmu.Unlock()
	if err != nil {
		c.close(err)
		return err
	}
	return nil
}

// ---- conn raw I/O (poller side) --------------------------------------------

// rawWrite writes as much of b as the socket accepts without blocking.
// A nil error with n < len(b) means the socket buffer filled (EAGAIN).
// Caller holds wmu.
func (c *conn) rawWrite(b []byte) (int, error) {
	c.wsrc, c.wn, c.werr = b, 0, nil
	cerr := c.rc.Write(c.writeFd)
	c.wsrc = nil
	if cerr != nil {
		return c.wn, cerr
	}
	return c.wn, c.werr
}

// writeAll is rawWrite's RawConn callback (conn.writeFd).
func (c *conn) writeAll(fd uintptr) bool {
	for c.wn < len(c.wsrc) {
		m, e := syscall.Write(int(fd), c.wsrc[c.wn:])
		if m > 0 {
			c.wn += m
		}
		switch e {
		case nil, syscall.EINTR:
		case syscall.EAGAIN:
			return true
		default:
			c.werr = e
			return true
		}
	}
	return true
}

// onReadable serves the connection on the poller goroutine: drain the
// socket into the inbound buffer (until readChunk says the queue is
// empty), then parse, dispatch and flush on the spot. A connection that
// outruns its read budget yields after being served: re-arming the edge
// redelivers readiness for the bytes still queued, once the poller's
// other connections got a turn. Bytes that arrived ahead of a FIN or an
// error are served before the connection closes.
func (c *conn) onReadable(events uint32) {
	budget := readBudget
	var err error
	for more := true; more && budget > 0; {
		var b []byte
		if b, more, err = c.pl.readChunk(c.rc, events); len(b) > 0 {
			budget -= len(b)
			if aerr := c.absorb(b); aerr != nil {
				c.close(aerr)
				return
			}
		}
	}
	if budget < readBudget {
		c.pl.worker.service(c)
	}
	switch {
	case err != nil:
		c.close(err)
	case budget <= 0:
		c.rearmRead()
	}
}

// absorb appends bytes the poller read to the inbound buffer and
// stamps the idle clock.
func (c *conn) absorb(b []byte) error {
	if c.srv.opts.idleTimeout > 0 {
		c.lastAct.Store(time.Now().UnixNano())
	}
	c.inMu.Lock()
	err := c.appendInLocked(b)
	c.inMu.Unlock()
	return err
}

// eventsLocked is the connection's epoll mask: always the read edge,
// plus EPOLLOUT while a short-written tail is parked. Caller holds wmu.
func (c *conn) eventsLocked() uint32 {
	if c.outArmed {
		return epIN | epRDHUP | epET | epOUT
	}
	return epIN | epRDHUP | epET
}

// rearmRead re-triggers readiness after a budget yield, preserving the
// write arm.
func (c *conn) rearmRead() {
	c.wmu.Lock()
	err := c.pl.mod(c.rc, c.pidx, c.eventsLocked())
	c.wmu.Unlock()
	if err != nil {
		c.close(err)
	}
}

// outboundCap bounds response bytes parked for EPOLLOUT, mirroring the
// inbound cap: a client that stops reading costs itself its connection,
// not server memory.
func (c *conn) outboundCap() int { return c.inboundCap() }

// epollWrite is the epoll-mode flush: non-blocking write, with any
// short-written tail parked in wbuf under an EPOLLOUT arm. Ordering is
// strict — while a tail is parked, new responses append behind it.
func (c *conn) epollWrite(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.wbuf) > 0 {
		if len(c.wbuf)+len(b) > c.outboundCap() {
			return fmt.Errorf("%w: outbound buffer over %d bytes", errSlowReader, c.outboundCap())
		}
		c.wbuf = append(c.wbuf, b...)
		return nil
	}
	n, err := c.rawWrite(b)
	if err != nil {
		return err
	}
	if n < len(b) {
		c.srv.shortWrites.Add(1)
		tail := b[n:]
		if len(tail) > c.outboundCap() {
			return fmt.Errorf("%w: outbound buffer over %d bytes", errSlowReader, c.outboundCap())
		}
		if c.wbuf == nil {
			c.wbuf = getInBuf()
		}
		c.wbuf = append(c.wbuf[:0], tail...)
		c.setOutArmedLocked(true)
	}
	return nil
}

var errSlowReader = errors.New("binapi: client not reading responses")

// onWritable retries the parked tail when EPOLLOUT fires; once drained
// the arm comes off and flushes go direct again.
func (c *conn) onWritable() {
	c.wmu.Lock()
	if len(c.wbuf) == 0 {
		c.setOutArmedLocked(false)
		c.wmu.Unlock()
		return
	}
	n, err := c.rawWrite(c.wbuf)
	if n > 0 {
		rem := copy(c.wbuf, c.wbuf[n:])
		c.wbuf = c.wbuf[:rem]
	}
	if err == nil && len(c.wbuf) == 0 {
		c.setOutArmedLocked(false)
	}
	c.wmu.Unlock()
	if err != nil {
		c.close(err)
	}
}

// setOutArmedLocked arms or disarms EPOLLOUT. Caller holds wmu.
func (c *conn) setOutArmedLocked(on bool) {
	if c.outArmed == on {
		return
	}
	c.outArmed = on
	_ = c.pl.mod(c.rc, c.pidx, c.eventsLocked())
}

// expire implements the idle sweep: close if nothing arrived since the
// cutoff.
func (c *conn) expire(cutoff int64) {
	if la := c.lastAct.Load(); la != 0 && la < cutoff {
		c.close(ErrIdle)
	}
}

//go:build linux

package binapi

import (
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
)

// ClientPoller is a shared readiness source for many Clients: one
// epoll instance and one goroutine feed every connection dialed through
// it, so a load harness holding 100k real sockets spends zero reader
// goroutines per connection — the client-side mirror of the server's
// pollers. Writes still happen on the calling goroutine
// (blocking via the netpoller); only the read path is shared.
type ClientPoller struct {
	ep *epoller
	wg sync.WaitGroup
}

// NewClientPoller starts the shared poller. Callers must Close it after
// the last client dialed through it is done.
func NewClientPoller() (*ClientPoller, error) {
	p := &ClientPoller{}
	ep, err := newEpoller(0, p.wg.Done)
	if err != nil {
		return nil, err
	}
	p.ep = ep
	p.wg.Add(1)
	go ep.loop()
	return p, nil
}

// Close stops the poller goroutine. Clients dialed through the poller
// stop receiving responses; close them first.
func (p *ClientPoller) Close() error {
	p.ep.close()
	p.wg.Wait()
	return nil
}

// pollClient adapts one Client to an epoller slot.
type pollClient struct {
	c   *Client
	rc  syscall.RawConn
	ep  *epoller
	nc  net.Conn
	idx uint32
}

func (h *pollClient) onWritable()  {}
func (h *pollClient) expire(int64) {}

// onReadable drains the socket into the client's frame reassembly, on
// the poller goroutine, until readChunk says the queue is empty.
func (h *pollClient) onReadable(events uint32) {
	for more := true; more; {
		var b []byte
		var err error
		if b, more, err = h.ep.readChunk(h.rc, events); len(b) > 0 {
			if ferr := h.c.feed(b); ferr != nil {
				h.dead(ferr)
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				err = fmt.Errorf("binapi: read: %w", err)
			}
			h.dead(err)
			return
		}
	}
}

func (h *pollClient) dead(err error) {
	h.c.fail(err)
	h.ep.remove(h.idx, h)
	_ = h.nc.Close()
}

// Dial connects like binapi.Dial but registers the socket with the
// shared poller instead of spawning a reader goroutine.
func (p *ClientPoller) Dial(addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("binapi: dial: %w", err)
	}
	sc, ok := nc.(syscall.Conn)
	if !ok {
		_ = nc.Close()
		return nil, fmt.Errorf("binapi: dial: connection exposes no raw fd")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	c := newClient(o)
	c.write = func(b []byte) error {
		_, werr := nc.Write(b)
		return werr
	}
	h := &pollClient{c: c, rc: rc, ep: p.ep, nc: nc}
	idx, err := p.ep.alloc(h)
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	h.idx = idx
	c.closefn = func() {
		p.ep.remove(idx, h)
		_ = nc.Close()
	}
	if err := p.ep.register(rc, idx, epIN|epRDHUP|epET); err != nil {
		p.ep.remove(idx, h)
		_ = nc.Close()
		return nil, err
	}
	if err := c.awaitHello(nc); err != nil {
		p.ep.remove(idx, h)
		return nil, err
	}
	return c, nil
}

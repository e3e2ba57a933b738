package binapi

import "fmt"

// Pipe connects a client to the server through in-process buffers — no
// sockets, and no goroutine on either side. A client write is served on
// the writing goroutine (deliver): the server parses and dispatches it
// there and its coalesced flush feeds the client's decoder inline,
// completing the call before the write returns. A server therefore
// carries any number of pipe connections on no goroutines of its own,
// which is what lets the testbed hold 100k+ concurrent connections in
// one process.
//
// src is the source address the server stamps on this connection's
// network-facing requests, standing in for the peer address a socket
// would provide.
func (s *Server) Pipe(src string) (*Client, error) {
	c := newClient(s.opts)
	pc := &conn{srv: s, src: src}
	pc.flush = c.feed
	pc.onClose = func(err error) { c.fail(err) }
	if err := s.addConn(pc); err != nil {
		return nil, err
	}
	c.write = pc.deliver
	c.closefn = func() { pc.close(errClientClosed) }
	if err := c.feed(s.helloFrame()); err != nil {
		pc.close(err)
		return nil, err
	}
	select {
	case <-c.helloCh:
	default:
		pc.close(errConnClosed)
		return nil, fmt.Errorf("binapi: pipe hello not processed")
	}
	return c, nil
}

// deliver is a pipe's write: the client goroutine that holds the bytes
// serves them, with a worker borrowed for the call. Client.send
// serialises a client's writes, so one goroutine parses the connection
// at a time.
func (c *conn) deliver(b []byte) error {
	if err := c.absorb(b); err != nil {
		return err
	}
	w := c.srv.workers.Get().(*worker)
	w.service(c)
	c.srv.workers.Put(w)
	return nil
}

//go:build !linux

// Fallback readiness source for non-Linux platforms: socket mode keeps
// the per-connection pump goroutine with the Go netpoller as the
// readiness source. The stubs here exist so the portable code in
// server.go compiles unchanged; none of them can be reached when
// EpollSupported reports false, except startEpollConn, which rejects
// an explicit WithReadiness(ReadinessEpoll) request.
package binapi

import (
	"net"
	"syscall"
)

// EpollSupported reports whether the raw-epoll readiness source is
// available on this platform.
func EpollSupported() bool { return false }

// epoller is a stub so conn and Server compile; it is never
// instantiated off-Linux.
type epoller struct{}

func (ep *epoller) close()               {}
func (ep *epoller) remove(uint32, *conn) {}

func (s *Server) startEpollConn(nc net.Conn, sc syscall.Conn) error {
	return errEpollUnsupported
}

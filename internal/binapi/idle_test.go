package binapi

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
)

// readinessModes lists the socket readiness sources available on this
// platform, so idle-timeout behaviour is proven on both paths where
// both exist.
func readinessModes() []Readiness {
	modes := []Readiness{ReadinessPump}
	if EpollSupported() {
		modes = append(modes, ReadinessEpoll)
	}
	return modes
}

// startIdleServer starts a socket server with the given readiness
// source and idle timeout, and returns its address.
func startIdleServer(t *testing.T, mode Readiness, idle time.Duration) string {
	t.Helper()
	srv := NewServer(newLabService(t, 1), WithReadiness(mode), WithIdleTimeout(idle))
	t.Cleanup(func() { _ = srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String()
}

// TestIdleTimeoutDropsStalledClient: a client that reads the hello and
// then goes silent must be disconnected by the server within a few idle
// periods, on both readiness sources.
func TestIdleTimeoutDropsStalledClient(t *testing.T) {
	const idle = 150 * time.Millisecond
	for _, mode := range readinessModes() {
		t.Run(mode.String(), func(t *testing.T) {
			addr := startIdleServer(t, mode, idle)
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			// The deadline below is the failure detector, not the
			// expectation: a healthy server closes us long before it.
			_ = nc.SetReadDeadline(time.Now().Add(20 * idle))
			buf := make([]byte, 4096)
			if _, err := nc.Read(buf); err != nil {
				t.Fatalf("reading hello: %v", err)
			}
			start := time.Now()
			for {
				if _, err := nc.Read(buf); err != nil {
					if errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("server kept a stalled connection past %v (idle=%v)", 20*idle, idle)
					}
					break // server dropped us, as required
				}
			}
			if waited := time.Since(start); waited < idle/2 {
				t.Fatalf("connection dropped after %v, suspiciously before idle=%v", waited, idle)
			}
		})
	}
}

// TestIdleTimeoutSparesActiveClient: heartbeats spaced well under the
// idle timeout keep a connection alive across many idle periods.
func TestIdleTimeoutSparesActiveClient(t *testing.T) {
	const idle = 200 * time.Millisecond
	for _, mode := range readinessModes() {
		t.Run(mode.String(), func(t *testing.T) {
			addr := startIdleServer(t, mode, idle)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.HandleStatus(protocol.StatusRequest{
				Kind: protocol.StatusRegister, DeviceID: testDeviceID(0),
				Firmware: "1.0", Model: "binapi-lab",
			}); err != nil {
				t.Fatalf("register: %v", err)
			}
			// 5× the idle timeout of steady traffic, each gap ~idle/4.
			deadline := time.Now().Add(5 * idle)
			for time.Now().Before(deadline) {
				if _, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0),
				}); err != nil {
					t.Fatalf("heartbeat on active connection rejected: %v", err)
				}
				time.Sleep(idle / 4)
			}
		})
	}
}

package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	iotbind "github.com/iotbind/iotbind"
)

func TestRunRejectsUnknownVendorAndProto(t *testing.T) {
	if err := run("NO-SUCH-VENDOR", "127.0.0.1:0", 1, "http"); err == nil || !strings.Contains(err.Error(), "unknown vendor") {
		t.Errorf("unknown vendor = %v, want an error naming it", err)
	}
	// The retired line protocol is refused by name, before anything listens.
	if err := run("D-LINK", "127.0.0.1:0", 1, "tcp"); err == nil || !strings.Contains(err.Error(), `unknown proto "tcp"`) {
		t.Errorf("unknown proto = %v, want an error naming it", err)
	}
}

// TestHTTPRoundTrip drives the cloud the command builds through the
// handler it serves: create an account, log in, and inspect the shadow of
// one of the pre-registered devices.
func TestHTTPRoundTrip(t *testing.T) {
	_, cloud, devices, err := newCloud("D-LINK", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 2 {
		t.Fatalf("fleet = %d devices, want 2", len(devices))
	}
	srv := httptest.NewServer(iotbind.NewHTTPServer(cloud))
	defer srv.Close()
	client := iotbind.NewHTTPClient(srv.URL)

	if err := client.RegisterUser(iotbind.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatalf("register-user: %v", err)
	}
	login, err := client.Login(iotbind.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil || login.UserToken == "" {
		t.Fatalf("login = %+v, %v, want a user token", login, err)
	}
	shadow, err := client.ShadowState(iotbind.ShadowStateRequest{DeviceID: devices[0].ID})
	if err != nil {
		t.Fatalf("shadow of pre-registered device %s: %v", devices[0].ID, err)
	}
	if shadow.BoundUser != "" {
		t.Errorf("fresh device already bound to %q", shadow.BoundUser)
	}
}

// TestIdleClientDropped: each front end closes a connection that goes
// silent — the binary one after its hello, the HTTP one after a
// keep-alive request — once the idle timeout passes, rather than hold it
// until the client leaves.
func TestIdleClientDropped(t *testing.T) {
	_, cloud, _, err := newCloud("D-LINK", 1)
	if err != nil {
		t.Fatal(err)
	}
	const idle = 200 * time.Millisecond
	for _, proto := range []string{"bin", "http"} {
		t.Run(proto, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := frontEnd(proto, cloud, idle)
			go func() { _ = srv.Serve(l) }()
			defer srv.Close()

			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			if proto == "http" {
				if _, err := io.WriteString(conn, "GET /api/v1/status HTTP/1.1\r\nHost: bindcloud\r\n\r\n"); err != nil {
					t.Fatal(err)
				}
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Close {
					t.Fatalf("GET: status %d, close %v; want 405 on a kept-alive connection", resp.StatusCode, resp.Close)
				}
			}
			// Nothing more is sent: the server must hang up well before
			// the client's own deadline.
			start := time.Now()
			if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, r) // the binary hello, then the hang-up
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("an idle connection was still open after %v (idle timeout %v)", time.Since(start), idle)
			}
			if waited := time.Since(start); waited < idle/2 {
				t.Errorf("dropped after %v, before the idle timeout %v", waited, idle)
			}
		})
	}
}

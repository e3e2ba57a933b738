package httpapi

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// TestClientTimeoutAgainstStalledServer proves the default client cannot
// be parked forever by a hung cloud: the request fails with a typed
// transport error once the (shortened) timeout fires, and the goroutine
// the stalled request occupied is reclaimed.
func TestClientTimeoutAgainstStalledServer(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold every request open until the test ends
	}))
	defer stalled.Close()
	defer close(release)

	before := runtime.NumGoroutine()
	client := NewClient(stalled.URL)
	client.httpc.Timeout = 50 * time.Millisecond

	start := time.Now()
	_, err := client.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("request against stalled server succeeded")
	}
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("error = %v, want ErrUnavailable so retry layers classify it", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v; the timeout never fired", elapsed)
	}

	// The aborted request's goroutines must drain — a leak here would
	// accumulate one parked goroutine per stalled call.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after timeout-aborted request", before, runtime.NumGoroutine())
}

// TestClientDefaultTimeoutConfigured proves NewClient no longer inherits
// http.DefaultClient's unbounded behaviour.
func TestClientDefaultTimeoutConfigured(t *testing.T) {
	if got := NewClient("http://cloud.invalid").httpc.Timeout; got != defaultTimeout || got <= 0 {
		t.Fatalf("client timeout = %v, want the positive defaultTimeout %v", got, defaultTimeout)
	}
}

// TestOversizedBodyRoundTripsAsPayloadTooLarge proves the server answers
// an over-limit body with 413 and the distinct payload_too_large code, and
// the client surfaces it as protocol.ErrPayloadTooLarge — a final error
// retry layers refuse to redeliver.
func TestOversizedBodyRoundTripsAsPayloadTooLarge(t *testing.T) {
	srv, client := newHTTPCloud(t, laxDesign())

	huge := `{"user_id":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := http.Post(srv.URL+routes[transport.OpLogin], "application/json", bytes.NewReader([]byte(huge)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}

	// The typed client maps the wire code back to the sentinel...
	_, err = client.Login(protocol.LoginRequest{UserID: strings.Repeat("x", 1<<20), Password: "p"})
	if !errors.Is(err, protocol.ErrPayloadTooLarge) {
		t.Errorf("client error = %v, want ErrPayloadTooLarge", err)
	}
	// ...which the default retry classifier treats as final.
	if err != nil {
		if _, isWire := protocol.WireCode(err); !isWire {
			t.Error("payload_too_large lost its wire code on the way back")
		}
	}
}

package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// echoCloud answers a status with the device ID and firmware it was
// sent, so a caller can tell its own reply from anyone else's.
func echoCloud() statusCloud {
	return statusCloud{status: func(req protocol.StatusRequest) (protocol.StatusResponse, error) {
		return protocol.StatusResponse{SessionNonce: req.DeviceID + "/" + req.Firmware}, nil
	}}
}

// TestReadTokenPipelinedCallers: a full window of goroutines pipelines
// heartbeats over one Dial'd client, on both readiness sources. The
// callers take turns reading the socket for each other, and every one
// must get its own replies, in order, with nothing dropped.
func TestReadTokenPipelinedCallers(t *testing.T) {
	for _, mode := range readinessModes() {
		t.Run(mode.String(), func(t *testing.T) {
			_, addr := startSocketServer(t, echoCloud(), WithReadiness(mode))
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for g := 0; g < c.Window(); g++ {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					for n := 0; n < 50; n++ {
						fw := fmt.Sprint(n)
						resp, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, Firmware: fw})
						if err != nil {
							t.Errorf("%s heartbeat %d: %v", id, n, err)
							return
						}
						if want := id + "/" + fw; resp.SessionNonce != want {
							t.Errorf("%s heartbeat %d got the reply to %q", id, n, resp.SessionNonce)
							return
						}
					}
				}(testDeviceID(g))
			}
			wg.Wait()
			if d := c.DroppedResponses(); d != 0 {
				t.Fatalf("dropped responses = %d, want 0", d)
			}
		})
	}
}

// TestReadTokenCloseWakesParkedCallers: Client.Close while a full
// window of calls waits on the socket — one caller parked in the read,
// the rest waiting for the read token — returns every call, and the
// process's goroutine count comes back to where it started.
func TestReadTokenCloseWakesParkedCallers(t *testing.T) {
	for _, mode := range readinessModes() {
		t.Run(mode.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			const callers = defaultWindow
			gate := gatedCloud{Cloud: echoCloud(), entered: make(chan struct{}, callers), release: make(chan struct{})}
			srv, addr := startSocketServer(t, gate, WithReadiness(mode))
			release := sync.OnceFunc(func() { close(gate.release) })
			t.Cleanup(release) // before srv.Close: a parked poller holds Close up
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			wirecodec.PutStatusBody(&body, &protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0)})
			frameLen := int64(len(appendFrame(nil, 0, kindStatus, 0, body.Bytes())))
			sent := c.BytesOut()

			returned := make(chan error, callers)
			for g := 0; g < callers; g++ {
				go func(id string) {
					_, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id})
					returned <- err
				}(testDeviceID(g)) // every test ID has one length, so every frame is frameLen bytes
			}
			<-gate.entered // the server is parked inside the first call
			for deadline := time.Now().Add(10 * time.Second); c.BytesOut() < sent+callers*frameLen; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d requests written", (c.BytesOut()-sent)/frameLen, callers)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for g := 0; g < callers; g++ {
				select {
				case <-returned: // a response or an error: either is a return
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d calls still parked after Close", callers-g, callers)
				}
			}
			release()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the client", runtime.NumGoroutine(), base)
				}
			}
		})
	}
}

// TestIdleTimeoutFailsNextCall: nothing reads an idle client's socket,
// so a client the server dropped for silence learns of it at its next
// call — which fails instead of hanging — and every later call fails at
// once with the same error, writing nothing.
func TestIdleTimeoutFailsNextCall(t *testing.T) {
	const idle = 100 * time.Millisecond
	for _, mode := range readinessModes() {
		t.Run(mode.String(), func(t *testing.T) {
			srv, addr := startSocketServer(t, echoCloud(), WithReadiness(mode), WithIdleTimeout(idle))
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for deadline := time.Now().Add(40 * idle); srv.Conns() > 0; time.Sleep(idle / 10) {
				if time.Now().After(deadline) {
					t.Fatalf("server kept a silent connection past %v (idle=%v)", 40*idle, idle)
				}
			}
			beat := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: statusID}
			first := make(chan error, 1)
			go func() {
				_, err := c.HandleStatus(beat)
				first <- err
			}()
			var ferr error
			select {
			case ferr = <-first:
			case <-time.After(10 * time.Second):
				t.Fatal("the first call after the drop hangs")
			}
			if ferr == nil {
				t.Fatal("the first call after the drop succeeded")
			}
			out := c.BytesOut()
			if _, err := c.HandleStatus(beat); !errors.Is(err, ferr) {
				t.Fatalf("a later call = %v, want the first call's %v", err, ferr)
			}
			if c.BytesOut() != out {
				t.Fatal("a later call on the dead client wrote to the wire")
			}
		})
	}
}

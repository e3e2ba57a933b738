package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/httpapi"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// labDesign is token-free (device-ID auth, device-initiated ACL bind):
// no entropy is drawn and no random tokens appear in responses, which
// is what makes the binapi-vs-httpapi equivalence comparison exact.
func labDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                 "binapi-lab",
		DeviceAuth:           core.AuthDevID,
		Binding:              core.BindACLDevice,
		UnbindForms:          []core.UnbindForm{core.UnbindDevIDAlone},
		CheckBoundUserOnBind: true,
	}
}

func frozenClock() func() time.Time {
	at := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return at }
}

func testDeviceID(i int) string {
	return fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", (i>>16)&0xff, (i>>8)&0xff, i&0xff)
}

// newLabService builds a service with n registered devices.
func newLabService(t testing.TB, n int) *cloud.Service {
	t.Helper()
	registry := cloud.NewRegistry()
	for i := 0; i < n; i++ {
		id := testDeviceID(i)
		if err := registry.Add(cloud.DeviceRecord{
			ID: id, FactorySecret: "factory-secret-" + id, Model: "binapi-lab",
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic entropy: twin services driven through the same op
	// order mint identical tokens and nonces, keeping equivalence
	// snapshots byte-comparable.
	var ctr uint64
	read := func(b []byte) error {
		ctr++
		for i := range b {
			b[i] = byte(ctr >> (8 * (i % 8)))
		}
		return nil
	}
	hex := func() (string, error) {
		ctr++
		return fmt.Sprintf("%032x", ctr), nil
	}
	issuer := token.NewIssuer(token.WithClock(frozenClock()), token.WithRandom(read))
	svc, err := cloud.NewService(labDesign(), registry,
		cloud.WithClock(frozenClock()), cloud.WithRandomHex(hex), cloud.WithTokenIssuer(issuer))
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// driveCloud runs a representative op mix through any transport.Cloud:
// register, bind, heartbeats with readings, an unbind, and an error
// case. Used by both the pipe and socket round-trip tests.
func driveCloud(t *testing.T, c transport.Cloud) {
	t.Helper()
	id := testDeviceID(0)
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatalf("register user: %v", err)
	}
	if _, err := c.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: id, Firmware: "1.0", Model: "binapi-lab",
	}); err != nil {
		t.Fatalf("status register: %v", err)
	}
	if _, err := c.HandleBind(protocol.BindRequest{
		DeviceID: id, UserID: "u@example.com", UserPassword: "pw",
	}); err != nil {
		t.Fatalf("bind: %v", err)
	}
	resp, err := c.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: id,
		Readings: []protocol.Reading{{Name: "power_w", Value: 4.25, At: frozenClock()()}},
	})
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if !resp.Bound {
		t.Fatal("heartbeat after bind: not bound")
	}
	shadow, err := c.ShadowState(protocol.ShadowStateRequest{DeviceID: id})
	if err != nil {
		t.Fatalf("shadow: %v", err)
	}
	if shadow.BoundUser != "u@example.com" {
		t.Fatalf("shadow bound user = %q", shadow.BoundUser)
	}
	// A binary-path error must come back as the protocol sentinel.
	if _, err := c.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: "no:such:device",
	}); !errors.Is(err, protocol.ErrUnknownDevice) {
		t.Fatalf("unknown device error = %v, want ErrUnknownDevice", err)
	}
	if err := c.HandleUnbind(protocol.UnbindRequest{DeviceID: id, Sender: core.SenderDevice}); err != nil {
		t.Fatalf("unbind: %v", err)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Window() != defaultWindow {
		t.Fatalf("window = %d, want %d", c.Window(), defaultWindow)
	}
	driveCloud(t, c)
	if c.BytesIn() == 0 || c.BytesOut() == 0 {
		t.Fatal("byte counters did not move")
	}
	if c.DroppedResponses() != 0 {
		t.Fatalf("dropped responses = %d", c.DroppedResponses())
	}
}

func TestSocketRoundTrip(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveCloud(t, c)
}

// TestServedReadingsAreCopied: the server decodes each status request's
// readings into memory its worker reuses for the next request, so a
// cloud that kept the request's slice would see a later request's
// readings in place of its own. Six keyed statuses, each carrying a
// different reading, through a socket into a real Service: the readings
// read back are all six, in order.
func TestServedReadingsAreCopied(t *testing.T) {
	_, addr := startSocketServer(t, newLabService(t, 1))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := testDeviceID(0)
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := c.Login(protocol.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleBind(protocol.BindRequest{DeviceID: id, UserID: "u@example.com", UserPassword: "pw"}); err != nil {
		t.Fatal(err)
	}

	var want []protocol.Reading
	status := func(n int) protocol.StatusRequest {
		r := protocol.Reading{Name: fmt.Sprintf("sensor-%d", n), Value: float64(n), At: frozenClock()()}
		want = append(want, r)
		return protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id,
			IdempotencyKey: fmt.Sprintf("k-%d", n), Readings: []protocol.Reading{r}}
	}
	for n := 0; n < 6; n++ {
		if _, err := c.HandleStatus(status(n)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Readings(protocol.ReadingsRequest{DeviceID: id, UserToken: login.UserToken})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Readings, want) {
		t.Errorf("readings read back:\n%v\nwant:\n%v", got.Readings, want)
	}
}

// scopeCloud keeps every delegate request's scope list as it arrived,
// without copying it: the keeper transport.Cloud's contract forbids.
type scopeCloud struct {
	transport.Cloud
	mu   sync.Mutex
	kept [][]string
}

func (c *scopeCloud) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kept = append(c.kept, req.Scopes)
	return protocol.DelegateResponse{DelegationToken: "d"}, nil
}

// TestServedScopesAreBorrowed: the server cuts each delegate request's
// scope list from memory its worker reuses for the next request. A cloud
// that keeps the slice sees the next request's scopes in place of its
// own; cloud.Service parses the list into a bitmask and keeps none, so
// two grants made through one connection keep their own scopes.
func TestServedScopesAreBorrowed(t *testing.T) {
	id := testDeviceID(0)
	first, second := []string{"control", "read"}, []string{"share", "control"}

	keeper := &scopeCloud{}
	_, addr := startSocketServer(t, keeper)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, scopes := range [][]string{first, second} {
		if _, err := c.HandleDelegate(protocol.DelegateRequest{DeviceID: id, UserToken: "u", Grantee: "g", Scopes: scopes}); err != nil {
			t.Fatal(err)
		}
	}
	keeper.mu.Lock()
	kept := keeper.kept
	keeper.mu.Unlock()
	if !reflect.DeepEqual(kept, [][]string{second, second}) {
		t.Errorf("a kept scope list is not the server's to reuse: kept %v, want the second request's twice", kept)
	}

	_, addr = startSocketServer(t, newLabService(t, 1))
	svc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var owner string
	for _, user := range []string{"u@example.com", "g1@example.com", "g2@example.com"} {
		if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}); err != nil {
			t.Fatal(err)
		}
		if owner == "" {
			login, err := svc.Login(protocol.LoginRequest{UserID: user, Password: "pw"})
			if err != nil {
				t.Fatal(err)
			}
			owner = login.UserToken
		}
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: id, UserID: "u@example.com", UserPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		grantee string
		scopes  []string
	}{{"g1@example.com", first}, {"g2@example.com", second}} {
		if _, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: id, UserToken: owner, Grantee: g.grantee,
			Scopes: g.scopes, Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	list, err := svc.ListDelegations(protocol.ListDelegationsRequest{DeviceID: id, UserToken: owner})
	if err != nil {
		t.Fatal(err)
	}
	want := []protocol.DelegationInfo{
		{Grantor: "u@example.com", Grantee: "g1@example.com", Scopes: []string{"control", "read"}, Depth: 1},
		{Grantor: "u@example.com", Grantee: "g2@example.com", Scopes: []string{"control", "share"}, Depth: 1},
	}
	if !reflect.DeepEqual(list.Grants, want) {
		t.Errorf("grants read back:\n%+v\nwant:\n%+v", list.Grants, want)
	}
}

// TestPipelinedStreams hammers one connection from many goroutines:
// the mux must stitch every response back to its caller.
func TestPipelinedStreams(t *testing.T) {
	const devices = 8
	srv := NewServer(newLabService(t, devices))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < devices; i++ {
		if _, err := c.HandleStatus(protocol.StatusRequest{
			Kind: protocol.StatusRegister, DeviceID: testDeviceID(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, devices)
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				resp, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: id,
				})
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
					return
				}
				if resp.Bound {
					errCh <- fmt.Errorf("%s: unexpectedly bound", id)
					return
				}
			}
		}(testDeviceID(i))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if c.DroppedResponses() != 0 {
		t.Fatalf("dropped responses = %d", c.DroppedResponses())
	}
}

// statusCloud serves HandleStatus with the given function; any other
// operation panics on the nil embedded Cloud.
type statusCloud struct {
	transport.Cloud
	status func(protocol.StatusRequest) (protocol.StatusResponse, error)
}

func (c statusCloud) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	return c.status(req)
}

// statusID is the one device statusCloud's registry holds.
var statusID = testDeviceID(0)

// Canonical answers transport.Canonical as a registry holding statusID
// would.
func (statusCloud) Canonical(kind protocol.Held, raw []byte) string {
	if kind == protocol.HeldDevice && string(raw) == statusID {
		return statusID
	}
	return string(raw)
}

// TestPipeStatusRoundTripAllocatesNothing: a registered device's
// heartbeat through a pipe — served on the calling goroutine with a
// borrowed worker — to a no-op cloud and back allocates nothing, like the
// epoll socket round trip.
func TestPipeStatusRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := NewServer(statusCloud{status: func(protocol.StatusRequest) (protocol.StatusResponse, error) {
		return protocol.StatusResponse{}, nil
	}})
	defer srv.Close()
	c, err := srv.Pipe("198.51.100.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: statusID, SourceIP: "203.0.113.9"}
	beat := func() {
		if _, err = c.HandleStatus(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		beat() // warm the pools
	}
	if avg := testing.AllocsPerRun(2000, beat); avg != 0 {
		t.Fatalf("pipe status round trip allocates %.0f times, want 0", avg)
	}
}

// TestClientSparesOutliveGC: a client called by one goroutine at a time
// reuses its own call and encode buffer, so the GC that empties callPool
// and encPool costs it nothing: neither pool makes a new object however
// many cycles run between calls.
func TestClientSparesOutliveGC(t *testing.T) {
	srv := NewServer(statusCloud{status: func(protocol.StatusRequest) (protocol.StatusResponse, error) {
		return protocol.StatusResponse{}, nil
	}})
	defer srv.Close()
	c, err := srv.Pipe("198.51.100.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: statusID}
	if _, err := c.HandleStatus(req); err != nil {
		t.Fatal(err)
	}
	news := 0
	callNew, encNew := callPool.New, encPool.New
	callPool.New = func() any { news++; return callNew() }
	encPool.New = func() any { news++; return encNew() }
	defer func() { callPool.New, encPool.New = callNew, encNew }()
	for i := 0; i < 10; i++ {
		runtime.GC()
		if _, err := c.HandleStatus(req); err != nil {
			t.Fatal(err)
		}
	}
	if news != 0 {
		t.Fatalf("the pools made %d objects for a client with one caller, want 0", news)
	}
}

// TestServerGoroutines: the server runs only the goroutines its
// readiness source needs — none for pipes however many carry traffic,
// one pump per socket on the pump path. (TestEpollServerGoroutines
// covers the pollers.)
func TestServerGoroutines(t *testing.T) {
	const conns = 5
	drive := func(t *testing.T, srv *Server, dial func() (*Client, error)) {
		t.Helper()
		for i := 0; i < conns; i++ {
			c, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if srv.Conns() != conns {
			t.Fatalf("server holds %d connections, want %d", srv.Conns(), conns)
		}
	}
	t.Run("pipe", func(t *testing.T) {
		srv := NewServer(newLabService(t, conns))
		defer srv.Close()
		drive(t, srv, func() (*Client, error) { return srv.Pipe("127.0.0.1") })
		if got := srv.Goroutines(); got != 0 {
			t.Fatalf("pipe-only server runs %d goroutines, want 0", got)
		}
	})
	t.Run("pump", func(t *testing.T) {
		srv, addr := startSocketServer(t, newLabService(t, conns), WithReadiness(ReadinessPump))
		drive(t, srv, func() (*Client, error) { return Dial(addr) })
		if got := srv.Goroutines(); got != conns {
			t.Fatalf("pump server runs %d goroutines for %d sockets, want one each", got, conns)
		}
	})
}

// TestPipeParkedCallWedgesNoClose: a pipe call runs on its caller's
// goroutine, so one parked inside the cloud holds up neither
// Server.Close nor Client.Close, in either order. The parked call fails
// with the close, and the cloud's late answer is dropped.
func TestPipeParkedCallWedgesNoClose(t *testing.T) {
	for _, serverFirst := range []bool{true, false} {
		gate := gatedCloud{Cloud: newLabService(t, 1), entered: make(chan struct{}, 1), release: make(chan struct{})}
		srv := NewServer(gate)
		c, err := srv.Pipe("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		parked := make(chan error, 1)
		go func() {
			_, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)})
			parked <- err
		}()
		<-gate.entered

		closed := make(chan struct{})
		go func() {
			defer close(closed)
			if serverFirst {
				_ = srv.Close()
				_ = c.Close()
			} else {
				_ = c.Close()
				_ = srv.Close()
			}
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			close(gate.release)
			t.Fatalf("server first %v: Close wedged behind a pipe call parked in the cloud", serverFirst)
		}
		if srv.Conns() != 0 {
			t.Fatalf("server first %v: %d connections left after Close", serverFirst, srv.Conns())
		}
		close(gate.release)
		select {
		case err := <-parked:
			if err == nil {
				t.Fatalf("server first %v: the parked call succeeded on a closed connection", serverFirst)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server first %v: the parked call never returned after its cloud did", serverFirst)
		}
	}
}

// TestBackpressureExcessFrames bypasses the client's credit semaphore by
// delivering raw frames straight into a server connection: everything
// past the window in one drain must come back as wire_backpressure
// error frames, not be dispatched.
func TestBackpressureExcessFrames(t *testing.T) {
	const window = 4
	svc := newLabService(t, 1)
	srv := NewServer(svc, WithWindow(window))
	defer srv.Close()

	var mu sync.Mutex
	var got []byte
	done := make(chan struct{}, 1)
	c := &conn{srv: srv, src: "127.0.0.1", flush: func(b []byte) error {
		mu.Lock()
		got = append(got, b...)
		mu.Unlock()
		select {
		case done <- struct{}{}:
		default:
		}
		return nil
	}}
	if err := srv.addConn(c); err != nil {
		t.Fatal(err)
	}
	defer c.close(errConnClosed)

	var payload bytes.Buffer
	wirecodec.PutStatusBody(&payload, &protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0),
	})
	var burst []byte
	const sent = window + 6
	for i := 0; i < sent; i++ {
		burst = appendFrame(burst, uint32(i+1), kindStatus, 0, payload.Bytes())
	}
	if err := c.deliver(burst); err != nil {
		t.Fatal(err)
	}
	<-done

	mu.Lock()
	defer mu.Unlock()
	var statuses, backpressured int
	rest := got
	for len(rest) > 0 {
		hdr, framePayload, n, err := wal.ParseFrame(rest, 0)
		if err != nil {
			t.Fatalf("parse response: %v", err)
		}
		_, kind, flags := unpackHeader(hdr)
		if flags&flagResponse == 0 {
			t.Fatal("server sent a non-response frame")
		}
		switch kind {
		case kindStatus:
			statuses++
		case kindError:
			cur := wirecodec.NewCursor(framePayload, 0)
			code := cur.Str()
			cur.Str()
			if code != "wire_backpressure" {
				t.Fatalf("error code = %q, want wire_backpressure", code)
			}
			backpressured++
		default:
			t.Fatalf("unexpected response kind 0x%02x", kind)
		}
		rest = rest[n:]
	}
	if statuses != window || backpressured != sent-window {
		t.Fatalf("got %d statuses + %d backpressured, want %d + %d",
			statuses, backpressured, window, sent-window)
	}
	if srv.Backpressured() != uint64(sent-window) {
		t.Fatalf("server backpressure counter = %d, want %d", srv.Backpressured(), sent-window)
	}
}

// TestPoisonedFramingClosesConnection: a CRC flip or garbage length
// poisons the byte stream, so the server must drop the connection.
func TestPoisonedFramingClosesConnection(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("this is not a frame, not even close......")); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := nc.Read(buf); err != nil {
			return // connection dropped, as required
		}
	}
}

func TestHelloValidation(t *testing.T) {
	var good bytes.Buffer
	encodeHello(&good, defaultWindow, defaultMaxFrame)
	if w, m, err := decodeHello(good.Bytes()); err != nil || w != defaultWindow || m != defaultMaxFrame {
		t.Fatalf("decodeHello(good) = %d, %d, %v", w, m, err)
	}
	bad := [][]byte{
		nil,
		[]byte("iotb"),
		[]byte("nope\x01\x40\x80\x80\x40"),
		{helloMagic[0], helloMagic[1], helloMagic[2], helloMagic[3], 99, 0x40, 0x80, 0x80, 0x40},
		good.Bytes()[:good.Len()-1],
	}
	for i, payload := range bad {
		if _, _, err := decodeHello(payload); err == nil {
			t.Fatalf("decodeHello(bad[%d]) accepted", i)
		}
	}
}

// TestHelloVersionMismatchFailsAtHello: the frame-kind vocabulary
// changed with helloVersion 2 (kind 0x10 was the JSON envelope and is now
// shares), so a peer of the other version must be turned away at the
// hello, by name, not by a stream of per-request error frames.
func TestHelloVersionMismatchFailsAtHello(t *testing.T) {
	srv := &Server{opts: defaultOptions()}
	hello := srv.helloFrame()
	_, payload, _, err := wal.ParseFrame(hello, 0)
	if err != nil {
		t.Fatal(err)
	}
	if payload[4] != 2 {
		t.Fatalf("server greets with protocol version %d, want 2", payload[4])
	}

	// A version-1 server's greeting, as a current client sees it.
	old := append([]byte(nil), payload...)
	old[4] = 1
	c := newClient(defaultOptions())
	c.write = func([]byte) error { return nil }
	_ = c.feed(appendFrame(nil, 0, kindHello, flagResponse, old))
	select {
	case <-c.helloCh:
		t.Fatal("client accepted a version-1 hello")
	default:
	}
	if err := c.fatalErr(); err == nil || !strings.Contains(err.Error(), "unsupported protocol version 1") {
		t.Fatalf("version-1 hello failed the client with %v, want \"unsupported protocol version 1\"", err)
	}
	// And the same greeting with today's version is accepted.
	c = newClient(defaultOptions())
	if err := c.feed(hello); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.helloCh:
	default:
		t.Fatal("client did not accept the current hello")
	}
}

// TestEquivalenceWithHTTPAPI drives an identical randomized mix of all
// sixteen operations through binapi (binary frames over a pipe) and
// httpapi (JSON over HTTP) against twin clouds, and requires the same
// error sentinel per op, DeepEqual responses on success — what a binary
// body decodes to is what JSON decodes to, nil or empty list, zero time
// and all — and byte-identical snapshots and identical activity counters
// afterwards: the two front ends share one operation table, and the
// binary lane must be an encoding change, not a semantics change.
func TestEquivalenceWithHTTPAPI(t *testing.T) {
	const devices = 6
	binSvc := newLabService(t, devices)
	httpSvc := newLabService(t, devices)

	binSrv := NewServer(binSvc)
	defer binSrv.Close()
	binCl, err := binSrv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer binCl.Close()

	// httptest listens on 127.0.0.1, the address the pipe claims above, so
	// both clouds see the same stamped SourceIP.
	httpSrv := httptest.NewServer(httpapi.NewServer(httpSvc))
	defer httpSrv.Close()

	fronts := []transport.Cloud{binCl, httpapi.NewClient(httpSrv.URL)}
	succeeded := map[string]int{}
	// both runs one operation on each front end and returns binapi's
	// response, having required httpapi's to equal it.
	both := func(op string, do func(c transport.Cloud) (any, error)) any {
		t.Helper()
		resps, errs := make([]any, len(fronts)), make([]error, len(fronts))
		for i, c := range fronts {
			resps[i], errs[i] = do(c)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("%s: outcome diverged: binapi=%v httpapi=%v", op, errs[0], errs[1])
		}
		if errs[0] != nil {
			if !errors.Is(errs[1], firstSentinel(errs[0])) {
				t.Fatalf("%s: error class diverged: binapi=%v httpapi=%v", op, errs[0], errs[1])
			}
			return nil
		}
		if !reflect.DeepEqual(resps[0], resps[1]) {
			t.Fatalf("%s: response diverged:\nbinapi:  %#v\nhttpapi: %#v", op, resps[0], resps[1])
		}
		succeeded[op]++
		return resps[0]
	}

	// The twin clouds draw the same deterministic entropy in the same
	// order, so even the tokens they mint are equal, and one token map
	// serves both front ends.
	tokens := map[string]string{}
	for u := 0; u < 2; u++ {
		user, pw := fmt.Sprintf("user-%d@example.com", u), fmt.Sprintf("pw-%d", u)
		both("register-user", func(c transport.Cloud) (any, error) {
			return nil, c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: pw})
		})
		login := both("login", func(c transport.Cloud) (any, error) {
			return c.Login(protocol.LoginRequest{UserID: user, Password: pw})
		})
		tokens[user] = login.(protocol.LoginResponse).UserToken
	}
	scopeMixes := [][]string{
		{"control", "read", "share"},
		{"read", "share"},
		{"control", "read"},
		{"read"},
	}
	rng := rand.New(rand.NewSource(7))
	at := frozenClock()()
	for op := 0; op < 800; op++ {
		n := rng.Intn(devices)
		dev := testDeviceID(n)
		user := fmt.Sprintf("user-%d@example.com", rng.Intn(2))
		pw := "pw-" + user[5:6]
		other := fmt.Sprintf("user-%d@example.com", rng.Intn(2))
		switch rng.Intn(16) {
		case 0:
			both("status-register", func(c transport.Cloud) (any, error) {
				return c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusRegister, DeviceID: dev,
					Firmware: "1.0", Model: "binapi-lab",
				})
			})
		case 1:
			req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: dev}
			if rng.Intn(2) == 0 {
				req.Readings = []protocol.Reading{{Name: "temp_c", Value: float64(rng.Intn(100)) / 4, At: at}}
			}
			req.ButtonPressed = rng.Intn(4) == 0
			both("heartbeat", func(c transport.Cloud) (any, error) { return c.HandleStatus(req) })
		case 2:
			// Any device, one past the fleet included: an unknown one.
			req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(rng.Intn(devices + 1))}
			both("heartbeat-any", func(c transport.Cloud) (any, error) { return c.HandleStatus(req) })
		case 3:
			both("bind", func(c transport.Cloud) (any, error) {
				return c.HandleBind(protocol.BindRequest{
					DeviceID: dev, UserID: user, UserPassword: pw,
					IdempotencyKey: fmt.Sprintf("bind-%d", op),
				})
			})
		case 4:
			both("unbind", func(c transport.Cloud) (any, error) {
				return nil, c.HandleUnbind(protocol.UnbindRequest{DeviceID: dev, Sender: core.SenderDevice})
			})
		case 5:
			both("shadow", func(c transport.Cloud) (any, error) {
				return c.ShadowState(protocol.ShadowStateRequest{DeviceID: dev})
			})
		case 6:
			revoke := rng.Intn(3) == 0
			both("share", func(c transport.Cloud) (any, error) {
				return nil, c.HandleShare(protocol.ShareRequest{
					DeviceID: dev, UserToken: tokens[user], Guest: other, Revoke: revoke,
				})
			})
		case 7:
			scopes := scopeMixes[rng.Intn(len(scopeMixes))]
			depth := rng.Intn(2)
			both("delegate", func(c transport.Cloud) (any, error) {
				return c.HandleDelegate(protocol.DelegateRequest{
					DeviceID: dev, UserToken: tokens[user], Grantee: other,
					Scopes: scopes, TTLSeconds: 3600, Depth: depth,
					IdempotencyKey: fmt.Sprintf("deleg-%d", op),
				})
			})
		case 8:
			both("revoke-delegation", func(c transport.Cloud) (any, error) {
				return nil, c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
					DeviceID: dev, UserToken: tokens[user], Grantee: other,
					IdempotencyKey: fmt.Sprintf("revoke-%d", op),
				})
			})
		case 9:
			both("delegations", func(c transport.Cloud) (any, error) {
				return c.ListDelegations(protocol.ListDelegationsRequest{DeviceID: dev, UserToken: tokens[user]})
			})
		case 10:
			cmd := protocol.Command{ID: fmt.Sprintf("c-%d", op), Name: "set"}
			if rng.Intn(2) == 0 {
				cmd.Args = map[string]string{"level": fmt.Sprint(rng.Intn(10)), "mode": "eco"}
			}
			both("control", func(c transport.Cloud) (any, error) {
				return c.HandleControl(protocol.ControlRequest{DeviceID: dev, UserToken: tokens[user], Command: cmd})
			})
		case 11:
			both("user-data", func(c transport.Cloud) (any, error) {
				return nil, c.PushUserData(protocol.PushUserDataRequest{
					DeviceID: dev, UserToken: tokens[user],
					Data: protocol.UserData{Kind: "schedule", Body: fmt.Sprintf("%02d:00 on", op%24)},
				})
			})
		case 12:
			both("readings", func(c transport.Cloud) (any, error) {
				return c.Readings(protocol.ReadingsRequest{DeviceID: dev, UserToken: tokens[user]})
			})
		case 13:
			both("shares", func(c transport.Cloud) (any, error) {
				return c.Shares(protocol.SharesRequest{DeviceID: dev, UserToken: tokens[user]})
			})
		case 14:
			proof := protocol.PairingProof("factory-secret-"+dev, dev)
			if rng.Intn(4) == 0 {
				proof = "forged"
			}
			both("device-token", func(c transport.Cloud) (any, error) {
				return c.RequestDeviceToken(protocol.DeviceTokenRequest{UserToken: tokens[user], DeviceID: dev, PairingProof: proof})
			})
		case 15:
			maybeUnknown := testDeviceID(n + rng.Intn(2))
			both("bind-token", func(c transport.Cloud) (any, error) {
				return c.RequestBindToken(protocol.BindTokenRequest{UserToken: tokens[user], DeviceID: maybeUnknown})
			})
		}
	}
	// Every operation must have compared a real response at least once,
	// or the DeepEqual above proved nothing about its body.
	for i := range transport.Ops {
		if name := transport.Op(i).String(); succeeded[name] == 0 && name != "status" {
			t.Errorf("%s never succeeded on both front ends: its response was never compared", name)
		}
	}
	if succeeded["status-register"] == 0 || succeeded["heartbeat"] == 0 {
		t.Errorf("status never succeeded on both front ends: %v", succeeded)
	}

	var binSnap, httpSnap bytes.Buffer
	if err := cloud.EncodeSnapshot(&binSnap, binSvc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := cloud.EncodeSnapshot(&httpSnap, httpSvc.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binSnap.Bytes(), httpSnap.Bytes()) {
		t.Fatalf("snapshots diverged:\n--- binapi ---\n%s\n--- httpapi ---\n%s", binSnap.Bytes(), httpSnap.Bytes())
	}
	if !reflect.DeepEqual(binSvc.Stats(), httpSvc.Stats()) {
		t.Fatalf("stats diverged:\nbinapi: %+v\nhttpapi: %+v", binSvc.Stats(), httpSvc.Stats())
	}
}

// firstSentinel extracts the protocol sentinel class of an error for
// cross-front-end comparison.
func firstSentinel(err error) error {
	if code, ok := protocol.WireCode(err); ok {
		sentinel, _ := protocol.FromWireCode(code)
		return sentinel
	}
	return err
}

// TestBadFramesRejected pins the dispatcher's refusals: a frame kind
// outside the table, a body that is not the kind's request and a body
// with bytes after it all come back as bad_request, naming what was
// wrong, and the connection keeps serving.
func TestBadFramesRejected(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw := func(kind uint8, payload []byte) error {
		eb := c.getEncBuf()
		eb.payload.Write(payload)
		cl, id, err := c.roundTrip(kind, eb)
		if err == nil {
			c.finish(id, cl)
		}
		return err
	}
	var login bytes.Buffer
	wirecodec.PutLoginBody(&login, protocol.LoginRequest{UserID: "u@example.com", Password: "pw"})

	for _, tc := range []struct {
		name    string
		kind    uint8
		payload []byte
		want    string
	}{
		{"unknown kind", 0x7f, login.Bytes(), "unknown frame kind 0x7f"},
		{"a version-1 JSON envelope (kind 0x10 then)", 0x10, []byte(`{"op":"shadow"}`), "malformed shares body"},
		{"the WAL-only liveness tag", wirecodec.TagLiveness, login.Bytes(), "unknown frame kind 0x03"},
		{"the retired status-batch kind, an empty batch body", 0x02, []byte{0, 0}, "unknown frame kind 0x02"},
		{"truncated body", wirecodec.TagLogin, login.Bytes()[:login.Len()-1], "malformed login body"},
		{"trailing bytes", wirecodec.TagLogin, append(login.Bytes(), 0), "malformed login body"},
		{"another kind's body", wirecodec.TagDelegate, login.Bytes(), "malformed delegate body"},
		{"malformed status", kindStatus, []byte{0xff}, "malformed status body"},
	} {
		err := raw(tc.kind, tc.payload)
		if !errors.Is(err, protocol.ErrBadRequest) || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s = %v, want bad_request %q", tc.name, err, tc.want)
		}
	}
	if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)}); err != nil {
		t.Fatalf("status after the rejections: %v", err)
	}
	if c.DroppedResponses() != 0 {
		t.Errorf("dropped responses = %d", c.DroppedResponses())
	}
}

// TestClientWriteFailurePoisons pins the write side of the poisoning
// contract: a failed request write may have left a partial frame on the
// wire, so every later call must fail fast with the same sticky error
// instead of appending a fresh frame to the fragment.
func TestClientWriteFailurePoisons(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	torn := errors.New("torn write")
	writes := 0
	c.write = func([]byte) error {
		writes++
		return torn
	}
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0)}
	for i := 0; i < 3; i++ {
		if _, err := c.HandleStatus(req); !errors.Is(err, torn) {
			t.Fatalf("call %d after a failed write = %v, want the original cause", i, err)
		}
		if err := c.HandleUnbind(protocol.UnbindRequest{DeviceID: req.DeviceID}); !errors.Is(err, torn) {
			t.Fatalf("cold call %d after a failed write = %v, want the original cause", i, err)
		}
	}
	if writes != 1 {
		t.Fatalf("client wrote %d times after the first failure, want 1 write in total", writes)
	}
}

// TestMaxFrameBoundsRequests pins withMaxFrame on the server: a frame
// within the cap is served, the default cap admits a status of a few
// KiB, a non-positive value keeps the default, and under a 512-byte cap
// the client — which adopted the cap from the hello — refuses that status
// itself with ErrPayloadTooLarge and keeps its connection.
func TestMaxFrameBoundsRequests(t *testing.T) {
	big := bigStatus()
	small := protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)}

	for _, tc := range []struct {
		name    string
		opts    []Option
		refused bool
	}{
		{"default cap", nil, false},
		{"non-positive keeps the default", []Option{withMaxFrame(0), withMaxFrame(-1)}, false},
		{"512-byte cap", []Option{withMaxFrame(512)}, true},
	} {
		srv := NewServer(newLabService(t, 1), tc.opts...)
		c, err := srv.Pipe("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.HandleStatus(small); err != nil {
			t.Fatalf("%s: small frame: %v", tc.name, err)
		}
		_, err = c.HandleStatus(big)
		if tc.refused != errors.Is(err, protocol.ErrPayloadTooLarge) || (!tc.refused && err != nil) {
			t.Fatalf("%s: 4 KiB status = %v, want ErrPayloadTooLarge %v", tc.name, err, tc.refused)
		}
		if _, err := c.HandleStatus(small); err != nil {
			t.Fatalf("%s: call after the big status = %v, want a live connection", tc.name, err)
		}
		c.Close()
		srv.Close()
	}
}

// bigStatus is a registration whose body is a few KiB: a 4 KiB firmware
// string.
func bigStatus() protocol.StatusRequest {
	return protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0), Firmware: strings.Repeat("f", 4096)}
}

// gatedCloud parks every HandleStatus until release closes, after
// announcing it on entered.
type gatedCloud struct {
	transport.Cloud
	entered chan struct{}
	release chan struct{}
}

func (g gatedCloud) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Cloud.HandleStatus(req)
}

// TestOverCapRequestKeepsConnection: a well-behaved client cannot kill
// its own connection. A request body over the cap the server advertised
// is refused locally — ErrPayloadTooLarge, slot and credit returned —
// while a call already in flight on the same client completes and later
// calls succeed. A sender that ignores the hello and frames the same
// bytes by hand still loses its connection: the server cannot
// resynchronise past a frame it will not buffer.
func TestOverCapRequestKeepsConnection(t *testing.T) {
	gate := gatedCloud{Cloud: newLabService(t, 1), entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, addr := startSocketServer(t, gate, withMaxFrame(512), WithWindow(2))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	small := protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)}

	inFlight := make(chan error, 1)
	go func() {
		_, err := c.HandleStatus(small)
		inFlight <- err
	}()
	<-gate.entered // the first call is parked inside the cloud

	for i := 0; i < 3; i++ { // more refusals than the window has credits
		if _, err := c.HandleStatus(bigStatus()); !errors.Is(err, protocol.ErrPayloadTooLarge) {
			t.Fatalf("over-cap status %d = %v, want ErrPayloadTooLarge", i, err)
		}
	}
	close(gate.release)
	if err := <-inFlight; err != nil {
		t.Fatalf("the call in flight beside the refused status = %v, want success", err)
	}
	if _, err := c.HandleStatus(small); err != nil {
		t.Fatalf("call after the refused status = %v, want a live connection", err)
	}
	if srv.Conns() != 1 {
		t.Fatalf("server holds %d connections, want the one that stayed up", srv.Conns())
	}

	// Hand-framed over-cap bytes: the connection dies, as it always has.
	var body bytes.Buffer
	big := bigStatus()
	wirecodec.PutStatusBody(&body, &big)
	if err := c.send(appendFrame(nil, 1, kindStatus, 0, body.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleStatus(small); err == nil {
		t.Fatal("call after a raw over-cap frame succeeded, want a dead connection")
	}
}

// startSocketServer serves cl on a fresh loopback listener and returns
// the server and its address.
func startSocketServer(t *testing.T, cl transport.Cloud, opts ...Option) (*Server, string) {
	t.Helper()
	return serveSocket(t, NewServer(cl, opts...))
}

// serveSocket serves srv on a fresh loopback listener, closing it when
// the test ends, and returns it and its address.
func serveSocket(t *testing.T, srv *Server) (*Server, string) {
	t.Helper()
	t.Cleanup(func() { _ = srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String()
}

// TestServeOnClosedServerClosesListener: Serve on an already-closed
// server must close the listener it was handed — every harness runs
// `go srv.Serve(ln)` beside `defer srv.Close()`, so an early return can
// close the server first, and then nobody else owns the fd.
func TestServeOnClosedServerClosesListener(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on a closed server returned nil")
	}
	if nc, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		nc.Close()
		t.Error("the listener still accepts connections after Serve refused it")
	}
}

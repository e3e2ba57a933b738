package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"reflect"
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
// register, bind, heartbeats with readings, a batch, an unbind, and an
// error case. Used by both the pipe and socket round-trip tests.
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
	batch := protocol.StatusBatchRequest{Items: []protocol.StatusRequest{
		{Kind: protocol.StatusHeartbeat, DeviceID: id},
		{Kind: protocol.StatusHeartbeat, DeviceID: "99:99:99:99:99:99"},
	}}
	bresp, err := c.HandleStatusBatch(batch)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(bresp.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(bresp.Results))
	}
	if bresp.Results[0].Err() != nil {
		t.Fatalf("batch item 0: %v", bresp.Results[0].Err())
	}
	if !errors.Is(bresp.Results[1].Err(), protocol.ErrUnknownDevice) {
		t.Fatalf("batch item 1 = %v, want ErrUnknownDevice", bresp.Results[1].Err())
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
	srv := NewServer(newLabService(t, 1), WithStripes(2))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Window() != DefaultWindow {
		t.Fatalf("window = %d, want %d", c.Window(), DefaultWindow)
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

// TestBackpressureExcessFrames bypasses the client's credit semaphore by
// delivering raw frames straight into a server connection: everything
// past the window in one drain must come back as wire_backpressure
// error frames, not be dispatched.
func TestBackpressureExcessFrames(t *testing.T) {
	const window = 4
	svc := newLabService(t, 1)
	srv := NewServer(svc, WithWindow(window), WithStripes(1))
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
	srv := NewServer(newLabService(t, 1), WithStripes(1))
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
	encodeHello(&good, DefaultWindow, DefaultMaxFrame)
	if w, m, err := decodeHello(good.Bytes()); err != nil || w != DefaultWindow || m != DefaultMaxFrame {
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

// TestEquivalenceWithHTTPAPI drives an identical randomized op mix
// through binapi (binary mux over a pipe) and httpapi (JSON over HTTP)
// against twin clouds, and requires the same error sentinel per op and
// byte-identical snapshots and identical activity counters afterwards:
// the two front ends share one operation table, and the binary fast
// path must be an encoding change, not a semantics change.
func TestEquivalenceWithHTTPAPI(t *testing.T) {
	const devices = 6
	binSvc := newLabService(t, devices)
	httpSvc := newLabService(t, devices)

	binSrv := NewServer(binSvc, WithStripes(2))
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
	both := func(op string, do func(c transport.Cloud) error) {
		t.Helper()
		errs := make([]error, len(fronts))
		for i, c := range fronts {
			errs[i] = do(c)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("%s: outcome diverged: binapi=%v httpapi=%v", op, errs[0], errs[1])
		}
		if errs[0] != nil && !errors.Is(errs[1], firstSentinel(errs[0])) {
			t.Fatalf("%s: error class diverged: binapi=%v httpapi=%v", op, errs[0], errs[1])
		}
	}

	// Each front end logs into its own cloud; the delegation ops below use
	// the per-front token so both sides speak with equivalent authority.
	tokens := make([]map[string]string, len(fronts))
	for i := range tokens {
		tokens[i] = map[string]string{}
	}
	for u := 0; u < 2; u++ {
		user, pw := fmt.Sprintf("user-%d@example.com", u), fmt.Sprintf("pw-%d", u)
		both("register-user", func(c transport.Cloud) error {
			return c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: pw})
		})
		for i, c := range fronts {
			login, err := c.Login(protocol.LoginRequest{UserID: user, Password: pw})
			if err != nil {
				t.Fatalf("login %s: %v", user, err)
			}
			tokens[i][user] = login.UserToken
		}
	}
	tokenOf := func(c transport.Cloud, user string) string {
		for i, f := range fronts {
			if f == c {
				return tokens[i][user]
			}
		}
		t.Fatalf("unknown front end")
		return ""
	}
	scopeMixes := [][]string{
		{"control", "read", "share"},
		{"read", "share"},
		{"control", "read"},
		{"read"},
	}
	rng := rand.New(rand.NewSource(7))
	at := frozenClock()()
	for op := 0; op < 400; op++ {
		dev := testDeviceID(rng.Intn(devices))
		user := fmt.Sprintf("user-%d@example.com", rng.Intn(2))
		pw := "pw-" + user[5:6]
		other := fmt.Sprintf("user-%d@example.com", rng.Intn(2))
		switch rng.Intn(10) {
		case 0:
			both("status-register", func(c transport.Cloud) error {
				_, err := c.HandleStatus(protocol.StatusRequest{
					Kind: protocol.StatusRegister, DeviceID: dev,
					Firmware: "1.0", Model: "binapi-lab",
				})
				return err
			})
		case 1:
			req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: dev}
			if rng.Intn(2) == 0 {
				req.Readings = []protocol.Reading{{Name: "temp_c", Value: float64(rng.Intn(100)) / 4, At: at}}
			}
			req.ButtonPressed = rng.Intn(4) == 0
			both("heartbeat", func(c transport.Cloud) error {
				_, err := c.HandleStatus(req)
				return err
			})
		case 2:
			items := make([]protocol.StatusRequest, 1+rng.Intn(4))
			for i := range items {
				items[i] = protocol.StatusRequest{
					Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(rng.Intn(devices + 1)),
				}
			}
			both("batch", func(c transport.Cloud) error {
				resp, err := c.HandleStatusBatch(protocol.StatusBatchRequest{Items: items})
				if err != nil {
					return err
				}
				if len(resp.Results) != len(items) {
					return fmt.Errorf("result count %d != %d", len(resp.Results), len(items))
				}
				return nil
			})
		case 3:
			both("bind", func(c transport.Cloud) error {
				_, err := c.HandleBind(protocol.BindRequest{
					DeviceID: dev, UserID: user, UserPassword: pw,
					IdempotencyKey: fmt.Sprintf("bind-%d", op),
				})
				return err
			})
		case 4:
			both("unbind", func(c transport.Cloud) error {
				return c.HandleUnbind(protocol.UnbindRequest{DeviceID: dev, Sender: core.SenderDevice})
			})
		case 5:
			s1, err1 := fronts[0].ShadowState(protocol.ShadowStateRequest{DeviceID: dev})
			s2, err2 := fronts[1].ShadowState(protocol.ShadowStateRequest{DeviceID: dev})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("shadow: outcome diverged: binapi=%v httpapi=%v", err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(s1, s2) {
				t.Fatalf("shadow state diverged: %+v vs %+v", s1, s2)
			}
		case 6:
			revoke := rng.Intn(3) == 0
			both("share", func(c transport.Cloud) error {
				return c.HandleShare(protocol.ShareRequest{
					DeviceID: dev, UserToken: tokenOf(c, user), Guest: other, Revoke: revoke,
				})
			})
		case 7:
			scopes := scopeMixes[rng.Intn(len(scopeMixes))]
			depth := rng.Intn(2)
			both("delegate", func(c transport.Cloud) error {
				_, err := c.HandleDelegate(protocol.DelegateRequest{
					DeviceID: dev, UserToken: tokenOf(c, user), Grantee: other,
					Scopes: scopes, TTLSeconds: 3600, Depth: depth,
					IdempotencyKey: fmt.Sprintf("deleg-%d", op),
				})
				return err
			})
		case 8:
			both("revoke-delegation", func(c transport.Cloud) error {
				return c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{
					DeviceID: dev, UserToken: tokenOf(c, user), Grantee: other,
					IdempotencyKey: fmt.Sprintf("revoke-%d", op),
				})
			})
		case 9:
			l1, err1 := fronts[0].ListDelegations(protocol.ListDelegationsRequest{DeviceID: dev, UserToken: tokens[0][user]})
			l2, err2 := fronts[1].ListDelegations(protocol.ListDelegationsRequest{DeviceID: dev, UserToken: tokens[1][user]})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("list-delegations: outcome diverged: binapi=%v httpapi=%v", err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(l1, l2) {
				t.Fatalf("delegation lists diverged: %+v vs %+v", l1, l2)
			}
		}
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

// TestJSONLaneRejections pins the JSON envelope's two refusals: an op
// name outside the operation table and a payload that is not the op's
// request type both come back as bad_request, and the connection keeps
// serving.
func TestJSONLaneRejections(t *testing.T) {
	srv := NewServer(newLabService(t, 1))
	defer srv.Close()
	c, err := srv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lane := jsonLane{c}

	err = lane.RoundTrip(transport.Op(200), struct{}{}, nil)
	if !errors.Is(err, protocol.ErrBadRequest) || !strings.Contains(err.Error(), `unknown op "unknown-op"`) {
		t.Fatalf("unknown op = %v, want bad_request naming the op", err)
	}
	err = lane.RoundTrip(transport.OpLogin, "not a login request", nil)
	if !errors.Is(err, protocol.ErrBadRequest) || !strings.HasPrefix(err.Error(), "malformed payload") {
		t.Fatalf("malformed payload = %v, want bad_request \"malformed payload\"", err)
	}
	// A binary-kind op sent through the envelope is served by the same row.
	var resp protocol.StatusResponse
	if err := lane.RoundTrip(transport.OpStatus, protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDeviceID(0),
	}, &resp); err != nil {
		t.Fatalf("status through the envelope: %v", err)
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
			t.Fatalf("json-lane call %d after a failed write = %v, want the original cause", i, err)
		}
	}
	if writes != 1 {
		t.Fatalf("client wrote %d times after the first failure, want 1 write in total", writes)
	}
}

// TestMaxFrameBoundsRequests pins WithMaxFrame on the server: a frame
// within the cap is served, one past it is unframeable by construction
// and costs the sender its connection, the default cap admits the same
// frame, and a non-positive value keeps the default.
func TestMaxFrameBoundsRequests(t *testing.T) {
	big := protocol.StatusBatchRequest{Items: make([]protocol.StatusRequest, 64)}
	for i := range big.Items {
		big.Items[i] = protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0), Firmware: strings.Repeat("f", 32),
		}
	}
	small := protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)}

	for _, tc := range []struct {
		name     string
		opts     []Option
		wantDead bool
	}{
		{"default cap", nil, false},
		{"non-positive keeps the default", []Option{WithMaxFrame(0), WithMaxFrame(-1)}, false},
		{"512-byte cap", []Option{WithMaxFrame(512)}, true},
	} {
		srv := NewServer(newLabService(t, 1), tc.opts...)
		c, err := srv.Pipe("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.HandleStatus(small); err != nil {
			t.Fatalf("%s: small frame: %v", tc.name, err)
		}
		_, err = c.HandleStatusBatch(big)
		if dead := err != nil; dead != tc.wantDead {
			t.Fatalf("%s: 64-item batch = %v, want failure %v", tc.name, err, tc.wantDead)
		}
		if _, err := c.HandleStatus(small); (err != nil) != tc.wantDead {
			t.Fatalf("%s: call after the batch = %v, want a dead connection %v", tc.name, err, tc.wantDead)
		}
		c.Close()
		srv.Close()
	}
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

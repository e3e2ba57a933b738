//go:build linux

package binapi

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// TestReadinessEquivalence drives an identical seeded op mix through
// three binapi transports — epoll-readiness socket (dialed through a
// ClientPoller), pump-readiness socket, and in-process pipe — against
// twin clouds, and requires byte-identical snapshots and identical
// activity counters afterwards: the readiness source must be a
// scheduling change, not a semantics change.
func TestReadinessEquivalence(t *testing.T) {
	const devices = 6
	svcs := [3]*cloud.Service{newLabService(t, devices), newLabService(t, devices), newLabService(t, devices)}
	names := [3]string{"epoll", "pump", "pipe"}

	epollSrv, epollAddr := startSocketServer(t, svcs[0], WithStripes(2), WithReadiness(ReadinessEpoll))
	if got := epollSrv.Readiness(); got != ReadinessEpoll {
		t.Fatalf("readiness = %v, want epoll", got)
	}
	pl, err := NewClientPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	epollCl, err := pl.Dial(epollAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer epollCl.Close()

	pumpSrv, pumpAddr := startSocketServer(t, svcs[1], WithStripes(2), WithReadiness(ReadinessPump))
	if got := pumpSrv.Readiness(); got != ReadinessPump {
		t.Fatalf("readiness = %v, want pump", got)
	}
	pumpCl, err := Dial(pumpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pumpCl.Close()

	pipeSrv := NewServer(svcs[2], WithStripes(2))
	defer pipeSrv.Close()
	pipeCl, err := pipeSrv.Pipe("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer pipeCl.Close()

	fronts := [3]transport.Cloud{epollCl, pumpCl, pipeCl}
	all := func(op string, do func(c transport.Cloud) error) {
		t.Helper()
		var errs [3]error
		for i, c := range fronts {
			errs[i] = do(c)
		}
		for i := 1; i < len(fronts); i++ {
			if (errs[0] == nil) != (errs[i] == nil) {
				t.Fatalf("%s: outcome diverged: %s=%v %s=%v", op, names[0], errs[0], names[i], errs[i])
			}
			if errs[0] != nil && !errors.Is(errs[i], firstSentinel(errs[0])) {
				t.Fatalf("%s: error class diverged: %s=%v %s=%v", op, names[0], errs[0], names[i], errs[i])
			}
		}
	}

	for u := 0; u < 2; u++ {
		user, pw := fmt.Sprintf("user-%d@example.com", u), fmt.Sprintf("pw-%d", u)
		all("register-user", func(c transport.Cloud) error {
			return c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: pw})
		})
	}
	rng := rand.New(rand.NewSource(11))
	at := frozenClock()()
	for op := 0; op < 400; op++ {
		dev := testDeviceID(rng.Intn(devices))
		user := fmt.Sprintf("user-%d@example.com", rng.Intn(2))
		pw := "pw-" + user[5:6]
		switch rng.Intn(6) {
		case 0:
			all("status-register", func(c transport.Cloud) error {
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
			all("heartbeat", func(c transport.Cloud) error {
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
			all("batch", func(c transport.Cloud) error {
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
			all("bind", func(c transport.Cloud) error {
				_, err := c.HandleBind(protocol.BindRequest{
					DeviceID: dev, UserID: user, UserPassword: pw,
					IdempotencyKey: fmt.Sprintf("bind-%d", op),
				})
				return err
			})
		case 4:
			all("unbind", func(c transport.Cloud) error {
				return c.HandleUnbind(protocol.UnbindRequest{DeviceID: dev, Sender: core.SenderDevice})
			})
		case 5:
			var shadows [3]protocol.ShadowStateResponse
			var errs [3]error
			for i, c := range fronts {
				shadows[i], errs[i] = c.ShadowState(protocol.ShadowStateRequest{DeviceID: dev})
			}
			for i := 1; i < len(fronts); i++ {
				if (errs[0] == nil) != (errs[i] == nil) {
					t.Fatalf("shadow: outcome diverged: %s=%v %s=%v", names[0], errs[0], names[i], errs[i])
				}
				if errs[0] == nil && !reflect.DeepEqual(shadows[0], shadows[i]) {
					t.Fatalf("shadow state diverged: %+v vs %+v", shadows[0], shadows[i])
				}
			}
		}
	}

	// The arrival shapes that differ most between a poller that serves
	// in place and a pump feeding a stripe, hand-driven over raw sockets:
	// a frame torn across two readiness events, then a burst larger than
	// readBudget. The two sockets must answer byte for byte alike; the
	// pipe takes the same requests through its client, so the snapshots
	// below still compare all three.
	first := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0)}
	torn := protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(1),
		Readings: []protocol.Reading{{Name: "temp_c", Value: 21.5, At: at}},
	}
	// Twice the budget: the yield path needs the writer to keep pace with
	// the draining poller for a whole budget, which a barely larger burst
	// manages in only about half the runs.
	burst := make([]protocol.StatusBatchRequest, 16)
	for i := range burst {
		burst[i].Items = make([]protocol.StatusRequest, 4700)
		for j := range burst[i].Items {
			burst[i].Items[j] = protocol.StatusRequest{
				Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID((i + j) % (devices + 1)),
			}
		}
	}
	epollAnswers := tornThenBurst(t, epollAddr, first, torn, burst)
	pumpAnswers := tornThenBurst(t, pumpAddr, first, torn, burst)
	if !reflect.DeepEqual(epollAnswers, pumpAnswers) {
		t.Fatal("torn frame + burst: epoll and pump sockets answered differently")
	}
	_, _ = pipeCl.HandleStatus(first)
	_, _ = pipeCl.HandleStatus(torn)
	for _, b := range burst {
		if _, err := pipeCl.HandleStatusBatch(b); err != nil {
			t.Fatalf("pipe burst batch: %v", err)
		}
	}

	var snaps [3]bytes.Buffer
	for i, svc := range svcs {
		if err := cloud.EncodeSnapshot(&snaps[i], svc.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(svcs); i++ {
		if !bytes.Equal(snaps[0].Bytes(), snaps[i].Bytes()) {
			t.Fatalf("snapshots diverged:\n--- %s ---\n%s\n--- %s ---\n%s",
				names[0], snaps[0].Bytes(), names[i], snaps[i].Bytes())
		}
		if !reflect.DeepEqual(svcs[0].Stats(), svcs[i].Stats()) {
			t.Fatalf("stats diverged:\n%s: %+v\n%s: %+v", names[0], svcs[0].Stats(), names[i], svcs[i].Stats())
		}
	}
}

// statusFrame frames one status request for a hand-driven connection.
func statusFrame(stream uint32, req protocol.StatusRequest) []byte {
	var body bytes.Buffer
	wirecodec.PutStatusBody(&body, &req)
	return appendFrame(nil, stream, kindStatus, 0, body.Bytes())
}

// tornThenBurst hand-drives one raw socket connection: a complete
// status frame with the first half of a second one behind it, the
// second half only after the first frame's answer has come back (which
// proves the server consumed the readiness event that carried the torn
// half), then every batch in a single write — more bytes than one
// readiness event may drain. It returns the response frames in arrival
// order, kind byte first.
func tornThenBurst(t *testing.T, addr string, first, torn protocol.StatusRequest, burst []protocol.StatusBatchRequest) [][]byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	_, kind, _, _, rest := readFrame(t, nc, nil)
	if kind != kindHello {
		t.Fatalf("first frame kind = 0x%02x, want hello", kind)
	}
	var answers [][]byte
	expect := func(wantStream uint32) {
		t.Helper()
		stream, kind, flags, pl, tail := readFrame(t, nc, rest)
		if stream != wantStream || flags&flagResponse == 0 {
			t.Fatalf("response = stream %d flags 0x%02x, want stream %d response", stream, flags, wantStream)
		}
		answers = append(answers, append([]byte{kind}, pl...))
		rest = append([]byte(nil), tail...)
	}

	tornFrame := statusFrame(2, torn)
	half := len(tornFrame) / 2
	if _, err := nc.Write(append(statusFrame(1, first), tornFrame[:half]...)); err != nil {
		t.Fatal(err)
	}
	expect(1)
	if _, err := nc.Write(tornFrame[half:]); err != nil {
		t.Fatal(err)
	}
	expect(2)

	var wire []byte
	var body bytes.Buffer
	for i := range burst {
		body.Reset()
		wirecodec.PutStr(&body, "")
		wirecodec.PutUvarint(&body, uint64(len(burst[i].Items)))
		for j := range burst[i].Items {
			wirecodec.PutStatusBody(&body, &burst[i].Items[j])
		}
		wire = appendFrame(wire, uint32(3+i), kindBatch, 0, body.Bytes())
	}
	if len(wire) <= readBudget {
		t.Fatalf("burst is %d bytes, want more than readBudget = %d", len(wire), readBudget)
	}
	written := make(chan error, 1)
	go func() {
		_, werr := nc.Write(wire)
		written <- werr
	}()
	for i := range burst {
		expect(uint32(3 + i))
	}
	if err := <-written; err != nil {
		t.Fatalf("writing the burst: %v", err)
	}
	return answers
}

// setSockBuf returns a Control func that pins a socket buffer option
// (SO_SNDBUF/SO_RCVBUF) to n bytes.
func setSockBuf(opt, n int) func(network, address string, rc syscall.RawConn) error {
	return func(_, _ string, rc syscall.RawConn) error {
		var serr error
		cerr := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, n)
		})
		if cerr != nil {
			return cerr
		}
		return serr
	}
}

// readFrame accumulates bytes from nc until one complete frame parses,
// returning its header parts and payload plus any unconsumed tail.
func readFrame(t *testing.T, nc net.Conn, buf []byte) (stream uint32, kind, flags uint8, payload, rest []byte) {
	t.Helper()
	tmp := make([]byte, 64<<10)
	for {
		hdr, pl, n, err := wal.ParseFrame(buf, 0)
		if err == nil {
			stream, kind, flags = unpackHeader(hdr)
			return stream, kind, flags, pl, buf[n:]
		}
		if !errors.Is(err, wal.ErrShortFrame) {
			t.Fatalf("parse frame: %v", err)
		}
		n, rerr := nc.Read(tmp)
		if n > 0 {
			buf = append(buf, tmp[:n]...)
			continue
		}
		if rerr != nil {
			t.Fatalf("read: %v", rerr)
		}
	}
}

// TestShortWriteRearm fills the server's socket send buffer so a
// coalesced flush short-writes, then verifies the parked tail drains
// via EPOLLOUT: tiny SO_SNDBUF/SO_RCVBUF, a huge batch request, and a
// client that only starts reading after the server has parked a tail.
// The complete response — and a follow-up request — must still arrive
// intact.
func TestShortWriteRearm(t *testing.T) {
	const items = 4500
	svc := newLabService(t, 1)
	srv := NewServer(svc, WithStripes(1), WithReadiness(ReadinessEpoll))
	defer srv.Close()
	lc := net.ListenConfig{Control: setSockBuf(syscall.SO_SNDBUF, 4096)}
	ln, err := lc.Listen(nil, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	d := net.Dialer{Control: setSockBuf(syscall.SO_RCVBUF, 4096)}
	nc, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))

	_, kind, _, _, rest := readFrame(t, nc, nil)
	if kind != kindHello {
		t.Fatalf("first frame kind = 0x%02x, want hello", kind)
	}

	// One giant batch of unknown-device heartbeats: the response burst
	// (per-item error results) dwarfs the 4KiB socket buffers.
	var payload bytes.Buffer
	wirecodec.PutStr(&payload, "")
	wirecodec.PutUvarint(&payload, uint64(items))
	for i := 0; i < items; i++ {
		wirecodec.PutStatusBody(&payload, &protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: "99:99:99:99:99:99",
		})
	}
	frame := appendFrame(nil, 1, kindBatch, 0, payload.Bytes())
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Don't read yet: wait for the server to hit the full buffer and
	// park a tail for EPOLLOUT.
	deadline := time.Now().Add(10 * time.Second)
	for srv.ShortWrites() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never short-wrote despite 4KiB socket buffers")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Now drain: the parked tail must flow out through EPOLLOUT re-arms
	// until the batch response is complete and correct.
	stream, kind, flags, pl, rest := readFrame(t, nc, rest)
	if stream != 1 || kind != kindBatch || flags&flagResponse == 0 {
		t.Fatalf("response frame = stream %d kind 0x%02x flags 0x%02x", stream, kind, flags)
	}
	cur := wirecodec.NewCursor(pl, 0)
	resp := wirecodec.ReadStatusBatchResponse(cur)
	if cur.Err() != nil {
		t.Fatalf("decode batch response: %v", cur.Err())
	}
	if len(resp.Results) != items {
		t.Fatalf("batch results = %d, want %d", len(resp.Results), items)
	}
	for i, r := range resp.Results {
		if !errors.Is(r.Err(), protocol.ErrUnknownDevice) {
			t.Fatalf("result %d = %v, want ErrUnknownDevice", i, r.Err())
		}
	}
	if srv.ShortWrites() == 0 {
		t.Fatal("short-write counter reset unexpectedly")
	}

	// The connection must still work after the backpressure episode.
	var reg bytes.Buffer
	wirecodec.PutStatusBody(&reg, &protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDeviceID(0),
		Firmware: "1.0", Model: "binapi-lab",
	})
	if _, err := nc.Write(appendFrame(nil, 2, kindStatus, 0, reg.Bytes())); err != nil {
		t.Fatal(err)
	}
	stream, kind, flags, _, _ = readFrame(t, nc, rest)
	if stream != 2 || kind != kindStatus || flags&flagResponse == 0 {
		t.Fatalf("follow-up frame = stream %d kind 0x%02x flags 0x%02x, want status response", stream, kind, flags)
	}
}

// TestEpollCloseRaceStorm churns connections against an epoll server
// while traffic is in flight: immediate closes, half-written frames,
// and concurrent Client teardowns. Run under -race this is the
// fd-close-vs-ready proof — no handler may touch a recycled slot or a
// closed fd's buffers. The server must drain to zero connections.
func TestEpollCloseRaceStorm(t *testing.T) {
	const devices = 64
	srv, addr := startSocketServer(t, newLabService(t, devices),
		WithStripes(2), WithReadiness(ReadinessEpoll))
	pl, err := NewClientPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				switch n % 3 {
				case 0:
					// Raw dial, write a torn frame, slam the door.
					nc, derr := net.Dial("tcp", addr)
					if derr != nil {
						t.Error(derr)
						return
					}
					var payload bytes.Buffer
					wirecodec.PutStatusBody(&payload, &protocol.StatusRequest{
						Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(w),
					})
					frame := appendFrame(nil, 1, kindStatus, 0, payload.Bytes())
					_, _ = nc.Write(frame[:len(frame)/2])
					_ = nc.Close()
				case 1:
					// Dial through the poller and close with zero traffic.
					c, derr := pl.Dial(addr)
					if derr != nil {
						t.Error(derr)
						return
					}
					_ = c.Close()
				default:
					// Real request racing a concurrent Close.
					c, derr := pl.Dial(addr)
					if derr != nil {
						t.Error(derr)
						return
					}
					var cwg sync.WaitGroup
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						_, _ = c.HandleStatus(protocol.StatusRequest{
							Kind: protocol.StatusRegister, DeviceID: testDeviceID((w*29 + n) % devices),
						})
					}()
					_ = c.Close()
					cwg.Wait()
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for srv.Conns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d connections after churn", srv.Conns())
		}
		time.Sleep(5 * time.Millisecond)
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

// TestEpollStatusRoundTripAllocatesNothing: a same-device heartbeat
// through Dial → loopback socket → epoll poller → a no-op cloud and
// back allocates nothing anywhere in the process, as the pipe round trip
// does — every RawConn callback on the path is built once.
func TestEpollStatusRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := startSocketServer(t, statusCloud{status: func(protocol.StatusRequest) (protocol.StatusResponse, error) {
		return protocol.StatusResponse{}, nil
	}}, WithStripes(1), WithReadiness(ReadinessEpoll))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The claimed SourceIP must cost nothing either: the server drops it
	// undecoded and stamps the peer address.
	req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(0), SourceIP: "203.0.113.9"}
	beat := func() {
		if _, err = c.HandleStatus(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		beat() // warm the pools and the device-ID cache
	}
	if avg := testing.AllocsPerRun(2000, beat); avg != 0 {
		t.Fatalf("epoll socket status round trip allocates %.0f times, want 0", avg)
	}
}

// coldCloud answers the four operations of a binding's life with fixed
// responses; anything else panics on the nil embedded Cloud.
type coldCloud struct{ transport.Cloud }

func (coldCloud) HandleBind(protocol.BindRequest) (protocol.BindResponse, error) {
	return protocol.BindResponse{BoundUser: "owner@example.com"}, nil
}

func (coldCloud) HandleControl(protocol.ControlRequest) (protocol.ControlResponse, error) {
	return protocol.ControlResponse{Queued: true}, nil
}

var coldReadings = []protocol.Reading{{Name: "power_w", Value: 4.5}}

func (coldCloud) Readings(protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	return protocol.ReadingsResponse{Readings: coldReadings}, nil
}

func (coldCloud) HandleUnbind(protocol.UnbindRequest) error { return nil }

// TestColdCycleAllocatesOnlyItsStrings: the binary cold lane's price. A
// bind → control → readings → unbind cycle through Dial → loopback socket
// → epoll poller → a no-op cloud and back allocates the decoded requests'
// and responses' own strings and lists and nothing else: twelve request
// strings on the server (bind 3, control 4, readings 2, unbind 3 — the
// source-address claim is sent empty), the bound user, the reading list
// and its one name on the client. The JSON envelope this replaced cost
// 29-35 allocations per operation on top of those.
func TestColdCycleAllocatesOnlyItsStrings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := startSocketServer(t, coldCloud{}, WithStripes(1), WithReadiness(ReadinessEpoll))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, tok := testDeviceID(0), "user-token-0123456789abcdef"
	cycle := func() {
		if _, err = c.HandleBind(protocol.BindRequest{
			DeviceID: id, UserToken: tok, Sender: core.SenderApp, SourceIP: "203.0.113.9", IdempotencyKey: "bind-1",
		}); err != nil {
			t.Fatal(err)
		}
		if _, err = c.HandleControl(protocol.ControlRequest{
			DeviceID: id, UserToken: tok, SourceIP: "203.0.113.9", Command: protocol.Command{ID: "c1", Name: "turn_on"},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err = c.Readings(protocol.ReadingsRequest{DeviceID: id, UserToken: tok}); err != nil {
			t.Fatal(err)
		}
		if err = c.HandleUnbind(protocol.UnbindRequest{
			DeviceID: id, UserToken: tok, Sender: core.SenderApp, SourceIP: "203.0.113.9", IdempotencyKey: "unbind-1",
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the pools
	}
	const strings = 12 + 3
	if avg := testing.AllocsPerRun(1000, cycle); avg > strings {
		t.Fatalf("a four-operation cold cycle allocates %.1f times, want the %d strings and lists it decodes and no more", avg, strings)
	}
}

// fullListener hands out accepted sockets whose send buffer is already
// full, so the server's very first write on them — the hello — comes up
// short. filled receives the number of junk bytes ahead of the hello.
type fullListener struct {
	net.Listener
	filled chan int
}

func (l fullListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	junk := make([]byte, 1024)
	n := 0
	_ = nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	for {
		m, werr := nc.Write(junk)
		n += m
		if werr != nil {
			break // the deadline: buffer full, the peer is not reading
		}
	}
	_ = nc.SetWriteDeadline(time.Time{})
	l.filled <- n
	return nc, nil
}

// TestShortWriteOnHello: a hello that cannot be written at once
// parks its tail and arms EPOLLOUT like any other flush — which needs
// the connection's poller and slot, so they must be assigned before the
// hello is flushed, and the registration must carry the arm. The hello
// and a follow-up request still arrive once the peer starts reading.
func TestShortWriteOnHello(t *testing.T) {
	srv := NewServer(newLabService(t, 1), WithStripes(1), WithReadiness(ReadinessEpoll))
	defer srv.Close()
	lc := net.ListenConfig{Control: setSockBuf(syscall.SO_SNDBUF, 4096)}
	ln, err := lc.Listen(nil, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := fullListener{Listener: ln, filled: make(chan int, 1)}
	go func() { _ = srv.Serve(fl) }()

	d := net.Dialer{Control: setSockBuf(syscall.SO_RCVBUF, 4096)}
	nc, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))

	junk := <-fl.filled
	deadline := time.Now().Add(10 * time.Second)
	for srv.ShortWrites() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hello was not short-written behind %d junk bytes", junk)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := io.CopyN(io.Discard, nc, int64(junk)); err != nil {
		t.Fatalf("draining %d junk bytes: %v", junk, err)
	}
	_, kind, _, _, rest := readFrame(t, nc, nil)
	if kind != kindHello {
		t.Fatalf("first frame after the junk: kind 0x%02x, want the parked hello", kind)
	}

	if _, err := nc.Write(statusFrame(1, protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDeviceID(0),
		Firmware: "1.0", Model: "binapi-lab",
	})); err != nil {
		t.Fatal(err)
	}
	stream, kind, flags, _, _ := readFrame(t, nc, rest)
	if stream != 1 || kind != kindStatus || flags&flagResponse == 0 {
		t.Fatalf("follow-up frame = stream %d kind 0x%02x flags 0x%02x, want status response", stream, kind, flags)
	}
}

// TestEpollRequestThenClose: a peer that sends one short frame and
// closes at once. Whichever way the FIN and the poller's epoll_wait are
// dealt — FIN already there when the event is harvested (the event
// carries EPOLLRDHUP, and the short read must not end the drain), or
// arriving after (a fresh edge) — the close must be observed with no
// idle timeout to fall back on. Even iterations slam the door; odd ones
// only half-close and must get their answer before the server's EOF.
func TestEpollRequestThenClose(t *testing.T) {
	srv, addr := startSocketServer(t, newLabService(t, 1), WithStripes(1), WithReadiness(ReadinessEpoll))
	frame := statusFrame(1, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(0)})
	for i := 0; i < 200; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		if i%4 >= 2 {
			time.Sleep(200 * time.Microsecond) // let the data's event be harvested first
		}
		if i%2 == 0 {
			_ = nc.Close()
		} else {
			if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(nc)
			if err != nil {
				t.Fatalf("iteration %d: server never closed a half-closed connection: %v", i, err)
			}
			_, kind, _, _, rest := readFrame(t, nc, got)
			if kind != kindHello {
				t.Fatalf("iteration %d: first frame kind 0x%02x, want hello", i, kind)
			}
			stream, kind, flags, _, _ := readFrame(t, nc, rest)
			if stream != 1 || kind != kindStatus || flags&flagResponse == 0 {
				t.Fatalf("iteration %d: answer = stream %d kind 0x%02x flags 0x%02x, want status response",
					i, stream, kind, flags)
			}
			_ = nc.Close()
		}
		deadline := time.Now().Add(time.Second)
		for srv.Conns() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: server still holds %d connections a second after the peer closed", i, srv.Conns())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestEpollBusyPollerKeepsEdges: with one stripe both connections share
// one poller, and it serves in place — while it is parked inside the
// cloud on the first connection's request it harvests nothing. A second
// connection's request that arrives meanwhile must be answered as soon
// as the first returns: its edge waits in the epoll set, it is not lost.
func TestEpollBusyPollerKeepsEdges(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	_, addr := startSocketServer(t, statusCloud{status: func(req protocol.StatusRequest) (protocol.StatusResponse, error) {
		if req.DeviceID == testDeviceID(0) {
			close(entered)
			<-release
		}
		return protocol.StatusResponse{}, nil
	}}, WithStripes(1), WithReadiness(ReadinessEpoll))

	var clients [2]*Client
	for i := range clients {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	var done [2]chan error
	call := func(i int) {
		done[i] = make(chan error, 1)
		go func() {
			_, err := clients[i].HandleStatus(protocol.StatusRequest{
				Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(i),
			})
			done[i] <- err
		}()
	}
	call(0)
	<-entered
	call(1)
	select {
	case err := <-done[1]:
		t.Fatalf("second connection answered (%v) while the only poller was parked in the cloud", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	for i := range done {
		select {
		case err := <-done[i]:
			if err != nil {
				t.Fatalf("connection %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("connection %d never answered after the poller was released", i)
		}
	}
}

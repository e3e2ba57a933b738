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
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
	"github.com/iotbind/iotbind/internal/wirecodec"
)

// TestReadinessEquivalence drives an identical seeded op mix through
// three binapi transports — epoll-readiness socket, pump-readiness
// socket, and in-process pipe — against
// twin clouds, and requires byte-identical snapshots and identical
// activity counters afterwards: the readiness source must be a
// scheduling change, not a semantics change.
func TestReadinessEquivalence(t *testing.T) {
	const devices = 6
	svcs := [3]*cloud.Service{newLabService(t, devices), newLabService(t, devices), newLabService(t, devices)}
	names := [3]string{"epoll", "pump", "pipe"}

	epollSrv, epollAddr := startSocketServer(t, svcs[0], WithReadiness(ReadinessEpoll))
	if got := epollSrv.Readiness(); got != ReadinessEpoll {
		t.Fatalf("readiness = %v, want epoll", got)
	}
	epollCl, err := Dial(epollAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer epollCl.Close()

	pumpSrv, pumpAddr := startSocketServer(t, svcs[1], WithReadiness(ReadinessPump))
	if got := pumpSrv.Readiness(); got != ReadinessPump {
		t.Fatalf("readiness = %v, want pump", got)
	}
	pumpCl, err := Dial(pumpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pumpCl.Close()

	pipeSrv := NewServer(svcs[2])
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
			// Any device, one past the fleet included: an unknown one.
			req := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(rng.Intn(devices + 1))}
			all("heartbeat-any", func(c transport.Cloud) error {
				_, err := c.HandleStatus(req)
				return err
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
	// many sockets and a pump that serves one, hand-driven over raw sockets:
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
	// manages in only about half the runs. Sixteen statuses of 136 KiB
	// each (a firmware string) stay within the credit window and under
	// the frame cap.
	burst := make([]protocol.StatusRequest, 16)
	for i := range burst {
		burst[i] = protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(i % (devices + 1)),
			Firmware: strings.Repeat(string(rune('a'+i)), 136<<10),
		}
	}
	epollAnswers := tornThenBurst(t, epollAddr, first, torn, burst)
	pumpAnswers := tornThenBurst(t, pumpAddr, first, torn, burst)
	if !reflect.DeepEqual(epollAnswers, pumpAnswers) {
		t.Fatal("torn frame + burst: epoll and pump sockets answered differently")
	}
	_, _ = pipeCl.HandleStatus(first)
	_, _ = pipeCl.HandleStatus(torn)
	for _, req := range burst {
		_, _ = pipeCl.HandleStatus(req)
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
// half), then every burst status in a single write — more bytes than
// one readiness event may drain. It returns the response frames in
// arrival order, kind byte first.
func tornThenBurst(t *testing.T, addr string, first, torn protocol.StatusRequest, burst []protocol.StatusRequest) [][]byte {
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
	for i := range burst {
		wire = append(wire, statusFrame(uint32(3+i), burst[i])...)
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
// via EPOLLOUT: tiny SO_SNDBUF/SO_RCVBUF, a read of a full readings
// window whose names are long, and a client that only starts reading
// after the server has parked a tail. The complete response — and a
// follow-up request — must still arrive intact.
func TestShortWriteRearm(t *testing.T) {
	svc := newLabService(t, 1)
	id := testDeviceID(0)
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: id, UserID: "u@example.com", UserPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	// A full window of 1 024 readings named by 200 bytes each: the
	// response (about 220 KiB) dwarfs the 4KiB socket buffers.
	want := make([]protocol.Reading, 1024)
	for i := range want {
		want[i] = protocol.Reading{Name: fmt.Sprintf("%s-%04d", strings.Repeat("r", 195), i), Value: float64(i), At: frozenClock()()}
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, Readings: want}); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(svc, WithReadiness(ReadinessEpoll))
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

	var payload bytes.Buffer
	wirecodec.PutReadingsBody(&payload, protocol.ReadingsRequest{DeviceID: id, UserToken: login.UserToken})
	frame := appendFrame(nil, 1, kindReadings, 0, payload.Bytes())
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
	// until the readings response is complete and correct.
	stream, kind, flags, pl, rest := readFrame(t, nc, rest)
	if stream != 1 || kind != kindReadings || flags&flagResponse == 0 {
		t.Fatalf("response frame = stream %d kind 0x%02x flags 0x%02x", stream, kind, flags)
	}
	cur := wirecodec.NewCursor(pl, 0)
	resp := wirecodec.ReadReadingsResponse(cur)
	if !cur.Done() {
		t.Fatalf("decode readings response: %v", cur.Err())
	}
	if !reflect.DeepEqual(resp.Readings, want) {
		t.Fatalf("readings response holds %d readings, not the %d of the window", len(resp.Readings), len(want))
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
	srv, addr := startSocketServer(t, newLabService(t, devices), WithReadiness(ReadinessEpoll))

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
					// Dial and close with zero traffic.
					c, derr := Dial(addr)
					if derr != nil {
						t.Error(derr)
						return
					}
					_ = c.Close()
				default:
					// Real request racing a concurrent Close.
					c, derr := Dial(addr)
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

// TestEpollStatusRoundTripAllocatesNothing: a registered device's
// heartbeat through Dial → loopback socket → epoll poller → a no-op cloud
// and back allocates nothing anywhere in the process, as the pipe round
// trip does — every RawConn callback on the path is built once, and the
// device ID is the cloud's registry string.
func TestEpollStatusRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := startSocketServer(t, statusCloud{status: func(protocol.StatusRequest) (protocol.StatusResponse, error) {
		return protocol.StatusResponse{}, nil
	}}, WithReadiness(ReadinessEpoll))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The claimed SourceIP must cost nothing either: the server drops it
	// undecoded and stamps the peer address.
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
// strings on the server (bind 3: device ID, token and key; control 4:
// device ID, token, command ID and name; readings 2: device ID and token;
// unbind 3: device ID, token and key — the no-op cloud holds no registry,
// so each device ID is copied, and the source-address claim is sent
// empty), the bound user, the reading list and its one name on the
// client. The JSON envelope this replaced cost 29-35 allocations per
// operation on top of those.
func TestColdCycleAllocatesOnlyItsStrings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := startSocketServer(t, coldCloud{}, WithReadiness(ReadinessEpoll))
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
	if avg := testing.AllocsPerRun(1000, cycle); avg != strings {
		t.Fatalf("a four-operation cold cycle allocates %.1f times, want the %d strings and lists it decodes", avg, strings)
	}
}

// idCloud is a cloud with a registry: it answers transport.Canonical
// for device IDs from reg, copying any other kind, and checks, for every
// request it serves, that a registered device's ID arrived as the
// registry's own string and any other ID as a fresh copy of its bytes —
// never the copy an earlier request delivered.
// It also accepts a request only when its credential is "tok-" and the
// device ID it arrived with, so an ID decoded from another connection's
// request is refused too. Status requests carry the credential as their
// device token.
type idCloud struct {
	transport.Cloud
	reg map[string]string

	mu   sync.Mutex
	last map[string]string // the previous delivery of each unregistered ID
}

func newIDCloud(registered []string) *idCloud {
	c := &idCloud{reg: map[string]string{}, last: map[string]string{}}
	for _, id := range registered {
		c.reg[id] = id
	}
	return c
}

func (c *idCloud) Canonical(kind protocol.Held, raw []byte) string {
	if id, ok := c.reg[string(raw)]; ok && kind == protocol.HeldDevice {
		return id
	}
	return string(raw)
}

func (c *idCloud) check(deviceID, credential string) error {
	if credential != "tok-"+deviceID {
		return fmt.Errorf("request for %q arrived carrying %q: %w", deviceID, credential, protocol.ErrBadRequest)
	}
	if id, ok := c.reg[deviceID]; ok {
		if unsafe.StringData(deviceID) != unsafe.StringData(id) {
			return fmt.Errorf("registered %q arrived as a copy, not the registry's string: %w", deviceID, protocol.ErrBadRequest)
		}
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.last[deviceID]; ok && unsafe.StringData(prev) == unsafe.StringData(deviceID) {
		return fmt.Errorf("unregistered %q arrived as an earlier request's string: %w", deviceID, protocol.ErrBadRequest)
	}
	c.last[deviceID] = deviceID
	return nil
}

func (c *idCloud) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	return protocol.StatusResponse{Bound: true}, c.check(req.DeviceID, req.DevToken)
}

func (c *idCloud) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	return protocol.BindResponse{BoundUser: req.DeviceID}, c.check(req.DeviceID, req.UserToken)
}

func (c *idCloud) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	return protocol.DelegateResponse{DelegationToken: req.DeviceID}, c.check(req.DeviceID, req.UserToken)
}

func (c *idCloud) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	return protocol.ControlResponse{Queued: true}, c.check(req.DeviceID, req.UserToken)
}

func (c *idCloud) HandleUnbind(req protocol.UnbindRequest) error {
	return c.check(req.DeviceID, req.UserToken)
}

// withPollers gives an epoll server n pollers in place of GOMAXPROCS —
// one, for the tests that need every socket on the same poller. Call it
// before the server accepts anything.
func withPollers(srv *Server, n int) *Server {
	srv.pollers = make([]*epoller, n)
	return srv
}

// TestDialStartsNoGoroutine: a Dial'd client runs no goroutine of its
// own, idle or after a call — its caller reads its response. The
// server's one poller is started by a first client before the count.
func TestDialStartsNoGoroutine(t *testing.T) {
	if !EpollSupported() {
		t.Skip("a pump server starts a goroutine per socket")
	}
	const clients = 20
	_, addr := serveSocket(t, withPollers(NewServer(echoCloud(), WithReadiness(ReadinessEpoll)), 1))
	warm, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: statusID}); err != nil {
		t.Fatal(err)
	}
	// Goroutines a previous test left may still be exiting, so the count
	// may fall; it must not rise.
	base := runtime.NumGoroutine()
	for i := 0; i < clients; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDeviceID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines with %d more clients open, %d before them", got, clients, base)
	}
}

// TestEpollServerGoroutines: an epoll server runs one goroutine per live
// poller and none per socket. Pollers start with the first socket
// assigned to them, round-robin, so one socket starts one and five
// sockets start both of two.
func TestEpollServerGoroutines(t *testing.T) {
	srv, addr := serveSocket(t, withPollers(NewServer(newLabService(t, 5), WithReadiness(ReadinessEpoll)), 2))
	live := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		n := 0
		for _, pl := range srv.pollers {
			if pl != nil {
				n++
			}
		}
		return n
	}
	for i, want := range []int{1, 2, 2, 2, 2} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(i)}); err != nil {
			t.Fatal(err)
		}
		if got := srv.Goroutines(); got != want || got != live() {
			t.Fatalf("after %d sockets: %d server goroutines, %d live pollers, want %d", i+1, got, live(), want)
		}
	}
}

// TestServedDeviceIDsAreTheRegistrys: every request body's device ID is
// read through the cloud's registry, status and cold rows alike —
// a registered device's as the registry's own string, any other as a
// fresh copy. Two epoll sockets (served by the one poller) and a pipe
// (served by its client's goroutine) each walk their own devices,
// registered and not, through bind, delegate, control and unbind, with a
// heartbeat to each of two devices between steps. Under -race, two serving
// goroutines reading IDs through one registry show any unsynchronised
// state on that path.
func TestServedDeviceIDsAreTheRegistrys(t *testing.T) {
	var registered []string
	for n := 0; n < 3; n++ {
		for i := 0; i < 5; i += 2 {
			registered = append(registered, testDeviceID(1000*n+i), testDeviceID(1000*n+500+i))
		}
	}
	srv, addr := serveSocket(t, withPollers(NewServer(newIDCloud(registered), WithReadiness(ReadinessEpoll)), 1))
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	pc, err := srv.Pipe("198.51.100.1")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	clients = append(clients, pc)

	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for n, c := range clients {
		wg.Add(1)
		go func(n int, c *Client) {
			defer wg.Done()
			heartbeats := func(i int) error {
				id := testDeviceID(1000*n + 500 + i%7)
				if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, DevToken: "tok-" + id}); err != nil {
					return err
				}
				other := testDeviceID(1000*n + 500 + (i+1)%7)
				_, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: other, DevToken: "tok-" + other})
				return err
			}
			for i := 0; i < rounds; i++ {
				id := testDeviceID(1000*n + i%5)
				tok := "tok-" + id
				steps := []func() error{
					func() error {
						_, err := c.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
						return err
					},
					func() error {
						_, err := c.HandleDelegate(protocol.DelegateRequest{DeviceID: id, UserToken: tok, Grantee: "g@x"})
						return err
					},
					func() error {
						_, err := c.HandleControl(protocol.ControlRequest{DeviceID: id, UserToken: tok,
							Command: protocol.Command{ID: "c", Name: "on"}})
						return err
					},
					func() error {
						return c.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: tok, Sender: core.SenderApp})
					},
				}
				for j, step := range steps {
					if err := step(); err != nil {
						errs <- fmt.Errorf("connection %d round %d step %d: %w", n, i, j, err)
						return
					}
					if err := heartbeats(i + j); err != nil {
						errs <- fmt.Errorf("connection %d round %d heartbeats %d: %w", n, i, j, err)
						return
					}
				}
			}
		}(n, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// keyKeeper cannot answer transport.Canonical, and keeps every keyed
// request's idempotency key and source address, and a control's command
// name and source address, as they arrived, beside a copy made on
// arrival: a cloud that does not answer may keep them.
type keyKeeper struct {
	transport.Cloud
	mu   sync.Mutex
	kept [][2]string // as arrived, and its copy
}

func (k *keyKeeper) keep(fields ...string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, f := range fields {
		k.kept = append(k.kept, [2]string{f, strings.Clone(f)})
	}
}

func (k *keyKeeper) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	k.keep(req.IdempotencyKey, req.SourceIP)
	return protocol.StatusResponse{}, nil
}

func (k *keyKeeper) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	k.keep(req.IdempotencyKey, req.SourceIP)
	return protocol.BindResponse{}, nil
}

func (k *keyKeeper) HandleUnbind(req protocol.UnbindRequest) error {
	k.keep(req.IdempotencyKey, req.SourceIP)
	return nil
}

func (k *keyKeeper) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	k.keep(req.Command.Name, req.SourceIP)
	return protocol.ControlResponse{}, nil
}

func (k *keyKeeper) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	k.keep(req.IdempotencyKey)
	return protocol.DelegateResponse{DelegationToken: "d"}, nil
}

func (k *keyKeeper) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	k.keep(req.IdempotencyKey)
	return nil
}

// TestServedKeysOutliveTheirFrames: a cloud that cannot answer
// transport.Canonical may keep a request's strings, so the server must
// hand it a copy of every idempotency key, source address and command
// name where a cloud answering for the call (protocol.HeldCall) gets its
// input's bytes. A keeper behind the server, and one swapped in behind a
// transport.Switchable whose service backend borrowed the keys before,
// keeps the key and source address of every keyed status, bind,
// unbind, delegate and revoke, and a control's name and address, while
// two serving goroutines — a poller and a pipe's writer — decode later
// frames over the same inbound bytes, each connection closed after a few
// requests so the next one takes its recycled buffer. Every kept string
// still equals what arrived, and what arrived is what was sent. Behind a
// service, which answers, a control's name is the service's name-table
// string, or a copy for a name too long to hold: kept behind it, it
// still reads as sent once its frame is reused.
func TestServedKeysOutliveTheirFrames(t *testing.T) {
	k := &keyKeeper{}
	sw := transport.NewSwitchable(newLabService(t, 1))
	raw := []byte("k-switched")
	if got := sw.Canonical(protocol.HeldCall, raw); got != "k-switched" || unsafe.StringData(got) != unsafe.SliceData(raw) {
		t.Fatalf("a Switchable over a service answers a key with %q, not the key's bytes", got)
	}
	sw.Swap(k)
	if got := sw.Canonical(protocol.HeldCall, raw); got != "k-switched" || unsafe.StringData(got) == unsafe.SliceData(raw) {
		t.Fatalf("a Switchable over a keeper answers a key with %q, not a copy", got)
	}
	for _, c := range []struct {
		name  string
		cloud transport.Cloud
	}{{"direct", k}, {"switched", sw}} {
		t.Run(c.name, func(t *testing.T) {
			sent := serveKeyed(t, c.cloud)
			k.mu.Lock()
			all := k.kept
			k.kept = nil
			k.mu.Unlock()
			arrived := map[string]int{}
			for _, kept := range all {
				if kept[0] != kept[1] {
					t.Errorf("a kept string arrived as %q and now reads %q", kept[1], kept[0])
				}
				arrived[kept[1]]++
			}
			if !reflect.DeepEqual(arrived, sent) {
				t.Errorf("the %d strings that arrived are not the ones sent", len(all))
			}
		})
	}
	t.Run("service", servedNamesOutliveTheirFrames)
}

// nameKeeper is a service that keeps each control's command name as the
// server handed it, beside a copy made on arrival.
type nameKeeper struct {
	*cloud.Service
	k *keyKeeper
}

func (n nameKeeper) HandleControl(req protocol.ControlRequest) (protocol.ControlResponse, error) {
	n.k.keep(req.Command.Name)
	return n.Service.HandleControl(req)
}

// servedNamesOutliveTheirFrames is TestServedKeysOutliveTheirFrames
// behind a service: a socket client and a pipe each send, in rounds of
// one connection, controls named turn_on, a name of their own and a name
// longer than the table holds.
func servedNamesOutliveTheirFrames(t *testing.T) {
	const rounds, pipeSrc = 20, "198.51.100.1"
	svc := newLabService(t, 2)
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "u@example.com", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u@example.com", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDeviceID(n)}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDeviceID(n), UserID: "u@example.com", UserPassword: "pw"}); err != nil {
			t.Fatal(err)
		}
	}
	k := &keyKeeper{}
	srv, addr := serveSocket(t, withPollers(NewServer(nameKeeper{svc, k}, WithReadiness(ReadinessEpoll)), 1))
	long := func(n, i int) string { return fmt.Sprintf("%s-%d-%03d", strings.Repeat("x", 64), n, i) }
	var wg sync.WaitGroup
	for n, src := range []string{"127.0.0.1", pipeSrc} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var cl *Client
				var err error
				if src == pipeSrc {
					cl, err = srv.Pipe(pipeSrc)
				} else {
					cl, err = Dial(addr)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for _, name := range []string{"turn_on", fmt.Sprintf("dim-%d-%03d", n, i), long(n, i)} {
					if _, err := cl.HandleControl(protocol.ControlRequest{DeviceID: testDeviceID(n), UserToken: login.UserToken,
						Command: protocol.Command{ID: "c", Name: name}}); err != nil {
						t.Errorf("connection %d round %d %s: %v", n, i, name, err)
					}
				}
				cl.Close()
			}
		}()
	}
	wg.Wait()
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.kept) != 2*rounds*3 {
		t.Fatalf("%d names kept, want %d", len(k.kept), 2*rounds*3)
	}
	for _, kept := range k.kept {
		name, arrived := kept[0], kept[1]
		if name != arrived {
			t.Errorf("a kept name arrived as %q and now reads %q", arrived, name)
			continue
		}
		// A name of its own arrives once, a copy, which its acceptance
		// makes the table's string.
		if table := svc.Canonical(protocol.HeldName, []byte(name)); strings.HasPrefix(name, "dim-") && unsafe.StringData(name) != unsafe.StringData(table) {
			t.Errorf("%q, accepted once, is not the table's string", name)
		}
	}
}

// serveKeyed serves c from one poller, and drives it from a socket
// client and a pipe at once, each through rounds of one connection
// that sends every keyed operation and a control once. It returns the
// strings a keeper of each request's key, command name and source
// address should hold, counted
// (the order between the two connections is scheduling).
func serveKeyed(t *testing.T, c transport.Cloud) map[string]int {
	const rounds, pipeSrc = 20, "198.51.100.1"
	srv, addr := serveSocket(t, withPollers(NewServer(c, WithReadiness(ReadinessEpoll)), 1))
	sent := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for n, src := range []string{"127.0.0.1", pipeSrc} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var cl *Client
				var err error
				if src == pipeSrc {
					cl, err = srv.Pipe(pipeSrc)
				} else {
					cl, err = Dial(addr)
				}
				if err != nil {
					t.Error(err)
					return
				}
				key := func(j int) string { return fmt.Sprintf("key-%d-%03d-%d", n, i, j) }
				id := testDeviceID(n)
				errs := []error{
					func() error {
						_, err := cl.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: key(0)})
						return err
					}(),
					func() error {
						_, err := cl.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: key(1)})
						return err
					}(),
					func() error {
						_, err := cl.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id, IdempotencyKey: key(2)})
						return err
					}(),
					func() error {
						_, err := cl.HandleBind(protocol.BindRequest{DeviceID: id, Sender: core.SenderApp, IdempotencyKey: key(3)})
						return err
					}(),
					cl.HandleUnbind(protocol.UnbindRequest{DeviceID: id, Sender: core.SenderApp, IdempotencyKey: key(4)}),
					func() error {
						_, err := cl.HandleDelegate(protocol.DelegateRequest{DeviceID: id, Grantee: "g@x", IdempotencyKey: key(5)})
						return err
					}(),
					cl.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: id, Grantee: "g@x", IdempotencyKey: key(6)}),
					func() error {
						_, err := cl.HandleControl(protocol.ControlRequest{DeviceID: id, Command: protocol.Command{ID: "c", Name: key(7)}})
						return err
					}(),
				}
				cl.Close()
				if err := errors.Join(errs...); err != nil {
					t.Errorf("connection %d round %d: %v", n, i, err)
					return
				}
				mu.Lock()
				for j := 0; j <= 7; j++ {
					sent[key(j)]++
				}
				sent[src] += 6 // the three statuses, the bind, the unbind and the control are stamped
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sent
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
	srv := NewServer(newLabService(t, 1), WithReadiness(ReadinessEpoll))
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
	srv, addr := startSocketServer(t, newLabService(t, 1), WithReadiness(ReadinessEpoll))
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

// TestEpollBusyPollerKeepsEdges: with one poller both connections share
// it, and it serves in place — while it is parked inside the
// cloud on the first connection's request it harvests nothing. A second
// connection's request that arrives meanwhile must be answered as soon
// as the first returns: its edge waits in the epoll set, it is not lost.
func TestEpollBusyPollerKeepsEdges(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	_, addr := serveSocket(t, withPollers(NewServer(statusCloud{status: func(req protocol.StatusRequest) (protocol.StatusResponse, error) {
		if req.DeviceID == testDeviceID(0) {
			close(entered)
			<-release
		}
		return protocol.StatusResponse{}, nil
	}}, WithReadiness(ReadinessEpoll)), 1))

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

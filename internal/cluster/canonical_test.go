package cluster

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// serveSocket serves c over a loopback socket through binapi and dials
// it; both close with the test.
func serveSocket(t *testing.T, c transport.Cloud) *binapi.Client {
	t.Helper()
	srv := binapi.NewServer(c)
	t.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	client, err := binapi.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// newColdNode opens an ack-after-replicate node on coldDesign with ids
// registered, reading the given clock.
func newColdNode(t *testing.T, name string, clock func() time.Time, ids ...string) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Name: name, Dir: filepath.Join(t.TempDir(), name), Design: coldDesign(), Registry: labRegistry(t, ids...),
		Clock: clock, WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff}, AckAfterReplicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// newRouterOver builds a router whose ring holds one member per cloud,
// by name.
func newRouterOver(t *testing.T, clouds map[string]transport.Cloud) *Router {
	t.Helper()
	var names []string
	members := make(map[string]*transport.Switchable, len(clouds))
	for name, c := range clouds {
		names = append(names, name)
		members[name] = transport.NewSwitchable(c)
	}
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(ring, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// heldSpy stands between the router and a node and keeps the strings
// the last request of each operation arrived with, by field. It embeds
// the node, so transport.Canonical is still answered through it.
type heldSpy struct {
	*Node
	mu   sync.Mutex
	seen map[string]string
}

func newHeldSpy(n *Node) *heldSpy { return &heldSpy{Node: n, seen: map[string]string{}} }

func (s *heldSpy) saw(fields ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(fields); i += 2 {
		s.seen[fields[i]] = fields[i+1]
	}
}

func (s *heldSpy) get(field string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[field]
}

func (s *heldSpy) RegisterUser(req protocol.RegisterUserRequest) error {
	s.saw("register.UserID", req.UserID, "register.Password", req.Password)
	return s.Node.RegisterUser(req)
}

func (s *heldSpy) Login(req protocol.LoginRequest) (protocol.LoginResponse, error) {
	s.saw("login.UserID", req.UserID, "login.Password", req.Password)
	return s.Node.Login(req)
}

func (s *heldSpy) HandleBind(req protocol.BindRequest) (protocol.BindResponse, error) {
	s.saw("bind.UserToken", req.UserToken, "bind.UserID", req.UserID, "bind.UserPassword", req.UserPassword)
	return s.Node.HandleBind(req)
}

func (s *heldSpy) HandleDelegate(req protocol.DelegateRequest) (protocol.DelegateResponse, error) {
	s.saw("delegate.UserToken", req.UserToken, "delegate.Grantee", req.Grantee)
	return s.Node.HandleDelegate(req)
}

func (s *heldSpy) Readings(req protocol.ReadingsRequest) (protocol.ReadingsResponse, error) {
	s.saw("readings.UserToken", req.UserToken)
	return s.Node.Readings(req)
}

func (s *heldSpy) HandleRevokeDelegation(req protocol.RevokeDelegationRequest) error {
	s.saw("revoke.UserToken", req.UserToken, "revoke.Grantee", req.Grantee)
	return s.Node.HandleRevokeDelegation(req)
}

// heldStrings indexes the strings a durable store holds — every live
// token's value and every account's ID and password — by their bytes.
func heldStrings(d *cloud.Durable) map[string]string {
	snap := d.Snapshot()
	held := map[string]string{}
	for _, tok := range snap.Tokens {
		held[tok.Value] = tok.Value
	}
	for id, pw := range snap.Accounts {
		held[id] = id
		held["password:"+id] = pw
	}
	return held
}

// isHeld reports whether s is the store's own string for its bytes.
func isHeld(held map[string]string, key, s string) bool {
	h, ok := held[key]
	return ok && unsafe.StringData(h) == unsafe.StringData(s)
}

// arrived requires that field last arrived as want, and as the node's
// primary's own string for key exactly when held.
func (s *heldSpy) arrived(t *testing.T, field, key, want string, held bool) {
	t.Helper()
	got := s.get(field)
	if got != want {
		t.Fatalf("%s on %s arrived as %q, want %q", field, s.Name(), got, want)
	}
	if is := isHeld(heldStrings(s.Primary()), key, got); is != held {
		t.Errorf("%s %q on %s is the store's own string: %t, want %t", field, want, s.Name(), is, held)
	}
}

// TestServedCredentialsAreTheIssuers: over binapi → one-member router →
// node, a live user token, a delegation token and a grantee arrive as the
// primary's own strings — its token issuer's and its account store's. A
// credential the issuer would refuse — unknown, a prefix or an extension
// of a live one, revoked, expired — arrives as a fresh copy of its bytes
// and is refused with the same text as before the canonicaliser. A
// login's, sign-up's or bind's user ID and password never arrive as the
// store's: those handlers keep an account's existence from leaking.
func TestServedCredentialsAreTheIssuers(t *testing.T) {
	const dev = "AA:BB:CC:05:00:01"
	var skew atomic.Int64
	at := labClock()()
	n := newColdNode(t, "n0", func() time.Time { return at.Add(time.Duration(skew.Load())) }, dev)
	spy := newHeldSpy(n)
	c := serveSocket(t, newRouterOver(t, map[string]transport.Cloud{"n0": spy}))

	for _, user := range []string{"owner@lab", "guest@lab"} {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw-" + user}); err != nil {
			t.Fatal(err)
		}
	}
	login, err := c.Login(protocol.LoginRequest{UserID: "owner@lab", Password: "pw-owner@lab"})
	if err != nil {
		t.Fatal(err)
	}
	owner := login.UserToken
	if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: dev}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.HandleBind(protocol.BindRequest{DeviceID: dev, UserToken: owner, Sender: core.SenderApp, IdempotencyKey: "b1"}); err != nil {
		t.Fatal(err)
	}
	spy.arrived(t, "bind.UserToken", owner, owner, true)
	grant := func(ttl int64, key string) string {
		t.Helper()
		resp, err := c.HandleDelegate(protocol.DelegateRequest{DeviceID: dev, UserToken: owner, Grantee: "guest@lab",
			Scopes: []string{"control", "read"}, TTLSeconds: ttl, IdempotencyKey: key})
		if err != nil {
			t.Fatal(err)
		}
		spy.arrived(t, "delegate.UserToken", owner, owner, true)
		spy.arrived(t, "delegate.Grantee", "guest@lab", "guest@lab", true)
		return resp.DelegationToken
	}
	deleg := grant(3600, "d1")
	if _, err := c.Readings(protocol.ReadingsRequest{DeviceID: dev, UserToken: deleg}); err != nil {
		t.Fatal(err)
	}
	spy.arrived(t, "readings.UserToken", deleg, deleg, true)

	// refused reads and binds with a credential the issuer holds no live
	// token for: it arrives as a copy each time and is refused with the
	// texts given.
	refused := func(tok, readings, bind string) {
		t.Helper()
		_, err := c.Readings(protocol.ReadingsRequest{DeviceID: dev, UserToken: tok})
		if err == nil || err.Error() != readings {
			t.Errorf("readings with %q: %v, want %q", tok, err, readings)
		}
		spy.arrived(t, "readings.UserToken", tok, tok, false)
		_, err = c.HandleBind(protocol.BindRequest{DeviceID: dev, UserToken: tok, Sender: core.SenderApp})
		if err == nil || err.Error() != bind {
			t.Errorf("bind with %q: %v, want %q", tok, err, bind)
		}
		spy.arrived(t, "bind.UserToken", tok, tok, false)
	}
	const (
		noCred  = "cloud: protocol: authentication failed: no user or delegation credential: protocol: authentication failed"
		unknown = "cloud: protocol: authentication failed: token: unknown or revoked token: protocol: authentication failed"
		kind    = "cloud: protocol: authentication failed: token: wrong token kind: have DelegationToken, want UserToken: protocol: authentication failed"
	)
	for _, tok := range []string{owner, deleg} {
		refused(tok[:len(tok)-1], noCred, unknown)
		refused(tok+"0", noCred, unknown)
	}
	refused("00112233445566778899aabbccddeeff", noCred, unknown)

	if err := c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: dev, UserToken: owner, Grantee: "guest@lab", IdempotencyKey: "r1"}); err != nil {
		t.Fatal(err)
	}
	spy.arrived(t, "revoke.UserToken", owner, owner, true)
	spy.arrived(t, "revoke.Grantee", "guest@lab", "guest@lab", true)
	refused(deleg, noCred, unknown)

	expiring := grant(1, "d2")
	skew.Store(int64(2 * time.Second))
	refused(expiring, noCred, kind)

	// Account existence stays hidden: the sign-up, login and bind fields
	// are copies even when they name an existing account.
	if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: "owner@lab", Password: "pw-owner@lab"}); err == nil {
		t.Fatal("a second sign-up of owner@lab succeeded")
	}
	spy.arrived(t, "register.UserID", "owner@lab", "owner@lab", false)
	spy.arrived(t, "register.Password", "password:owner@lab", "pw-owner@lab", false)
	if _, err := c.Login(protocol.LoginRequest{UserID: "owner@lab", Password: "pw-owner@lab"}); err != nil {
		t.Fatal(err)
	}
	spy.arrived(t, "login.UserID", "owner@lab", "owner@lab", false)
	spy.arrived(t, "login.Password", "password:owner@lab", "pw-owner@lab", false)
	_, _ = c.HandleBind(protocol.BindRequest{DeviceID: dev, UserID: "guest@lab", UserPassword: "pw-guest@lab", Sender: core.SenderApp})
	spy.arrived(t, "bind.UserID", "guest@lab", "guest@lab", false)
	spy.arrived(t, "bind.UserPassword", "password:guest@lab", "pw-guest@lab", false)
}

// TestThreeNodeRingHeldStrings: over binapi → three-member router →
// nodes, a grantee arrives as the account store's own string of the node
// that serves the device (RegisterUser broadcast one decoded string to
// all three, so whichever member the router asks answers with it), while
// a credential arrives as a copy of its bytes on every node, the issuing
// one included. Tokens are node-affine, so the owner's token works only
// on devices its login's node owns and is refused everywhere else; every
// request's outcome is pinned, and equals what it was before credentials
// were canonicalised.
func TestThreeNodeRingHeldStrings(t *testing.T) {
	var ids []string
	for i := 0; i < 12; i++ {
		ids = append(ids, fmt.Sprintf("AA:BB:%02X:06:00:00", i))
	}
	spies := map[string]*heldSpy{}
	clouds := map[string]transport.Cloud{}
	for _, name := range []string{"n0", "n1", "n2"} {
		spies[name] = newHeldSpy(newColdNode(t, name, labClock(), ids...))
		clouds[name] = spies[name]
	}
	r := newRouterOver(t, clouds)
	c := serveSocket(t, r)
	for _, user := range []string{"owner@lab", "guest@lab"} {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: "pw"}); err != nil {
			t.Fatal(err)
		}
	}
	login, err := c.Login(protocol.LoginRequest{UserID: "owner@lab", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	owner := login.UserToken

	const (
		unknown = "cloud: protocol: authentication failed: token: unknown or revoked token: protocol: authentication failed"
		noCred  = "cloud: protocol: authentication failed: no user or delegation credential: protocol: authentication failed"
		unbound = "cloud: protocol: device not bound: protocol: device not bound"
	)
	var got, want []string
	outcome := func(id, step string, err error) {
		if err != nil {
			got = append(got, id+" "+step+": "+err.Error())
		} else {
			got = append(got, id+" "+step+": ok")
		}
	}
	home, elsewhere := 0, 0
	for _, id := range ids {
		name := r.Ring().Owner(id)
		if name == r.Ring().Owner("owner@lab") {
			home++
			for _, step := range []string{"bind", "delegate", "readings", "revoke", "unbind"} {
				want = append(want, id+" "+step+": ok")
			}
		} else {
			elsewhere++
			want = append(want, id+" bind: "+unknown, id+" delegate: "+unknown, id+" readings: "+noCred,
				id+" revoke: "+unknown, id+" unbind: "+unbound)
		}
		spy := spies[name]
		if _, err := c.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
		_, err := c.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: owner, Sender: core.SenderApp, IdempotencyKey: "b-" + id})
		spy.arrived(t, "bind.UserToken", owner, owner, false)
		outcome(id, "bind", err)
		resp, err := c.HandleDelegate(protocol.DelegateRequest{DeviceID: id, UserToken: owner, Grantee: "guest@lab",
			Scopes: []string{"control", "read"}, TTLSeconds: 3600, IdempotencyKey: "d-" + id})
		spy.arrived(t, "delegate.UserToken", owner, owner, false)
		spy.arrived(t, "delegate.Grantee", "guest@lab", "guest@lab", true)
		outcome(id, "delegate", err)
		_, err = c.Readings(protocol.ReadingsRequest{DeviceID: id, UserToken: resp.DelegationToken})
		outcome(id, "readings", err)
		err = c.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: id, UserToken: owner, Grantee: "guest@lab", IdempotencyKey: "r-" + id})
		spy.arrived(t, "revoke.Grantee", "guest@lab", "guest@lab", true)
		outcome(id, "revoke", err)
		err = c.HandleUnbind(protocol.UnbindRequest{DeviceID: id, UserToken: owner, Sender: core.SenderApp, IdempotencyKey: "u-" + id})
		outcome(id, "unbind", err)
	}
	if home == 0 || elsewhere == 0 {
		t.Fatalf("%d devices share the owner's login node and %d do not; want some of each", home, elsewhere)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("outcomes:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

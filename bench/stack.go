package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/cluster"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

const (
	// conns is the closed loop's client count: one generator goroutine
	// and one request in flight per connection. Fixed at the sandbox's
	// two cores on purpose — scaling it with nproc would change the
	// workload between machines.
	conns = 2

	nodeName  = "node-0"
	walShards = 4
	sourceIP  = "127.0.0.1"

	ownerID, ownerPW = "owner@bench.example", "owner-pw"
	guestID, guestPW = "guest@bench.example", "guest-pw"
)

// epoch is the frozen service clock. A frozen clock keeps every device
// online however long a run lasts (no 60 s heartbeat expiry between a
// device's registration and its control), and makes lastSeen a constant
// so primary and replica snapshots compare byte for byte even though
// bare heartbeats are never logged.
var epoch = time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)

func frozenNow() time.Time { return epoch }

// benchDesign is the bench_delegation_test.go posture: device-ID
// authentication, app-initiated ACL binding, token-authenticated
// unbind, bound-user checks both ways, strict delegation.
func benchDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                       "bench-stack",
		DeviceAuth:                 core.AuthDevID,
		Binding:                    core.BindACLApp,
		UnbindForms:                []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:       true,
		CheckBoundUserOnUnbind:     true,
		DelegationScopeAttenuation: true,
		DelegationCascadeRevoke:    true,
		DelegationCheckAtUse:       true,
	}
}

// newFleet returns n device IDs and a registry holding them.
func newFleet(n int) ([]string, *cloud.Registry, error) {
	ids := make([]string, n)
	reg := cloud.NewRegistry()
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:%02X:%02X:%02X", (i>>16)&0xff, (i>>8)&0xff, i&0xff)
		if err := reg.Add(cloud.DeviceRecord{ID: ids[i], FactorySecret: "factory-secret-" + ids[i], Model: "bench"}); err != nil {
			return nil, nil, err
		}
	}
	return ids, reg, nil
}

// seamWrap interposes on one of the three seams the benchmark can reach
// from outside ("client", "router", "node"). Timed runs pass nil: the
// end-to-end metrics are taken with no decorator in the path.
type seamWrap func(seam string, c transport.Cloud) transport.Cloud

func (w seamWrap) wrap(seam string, c transport.Cloud) transport.Cloud {
	if w == nil {
		return c
	}
	return w(seam, c)
}

// stack is the composed deployment in one process: loopback listener →
// binapi.Server → cluster.Router over a one-member ring → Switchable →
// ack-after-replicate cluster.Node → primary+follower cloud.Durable →
// cloud.Service.
type stack struct {
	dir    string
	ids    []string
	node   *cluster.Node
	router transport.Cloud // the router as the server sees it
	server *binapi.Server
	served chan error
	fronts []transport.Cloud // socket clients as the generators see them
	socks  []*binapi.Client
}

// newNode opens a node under dir. ack selects ack-after-replicate.
func newNode(dir string, reg *cloud.Registry, ack bool) (*cluster.Node, error) {
	return cluster.NewNode(cluster.NodeConfig{
		Name:              nodeName,
		Dir:               dir,
		Design:            benchDesign(),
		Registry:          reg,
		Clock:             frozenNow,
		WALShards:         walShards,
		WAL:               wal.Options{Policy: wal.SyncOff},
		AckAfterReplicate: ack,
	})
}

// newRouter puts a backend behind a Switchable on a one-member ring. One
// member because a user token verifies only on the node that issued it
// (DESIGN §10) and bind_churn is token-bearing; the router still does
// its ring lookup and Switchable hop on every request.
func newRouter(backend transport.Cloud) (*cluster.Router, error) {
	ring, err := cluster.NewRing([]string{nodeName}, 0)
	if err != nil {
		return nil, err
	}
	return cluster.NewRouter(ring, map[string]*transport.Switchable{nodeName: transport.NewSwitchable(backend)})
}

// newStack builds the deployment for a fleet of n devices under a fresh
// directory in scratch and dials the closed loop's connections.
func newStack(scratch string, n int, wrap seamWrap) (*stack, error) {
	ids, reg, err := newFleet(n)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "stack-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, ids: ids}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()
	if st.node, err = newNode(filepath.Join(dir, nodeName), reg, true); err != nil {
		return nil, err
	}
	router, err := newRouter(wrap.wrap("node", st.node))
	if err != nil {
		return nil, err
	}
	st.router = wrap.wrap("router", router)
	st.server = binapi.NewServer(st.router)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.server.Serve(l) }()
	for i := 0; i < conns; i++ {
		c, err := binapi.Dial(l.Addr().String())
		if err != nil {
			return nil, err
		}
		st.socks = append(st.socks, c)
		st.fronts = append(st.fronts, wrap.wrap("client", c))
	}
	ok = true
	return st, nil
}

// Close stops the server, waits for its accept loop, closes the stores
// and removes the WAL directories.
func (st *stack) Close() error {
	var errs []error
	for _, c := range st.socks {
		errs = append(errs, c.Close())
	}
	if st.server != nil {
		errs = append(errs, st.server.Close())
	}
	if st.served != nil {
		<-st.served // Serve returns once Close has shut the listener
	}
	if st.node != nil {
		errs = append(errs, st.node.Close())
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

// creds are the two logged-in accounts every serving workload uses.
type creds struct{ owner, guest string }

// enroll creates the owner and guest accounts on c and logs both in.
func enroll(c transport.Cloud) (creds, error) {
	var cr creds
	for _, u := range []struct {
		id, pw string
		tok    *string
	}{{ownerID, ownerPW, &cr.owner}, {guestID, guestPW, &cr.guest}} {
		if err := c.RegisterUser(protocol.RegisterUserRequest{UserID: u.id, Password: u.pw}); err != nil {
			return cr, fmt.Errorf("register %s: %w", u.id, err)
		}
		login, err := c.Login(protocol.LoginRequest{UserID: u.id, Password: u.pw})
		if err != nil {
			return cr, fmt.Errorf("login %s: %w", u.id, err)
		}
		*u.tok = login.UserToken
	}
	return cr, nil
}

// provision registers each device on c and, when bound is set, binds it
// to the owner: the state a workload's fleet starts from.
func provision(c transport.Cloud, ids []string, owner string, bound bool) error {
	for _, id := range ids {
		if _, err := c.HandleStatus(protocol.StatusRequest{
			Kind: protocol.StatusRegister, DeviceID: id, Firmware: "1.0", Model: "bench", SourceIP: sourceIP,
		}); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
		if !bound {
			continue
		}
		if _, err := c.HandleBind(protocol.BindRequest{
			DeviceID: id, UserToken: owner, Sender: core.SenderApp, SourceIP: sourceIP, IdempotencyKey: "setup-bind-" + id,
		}); err != nil {
			return fmt.Errorf("bind %s: %w", id, err)
		}
	}
	return nil
}

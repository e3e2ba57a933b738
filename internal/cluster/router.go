package cluster

import (
	"fmt"
	"unsafe"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// Router fronts the fleet as one transport.Cloud: device-addressed
// requests go to the ring owner of the device ID, account-addressed
// ones to the owner of the user ID, and account creation broadcasts
// (any node may later authenticate the user for its own devices'
// binds). Each member sits behind a transport.Switchable, so a
// failover — swap the promoted replica in behind the dead primary's
// name — is invisible to the router and to every agent above it.
type Router struct {
	// Hopped forwards every single-key operation to its owner;
	// RegisterUser below is the one operation that addresses more than
	// one node.
	transport.Hopped
	ring    *Ring
	members map[string]*transport.Switchable
	all     []*transport.Switchable // the members in ring order
}

// NewRouter builds a router over the ring's members. members must hold
// exactly the ring's node names.
func NewRouter(ring *Ring, members map[string]*transport.Switchable) (*Router, error) {
	for _, name := range ring.Nodes() {
		if members[name] == nil {
			return nil, fmt.Errorf("cluster: router missing member %q", name)
		}
	}
	if len(members) != len(ring.Nodes()) {
		return nil, fmt.Errorf("cluster: router has %d members for a %d-node ring", len(members), len(ring.Nodes()))
	}
	r := &Router{ring: ring, members: members}
	for _, name := range ring.Nodes() {
		r.all = append(r.all, members[name])
	}
	r.Hopped = transport.NewHopped(routerHop{r})
	return r, nil
}

// Member returns the Switchable behind a node name (the failover hook).
func (r *Router) Member(name string) *transport.Switchable { return r.members[name] }

// Ring returns the ring (ownership diagnostics).
func (r *Router) Ring() *Ring { return r.ring }

// routerHop routes by ring owner of the routing key: the device ID, or
// for login the user ID — the token a login issues verifies only on the
// node that issued it, so every later token-bearing call for it must
// route the same way, which UserID-keyed routing guarantees.
type routerHop struct{ r *Router }

func (h routerHop) Begin(_ transport.Op, key string) (transport.Cloud, error) {
	return h.r.members[h.r.ring.Owner(key)], nil
}

func (h routerHop) End(_ transport.Op, _ int, err error) (bool, error) { return false, err }

// Canonical forwards to a member holding raw: a device ID to its owner, an
// account to any (RegisterUser broadcasts), a credential only on a
// one-member ring (tokens are node-affine; the router knows no issuer).
// A protocol.HeldCall string, which any member may serve, is lent back
// only if every member lends it, and costs no ring lookup.
func (r *Router) Canonical(kind protocol.Held, raw []byte) string {
	switch {
	case kind == protocol.HeldCall:
		var s string
		for _, m := range r.all {
			if s = m.Canonical(kind, raw); unsafe.StringData(s) != unsafe.SliceData(raw) {
				return s
			}
		}
		return s
	case kind == protocol.HeldCred && len(r.all) > 1:
		return string(raw)
	}
	return r.members[r.ring.owner(fnv1a32(raw))].Canonical(kind, raw)
}

// RegisterUser broadcasts: accounts must exist everywhere because a
// bind authenticating (UserID, password) lands on the device's owner,
// not the account's. First error wins; a retry after partial success
// reports user-exists from the nodes that already accepted it, so
// harnesses create accounts before any failover window (see DESIGN §10).
func (r *Router) RegisterUser(req protocol.RegisterUserRequest) error {
	for _, name := range r.ring.Nodes() {
		if err := r.members[name].RegisterUser(req); err != nil {
			return err
		}
	}
	return nil
}

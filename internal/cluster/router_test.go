package cluster

import (
	"fmt"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// stampCloud is a fake backend that stamps every response with its own
// name, so routing is observable without real stores. Unimplemented methods panic via the embedded nil interface.
type stampCloud struct {
	transport.Cloud
	name  string
	users []string
	fail  error
}

func (s *stampCloud) RegisterUser(req protocol.RegisterUserRequest) error {
	if s.fail != nil {
		return s.fail
	}
	s.users = append(s.users, req.UserID)
	return nil
}

func (s *stampCloud) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	if s.fail != nil {
		return protocol.StatusResponse{}, s.fail
	}
	return protocol.StatusResponse{SessionNonce: s.name + "/" + req.DeviceID}, nil
}

func newStampRouter(t *testing.T, names ...string) (*Router, map[string]*stampCloud) {
	t.Helper()
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	backends := make(map[string]*stampCloud, len(names))
	members := make(map[string]*transport.Switchable, len(names))
	for _, name := range names {
		backends[name] = &stampCloud{name: name}
		members[name] = transport.NewSwitchable(backends[name])
	}
	r, err := NewRouter(ring, members)
	if err != nil {
		t.Fatal(err)
	}
	return r, backends
}

func TestRouterRoutesByRingOwner(t *testing.T) {
	r, _ := newStampRouter(t, "node-0", "node-1", "node-2")
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("AA:BB:CC:00:%02X:%02X", (i>>8)&0xff, i&0xff)
		resp, err := r.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Ring().Owner(id) + "/" + id; resp.SessionNonce != want {
			t.Fatalf("device %s served by %q, want %q", id, resp.SessionNonce, want)
		}
	}
}

func TestRouterBroadcastsRegisterUser(t *testing.T) {
	r, backends := newStampRouter(t, "node-0", "node-1", "node-2")
	if err := r.RegisterUser(protocol.RegisterUserRequest{UserID: "u@lab", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	for name, b := range backends {
		if len(b.users) != 1 || b.users[0] != "u@lab" {
			t.Fatalf("node %s saw users %v, want [u@lab]", name, b.users)
		}
	}
}

func TestRouterRejectsMismatchedMembership(t *testing.T) {
	ring, err := NewRing([]string{"a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]*transport.Switchable{"a": transport.NewSwitchable(&stampCloud{name: "a"})}
	if _, err := NewRouter(ring, members); err == nil {
		t.Fatal("router accepted a member set missing a ring node")
	}
	members["b"] = transport.NewSwitchable(&stampCloud{name: "b"})
	members["c"] = transport.NewSwitchable(&stampCloud{name: "c"})
	if _, err := NewRouter(ring, members); err == nil {
		t.Fatal("router accepted extra members outside the ring")
	}
}

// TestRouterFailoverViaSwap is the membership-swap contract end to end:
// requests for a name reach whatever backend currently sits behind its
// Switchable, with the ring untouched.
func TestRouterFailoverViaSwap(t *testing.T) {
	r, _ := newStampRouter(t, "node-0", "node-1")
	id := "AA:BB:CC:03:00:01"
	owner := r.Ring().Owner(id)
	replacement := &stampCloud{name: "promoted-" + owner}
	r.Member(owner).Swap(replacement)
	resp, err := r.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id})
	if err != nil {
		t.Fatal(err)
	}
	if want := "promoted-" + owner + "/" + id; resp.SessionNonce != want {
		t.Fatalf("after swap, device served by %q, want %q", resp.SessionNonce, want)
	}
}

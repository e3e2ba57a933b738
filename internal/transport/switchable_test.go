package transport

import (
	"sync/atomic"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
)

// switchable.go pins the Cloud conformance at compile time
// (var _ Cloud = (*Switchable)(nil)); the tests here pin the runtime
// contract Swap promises: one dispatched call runs entirely against one
// backend, no matter how many swaps land while it is in flight.

// namedCloud answers a status with its own name, after recording that
// it was entered. Only the methods the tests exercise are implemented;
// the embedded nil interface panics loudly on any other call.
type namedCloud struct {
	Cloud
	name    string
	entered atomic.Int64
}

func (n *namedCloud) HandleStatus(protocol.StatusRequest) (protocol.StatusResponse, error) {
	n.entered.Add(1)
	return protocol.StatusResponse{SessionNonce: n.name}, nil
}

// TestSwitchableSwapRedirectsNextCall is the sequential contract: a call
// after Swap must land on the new backend, and Current must report it.
func TestSwitchableSwapRedirectsNextCall(t *testing.T) {
	a := &namedCloud{name: "a"}
	b := &namedCloud{name: "b"}
	s := NewSwitchable(a)
	if resp, _ := s.HandleStatus(protocol.StatusRequest{}); resp.SessionNonce != "a" {
		t.Fatalf("before swap served by %q", resp.SessionNonce)
	}
	s.Swap(b)
	if got := s.Current(); got != Cloud(b) {
		t.Fatalf("Current() = %v after swap", got)
	}
	if resp, _ := s.HandleStatus(protocol.StatusRequest{}); resp.SessionNonce != "b" {
		t.Fatalf("after swap served by %q", resp.SessionNonce)
	}
}

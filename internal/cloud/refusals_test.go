package cloud

import (
	"errors"
	"fmt"
	"testing"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestPrebuiltRefusals: each refusal built once reads exactly as the
// fmt.Errorf its handler formatted per call before, and errors.Is still
// finds its protocol error through it — the text is what Result.Detail
// quotes (testbed's details.golden), the target what every front end
// maps to a wire code.
func TestPrebuiltRefusals(t *testing.T) {
	for _, c := range []struct {
		err    error
		text   string
		target error
	}{
		{errIdemConflict, "cloud: idempotency key reused by a different request: protocol: authentication failed", protocol.ErrAuthFailed},
		{errStatusKind, "cloud: status kind: protocol: bad request", protocol.ErrBadRequest},
		{errReadingsOnRegister, "cloud: readings on register: protocol: bad request", protocol.ErrBadRequest},
		{errDataProof, "cloud: data proof: protocol: authentication failed", protocol.ErrAuthFailed},
		{errPostBindingToken, "cloud: post-binding token: protocol: authentication failed", protocol.ErrAuthFailed},
		{errPairingProof, "cloud: pairing proof: protocol: authentication failed", protocol.ErrAuthFailed},
		{errDeviceToken, "cloud: device token: protocol: authentication failed", protocol.ErrAuthFailed},
		{errStatusSignature, "cloud: status signature: protocol: authentication failed", protocol.ErrAuthFailed},
		{errBindToken, "cloud: bind token: protocol: authentication failed", protocol.ErrAuthFailed},
		{errBindProof, "cloud: bind proof: protocol: authentication failed", protocol.ErrAuthFailed},
		{errNoCredential, "cloud: protocol: authentication failed: no user or delegation credential", protocol.ErrAuthFailed},
		{errAuthMode, "cloud: protocol: bad request: unsupported auth mode", protocol.ErrBadRequest},
		{errBindingMechanism, "cloud: protocol: bad request: unsupported binding mechanism", protocol.ErrBadRequest},
		{errButtonWindow, "cloud: button window: protocol: binding window closed or co-location check failed", protocol.ErrOutsideWindow},
		{errSourceIP, "cloud: source IP mismatch: protocol: binding window closed or co-location check failed", protocol.ErrOutsideWindow},
		{errBoundToAnother, "cloud: bound to another user: protocol: device already bound", protocol.ErrAlreadyBound},
		{errNotBound, "cloud: protocol: device not bound", protocol.ErrNotBound},
		{errNotPermitted, "cloud: protocol: operation not permitted", protocol.ErrNotPermitted},
		{errDeviceOffline, "cloud: protocol: device offline", protocol.ErrDeviceOffline},
		{errUnbindByNonOwner, "cloud: unbind by non-owner: protocol: operation not permitted", protocol.ErrNotPermitted},
		{errControlByNonOwner, "cloud: control by non-owner: protocol: operation not permitted", protocol.ErrNotPermitted},
		{errSessionOwner, "cloud: device session owned by another account: protocol: operation not permitted", protocol.ErrNotPermitted},
		{errEmptyAccount, "accounts: protocol: bad request: empty user ID or password", protocol.ErrBadRequest},
		{errAccountAuth, "accounts: protocol: authentication failed", protocol.ErrAuthFailed},
	} {
		if got := c.err.Error(); got != c.text {
			t.Errorf("refusal reads %q, want %q", got, c.text)
		}
		if !errors.Is(c.err, c.target) {
			t.Errorf("%q does not match %v", c.text, c.target)
		}
	}
}

// TestRefusedForgeryAllocations: the forged bind, unbind and control a
// checking design refuses — bound to another user, unbind and control by
// a non-owner — allocate nothing below the transport. The refusal is
// built once; the fingerprint and the token lookup stay on the stack.
// Above it, the attacker's agent adds none either: it builds each
// step's Refusal of one cloud error once and hands that out again, and
// quoting it in a verdict allocates only the verdict's own string.
func TestRefusedForgeryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	svc, _, victim, intruder := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		forge  func() error
		want   error
		allocs float64
	}{
		{"bind", func() error {
			_, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: intruder, Sender: core.SenderApp})
			return err
		}, errBoundToAnother, 0},
		{"unbind", func() error {
			return svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: intruder, Sender: core.SenderApp})
		}, errUnbindByNonOwner, 0},
		{"control", func() error {
			_, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: intruder, Command: protocol.Command{ID: "c1", Name: "on"}})
			return err
		}, errControlByNonOwner, 0},
	} {
		if err := c.forge(); err != c.want {
			t.Fatalf("forged %s: %v, want %v", c.name, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.forge() }); n != c.allocs {
			t.Errorf("refused forged %s: %v allocations, want %v", c.name, n, c.allocs)
		}
	}

	atk, err := attacker.New("attacker@example.com", "pw-attacker", devIDDesign(), svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}
	var detail string
	for _, c := range []struct {
		name   string
		forge  func() error
		want   error
		allocs float64
	}{
		{"agent bind", func() error { _, err := atk.ForgeBind(testDevice); return err }, errBoundToAnother, 0},
		{"agent unbind", func() error { return atk.ForgeUnbind(testDevice, core.UnbindDevIDUserToken) }, errUnbindByNonOwner, 0},
		{"agent control", func() error { return atk.Control(testDevice, protocol.Command{ID: "c1", Name: "on"}) }, errControlByNonOwner, 0},
		{"agent bind quoted", func() error {
			_, err := atk.ForgeBind(testDevice)
			detail = fmt.Sprintf("forged message rejected: %v", err)
			return err
		}, errBoundToAnother, 1},
	} {
		err := c.forge()
		var refusal *attacker.Refusal
		if !errors.Is(err, c.want) || !errors.As(err, &refusal) || refusal.Err != c.want {
			t.Fatalf("forged %s: %v, want an attacker refusal of %v", c.name, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.forge() }); n != c.allocs {
			t.Errorf("refused forged %s: %v allocations, want %v", c.name, n, c.allocs)
		}
	}
	if want := "forged message rejected: attacker: forge bind: " + errBoundToAnother.Error(); detail != want {
		t.Errorf("quoted refusal reads %q, want %q", detail, want)
	}
}

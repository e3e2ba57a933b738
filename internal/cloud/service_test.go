package cloud

import (
	"errors"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

const (
	testDevice = "AA:BB:CC:00:00:01"
	testSecret = "factory-secret-1"
)

// testClock is a manually advanced clock.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time          { return c.t }
func (c *testClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestService builds a cloud with one registered device and two user
// accounts (victim, attacker), returning logged-in user tokens.
func newTestService(t *testing.T, design core.DesignSpec) (*Service, *testClock, string, string) {
	t.Helper()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(design, reg, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	victim := loginUser(t, svc, "victim@example.com", "pw-victim")
	attacker := loginUser(t, svc, "attacker@example.com", "pw-attacker")
	return svc, clock, victim, attacker
}

func loginUser(t *testing.T, svc *Service, user, pw string) string {
	t.Helper()
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: user, Password: pw}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Login(protocol.LoginRequest{UserID: user, Password: pw})
	if err != nil {
		t.Fatal(err)
	}
	return resp.UserToken
}

func devIDDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:                   "devid-acl",
		DeviceAuth:             core.AuthDevID,
		Binding:                core.BindACLApp,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

func devTokenDesign() core.DesignSpec {
	d := devIDDesign()
	d.Name = "devtoken-acl"
	d.DeviceAuth = core.AuthDevToken
	return d
}

func mustStatus(t *testing.T, svc *Service, req protocol.StatusRequest) protocol.StatusResponse {
	t.Helper()
	resp, err := svc.HandleStatus(req)
	if err != nil {
		t.Fatalf("HandleStatus: %v", err)
	}
	return resp
}

func shadowState(t *testing.T, svc *Service) protocol.ShadowStateResponse {
	t.Helper()
	resp, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLoginLifecycle(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "victim@example.com", Password: "x"}); !errors.Is(err, protocol.ErrUserExists) {
		t.Errorf("duplicate register = %v, want ErrUserExists", err)
	}
	if _, err := svc.Login(protocol.LoginRequest{UserID: "victim@example.com", Password: "wrong"}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("wrong password = %v, want ErrAuthFailed", err)
	}
	if _, err := svc.Login(protocol.LoginRequest{UserID: "ghost@example.com", Password: "x"}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("unknown user = %v, want ErrAuthFailed", err)
	}
}

func TestStatusUnknownDevice(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	_, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: "nope"})
	if !errors.Is(err, protocol.ErrUnknownDevice) {
		t.Errorf("unknown device = %v, want ErrUnknownDevice", err)
	}
}

func TestStatusBadKind(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	_, err := svc.HandleStatus(protocol.StatusRequest{DeviceID: testDevice})
	if !errors.Is(err, protocol.ErrBadRequest) {
		t.Errorf("bad kind = %v, want ErrBadRequest", err)
	}
}

// TestDeviceAuthType2 covers Figure 3 Type 2: with static device IDs,
// possession of the ID is the entire authentication.
func TestDeviceAuthType2(t *testing.T) {
	svc, _, _, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if got := shadowState(t, svc).State; got != core.StateOnline {
		t.Errorf("state after register = %v, want online", got)
	}
}

// TestDeviceAuthType1 covers Figure 3 Type 1: device tokens issued through
// the user, with the pairing proof standing in for local possession.
func TestDeviceAuthType1(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devTokenDesign())

	// Without a token the device is rejected.
	_, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("status without token = %v, want ErrAuthFailed", err)
	}

	// Token issuance requires the pairing proof.
	_, err = svc.RequestDeviceToken(protocol.DeviceTokenRequest{
		UserToken: victim, DeviceID: testDevice, PairingProof: "guessed",
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("token without pairing proof = %v, want ErrAuthFailed", err)
	}

	proof := protocol.PairingProof(testSecret, testDevice)
	resp, err := svc.RequestDeviceToken(protocol.DeviceTokenRequest{
		UserToken: victim, DeviceID: testDevice, PairingProof: proof,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice, DevToken: resp.DevToken,
	})
	if got := shadowState(t, svc).State; got != core.StateOnline {
		t.Errorf("state after token register = %v, want online", got)
	}
}

// TestDeviceAuthPublicKey covers the AWS/IBM/Google-style per-device key
// design discussed in Section IV-A.
func TestDeviceAuthPublicKey(t *testing.T) {
	d := devIDDesign()
	d.Name = "pubkey"
	d.DeviceAuth = core.AuthPublicKey
	svc, _, _, _ := newTestService(t, d)

	_, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("unsigned status = %v, want ErrAuthFailed", err)
	}
	_, err = svc.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice,
		Signature: protocol.StatusSignature("wrong-secret", testDevice, protocol.StatusRegister),
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("badly signed status = %v, want ErrAuthFailed", err)
	}
	mustStatus(t, svc, protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice,
		Signature: protocol.StatusSignature(testSecret, testDevice, protocol.StatusRegister),
	})
}

func TestHeartbeatExpiry(t *testing.T) {
	svc, clock, _, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	clock.Advance(DefaultHeartbeatTTL / 2)
	if got := shadowState(t, svc).State; got != core.StateOnline {
		t.Fatalf("state before TTL = %v, want online", got)
	}
	clock.Advance(DefaultHeartbeatTTL)
	if got := shadowState(t, svc).State; got != core.StateInitial {
		t.Errorf("state after TTL = %v, want initial", got)
	}
}

func TestBindLifecycleAppInitiated(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})

	resp, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BoundUser != "victim@example.com" {
		t.Errorf("bound user = %q", resp.BoundUser)
	}
	st := shadowState(t, svc)
	if st.State != core.StateControl || st.BoundUser != "victim@example.com" {
		t.Errorf("shadow = %+v, want control/victim", st)
	}

	// Unbind returns to online.
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if got := shadowState(t, svc).State; got != core.StateOnline {
		t.Errorf("state after unbind = %v, want online", got)
	}
}

func TestBindBeforeDeviceOnline(t *testing.T) {
	// Figure 2's initial -> bound -> control path.
	svc, _, victim, _ := newTestService(t, devIDDesign())
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if got := shadowState(t, svc).State; got != core.StateBound {
		t.Fatalf("state after offline bind = %v, want bound", got)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if got := shadowState(t, svc).State; got != core.StateControl {
		t.Errorf("state after device online = %v, want control", got)
	}
}

func TestBindRejectsSecondUser(t *testing.T) {
	svc, _, victim, attacker := newTestService(t, devIDDesign())
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	_, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp})
	if !errors.Is(err, protocol.ErrAlreadyBound) {
		t.Errorf("second bind = %v, want ErrAlreadyBound", err)
	}
	// Idempotent re-bind by the same user is fine.
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Errorf("idempotent re-bind = %v", err)
	}
}

func TestReplaceOnBind(t *testing.T) {
	d := devIDDesign()
	d.Name = "replace"
	d.ReplaceOnBind = true
	d.UnbindForms = nil
	svc, _, victim, attacker := newTestService(t, d)
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp})
	if err != nil {
		t.Fatalf("replacing bind = %v, want success (Type 3 design)", err)
	}
	if resp.BoundUser != "attacker@example.com" {
		t.Errorf("bound user after replace = %q", resp.BoundUser)
	}
}

func TestUnbindPolicies(t *testing.T) {
	t.Run("checking cloud rejects non-owner", func(t *testing.T) {
		svc, _, victim, attacker := newTestService(t, devIDDesign())
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
		err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp})
		if !errors.Is(err, protocol.ErrNotPermitted) {
			t.Errorf("non-owner unbind = %v, want ErrNotPermitted", err)
		}
	})
	t.Run("lax cloud accepts non-owner (A3-2 flaw)", func(t *testing.T) {
		d := devIDDesign()
		d.CheckBoundUserOnUnbind = false
		svc, _, victim, attacker := newTestService(t, d)
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
		if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
			t.Errorf("lax unbind = %v, want success", err)
		}
	})
	t.Run("devid-alone form needs design support", func(t *testing.T) {
		svc, _, victim, _ := newTestService(t, devIDDesign())
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
		err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, Sender: core.SenderDevice})
		if !errors.Is(err, protocol.ErrUnsupported) {
			t.Errorf("Type 2 unbind on Type 1 cloud = %v, want ErrUnsupported", err)
		}
	})
	t.Run("devid-alone form works when supported (A3-1 flaw)", func(t *testing.T) {
		d := devIDDesign()
		d.UnbindForms = append(d.UnbindForms, core.UnbindDevIDAlone)
		svc, _, victim, _ := newTestService(t, d)
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
		if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, Sender: core.SenderDevice}); err != nil {
			t.Errorf("Type 2 unbind = %v, want success", err)
		}
	})
	t.Run("unbinding an unbound device fails", func(t *testing.T) {
		svc, _, victim, _ := newTestService(t, devIDDesign())
		err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp})
		if !errors.Is(err, protocol.ErrNotBound) {
			t.Errorf("unbind unbound = %v, want ErrNotBound", err)
		}
	})
}

func TestControlRequiresBindingAndOnline(t *testing.T) {
	svc, clock, victim, attacker := newTestService(t, devIDDesign())
	cmd := protocol.Command{ID: "1", Name: "turn_on"}

	_, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: cmd})
	if !errors.Is(err, protocol.ErrNotBound) {
		t.Fatalf("control unbound = %v, want ErrNotBound", err)
	}

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: attacker, Command: cmd}); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("control by non-owner = %v, want ErrNotPermitted", err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: cmd}); err != nil {
		t.Errorf("owner control = %v, want success", err)
	}

	// Delivered on the next heartbeat.
	resp := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if len(resp.Commands) != 1 || resp.Commands[0].Name != "turn_on" {
		t.Errorf("heartbeat commands = %+v", resp.Commands)
	}

	clock.Advance(2 * DefaultHeartbeatTTL)
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: cmd}); !errors.Is(err, protocol.ErrDeviceOffline) {
		t.Errorf("control offline = %v, want ErrDeviceOffline", err)
	}
}

// TestDevTokenSessionOwnerGate verifies the property that makes dynamic
// device tokens hijack-proof (Section V-E): control is refused when the
// device's authenticated session belongs to a different account than the
// binding.
func TestDevTokenSessionOwnerGate(t *testing.T) {
	d := devTokenDesign()
	d.CheckBoundUserOnUnbind = false // allow the attacker to unbind (A3-2)
	svc, _, victim, attacker := newTestService(t, d)

	proof := protocol.PairingProof(testSecret, testDevice)
	tokResp, err := svc.RequestDeviceToken(protocol.DeviceTokenRequest{UserToken: victim, DeviceID: testDevice, PairingProof: proof})
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice, DevToken: tokResp.DevToken})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	// Attacker unbinds (the lax Type 1 check) and rebinds to themselves.
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	// The binding says attacker, but the device session belongs to the
	// victim's account: control must be refused.
	_, err = svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: attacker, Command: protocol.Command{ID: "1", Name: "unlock"}})
	if !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("hijacker control with DevToken design = %v, want ErrNotPermitted", err)
	}
}

// TestPostBindingTokenGates covers the Section IV-B post-binding
// authorization: control and device messages must carry the binding's
// session token, and a replaced binding cuts the stale device off.
func TestPostBindingTokenGates(t *testing.T) {
	d := devIDDesign()
	d.Name = "postbinding"
	d.PostBindingToken = true
	d.ReplaceOnBind = true
	d.CheckBoundUserOnBind = false
	d.UnbindForms = nil
	svc, _, victim, attacker := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	bindResp, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp})
	if err != nil {
		t.Fatal(err)
	}
	if bindResp.SessionToken == "" {
		t.Fatal("no session token issued")
	}

	// Control without the session token fails; with it succeeds.
	cmd := protocol.Command{ID: "1", Name: "turn_on"}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: cmd}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("control without session token = %v, want ErrAuthFailed", err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, SessionToken: bindResp.SessionToken, Command: cmd}); err != nil {
		t.Errorf("control with session token = %v", err)
	}

	// Device heartbeat must carry the token once bound.
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("device heartbeat without session token = %v, want ErrAuthFailed", err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, SessionToken: bindResp.SessionToken})

	// An attacker replaces the binding and receives a fresh token, but
	// the real device still holds the old one: it is cut off, so the
	// attacker gets disconnection (A3-3), not control.
	atkResp, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, SessionToken: bindResp.SessionToken}); !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("stale device heartbeat after replace = %v, want ErrAuthFailed", err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: attacker, SessionToken: atkResp.SessionToken, Command: cmd}); err != nil {
		// Control is queued while the shadow is still online, but the
		// real device can never fetch it: the heartbeat above was
		// rejected. Either behaviour (queued or offline) is a
		// disconnection for the victim; what matters is the device
		// cannot act for the attacker, asserted via the stale heartbeat.
		t.Logf("attacker control after replace: %v", err)
	}
}

// TestSessionTiedBinding covers the device #8 behaviour: a fresh
// registration for a bound device revokes the binding (A3-4).
func TestSessionTiedBinding(t *testing.T) {
	d := devIDDesign()
	d.Name = "session-tied"
	d.SessionTiedBinding = true
	svc, _, victim, _ := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if got := shadowState(t, svc).State; got != core.StateControl {
		t.Fatalf("state = %v, want control", got)
	}

	// Heartbeats do not disturb the binding...
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if got := shadowState(t, svc).State; got != core.StateControl {
		t.Fatalf("state after heartbeat = %v, want control", got)
	}
	// ...but a fresh registration is treated as a reset and unbinds.
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	st := shadowState(t, svc)
	if st.State != core.StateOnline || st.BoundUser != "" {
		t.Errorf("state after re-register = %+v, want online/unbound", st)
	}
}

// TestDataRequiresSession covers the device #8 data protection: readings
// and user data flow only inside a factory-secret-authenticated session.
func TestDataRequiresSession(t *testing.T) {
	d := devIDDesign()
	d.Name = "data-session"
	d.DataRequiresSession = true
	svc, _, victim, _ := newTestService(t, d)

	reg := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if reg.SessionNonce == "" {
		t.Fatal("register issued no session nonce")
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	// Heartbeat without proof is rejected.
	_, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("proofless heartbeat = %v, want ErrAuthFailed", err)
	}
	// Readings on a register are rejected outright.
	_, err = svc.HandleStatus(protocol.StatusRequest{
		Kind: protocol.StatusRegister, DeviceID: testDevice,
		Readings: []protocol.Reading{{Name: "power_w", Value: 1}},
	})
	if !errors.Is(err, protocol.ErrBadRequest) {
		t.Fatalf("readings on register = %v, want ErrBadRequest", err)
	}
	// With the proof the heartbeat works.
	mustStatus(t, svc, protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		DataProof: protocol.DataProof(testSecret, reg.SessionNonce),
		Readings:  []protocol.Reading{{Name: "power_w", Value: 7}},
	})
	readings, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(readings.Readings) != 1 || readings.Readings[0].Value != 7 {
		t.Errorf("readings = %+v", readings.Readings)
	}
}

// TestButtonWindowAndSourceIP covers the device #7 defences: binding
// requires a recent physical button press and source-IP co-location.
func TestButtonWindowAndSourceIP(t *testing.T) {
	d := devIDDesign()
	d.Name = "hue"
	d.BindButtonWindow = true
	d.SourceIPCheck = true
	d.OnlineBeforeBind = true
	svc, clock, victim, attacker := newTestService(t, d)

	const homeIP = "203.0.113.7"
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice, SourceIP: homeIP})

	// No button pressed yet: bind rejected.
	_, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, SourceIP: homeIP})
	if !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("bind before button = %v, want ErrOutsideWindow", err)
	}

	// Button pressed: a bind from the same network succeeds...
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice, SourceIP: homeIP, ButtonPressed: true})
	// ...but a racing bind from a different address is rejected.
	_, err = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp, SourceIP: "198.51.100.66"})
	if !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("remote bind in window = %v, want ErrOutsideWindow", err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, SourceIP: homeIP}); err != nil {
		t.Fatalf("co-located bind in window = %v", err)
	}

	// Window expires.
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(DefaultButtonWindow + time.Second)
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, SourceIP: homeIP})
	_, err = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, SourceIP: homeIP})
	if !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Errorf("bind after window = %v, want ErrOutsideWindow", err)
	}
}

// TestDeviceInitiatedBinding covers Figure 4b: the user credential travels
// through the device.
func TestDeviceInitiatedBinding(t *testing.T) {
	d := devIDDesign()
	d.Name = "device-acl"
	d.Binding = core.BindACLDevice
	svc, _, _, _ := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	_, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserID: "victim@example.com", UserPassword: "wrong", Sender: core.SenderDevice,
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("bind with wrong password = %v, want ErrAuthFailed", err)
	}
	resp, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, UserID: "victim@example.com", UserPassword: "pw-victim", Sender: core.SenderDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BoundUser != "victim@example.com" {
		t.Errorf("bound user = %q", resp.BoundUser)
	}
}

// TestCapabilityBinding covers Figure 4c: a bind token delivered locally
// and submitted with a factory-secret proof.
func TestCapabilityBinding(t *testing.T) {
	d := devIDDesign()
	d.Name = "capability"
	d.Binding = core.BindCapability
	svc, _, victim, attacker := newTestService(t, d)

	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	tokResp, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: victim, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}

	// Submission without the device proof fails — a stolen token alone
	// is not a capability.
	_, err = svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, BindToken: tokResp.BindToken, Sender: core.SenderDevice})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("bind without proof = %v, want ErrAuthFailed", err)
	}
	// An attacker's own token for their own account still needs the
	// victim device's factory secret.
	atkTok, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: attacker, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	_, err = svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, BindToken: atkTok.BindToken,
		BindProof: protocol.BindProof("guessed-secret", atkTok.BindToken), Sender: core.SenderDevice,
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("bind with forged proof = %v, want ErrAuthFailed", err)
	}

	resp, err := svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, BindToken: tokResp.BindToken,
		BindProof: protocol.BindProof(testSecret, tokResp.BindToken), Sender: core.SenderDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BoundUser != "victim@example.com" {
		t.Errorf("bound user = %q", resp.BoundUser)
	}

	// Tokens are single use.
	_, err = svc.HandleBind(protocol.BindRequest{
		DeviceID: testDevice, BindToken: tokResp.BindToken,
		BindProof: protocol.BindProof(testSecret, tokResp.BindToken), Sender: core.SenderDevice,
	})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Errorf("token reuse = %v, want ErrAuthFailed", err)
	}
}

func TestUserDataFlow(t *testing.T) {
	svc, _, victim, attacker := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	data := protocol.UserData{Kind: "schedule", Body: "on 08:00, off 22:00"}
	if err := svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: attacker, Data: data}); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("push by non-owner = %v, want ErrNotPermitted", err)
	}
	if err := svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: victim, Data: data}); err != nil {
		t.Fatal(err)
	}

	resp := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if len(resp.UserData) != 1 || resp.UserData[0].Body != data.Body {
		t.Errorf("delivered user data = %+v", resp.UserData)
	}

	// Readings access control.
	if _, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: attacker}); !errors.Is(err, protocol.ErrNotPermitted) {
		t.Errorf("readings by non-owner = %v, want ErrNotPermitted", err)
	}
}

func TestUnbindClearsUserCoupledState(t *testing.T) {
	svc, _, victim, attacker := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if err := svc.PushUserData(protocol.PushUserDataRequest{
		DeviceID: testDevice, UserToken: victim,
		Data: protocol.UserData{Kind: "schedule", Body: "private"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	// New owner must not receive the previous owner's pending data.
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	resp := mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if len(resp.UserData) != 0 {
		t.Errorf("previous owner's data leaked to new binding: %+v", resp.UserData)
	}
}

func TestShadowTraceRecordsLifecycle(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	trace := svc.ShadowTrace(testDevice)
	if len(trace) != 2 {
		t.Fatalf("trace = %v, want 2 edges", trace)
	}
	if trace[0].To != core.StateOnline || trace[1].To != core.StateControl {
		t.Errorf("trace = %v", trace)
	}
	if svc.ShadowTrace("missing") != nil {
		t.Error("trace for unknown device should be nil")
	}
}

// TestShadowTraceKeepsTheMostRecent: a device that changes hands forever
// keeps a bounded trace — after 10 000 bind/unbind cycles, the last
// core.MaxTrace edges, oldest first.
func TestShadowTraceKeepsTheMostRecent(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	for i := 0; i < 10000; i++ {
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
		if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
	}
	trace := svc.ShadowTrace(testDevice)
	if len(trace) != core.MaxTrace {
		t.Fatalf("trace holds %d edges after 20 001 transitions, want the last %d", len(trace), core.MaxTrace)
	}
	bind := core.Transition{From: core.StateOnline, Event: core.EventBind, To: core.StateControl}
	unbind := core.Transition{From: core.StateControl, Event: core.EventUnbind, To: core.StateOnline}
	for i, tr := range trace {
		if want := []core.Transition{bind, unbind}[i%2]; tr != want {
			t.Fatalf("edge %d of the kept trace is %v, want %v", i, tr, want)
		}
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(core.DesignSpec{}, NewRegistry()); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := NewService(devIDDesign(), nil); err == nil {
		t.Error("nil registry accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(DeviceRecord{ID: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(DeviceRecord{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(DeviceRecord{ID: "a"}); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := r.Add(DeviceRecord{}); err == nil {
		t.Error("empty ID accepted")
	}
	if got := r.IDs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("IDs() = %v", got)
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d", r.Len())
	}
	if _, ok := r.Lookup("a"); !ok {
		t.Error("Lookup(a) failed")
	}
	if _, ok := r.Lookup("zz"); ok {
		t.Error("Lookup(zz) succeeded")
	}
}

package device_test

import (
	"errors"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/token"
	"github.com/iotbind/iotbind/internal/transport"
)

const (
	devID     = "AA:BB:CC:00:00:42"
	devSecret = "factory-secret-42"
)

func design(auth core.DeviceAuthMode, mech core.BindMechanism) core.DesignSpec {
	return core.DesignSpec{
		Name:                   "dev-test",
		DeviceAuth:             auth,
		Binding:                mech,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken, core.UnbindDevIDAlone},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

func newCloud(t *testing.T, d core.DesignSpec) (*cloud.Service, string) {
	t.Helper()
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: devID, FactorySecret: devSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}
	return svc, login.UserToken
}

func newDevice(t *testing.T, d core.DesignSpec, svc *cloud.Service, opts ...device.Option) *device.Device {
	t.Helper()
	dev, err := device.New(device.Config{
		ID: devID, FactorySecret: devSecret, LocalName: "plug", Model: "plug",
	}, d, transport.StampSource(svc, "203.0.113.7"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestNewValidation(t *testing.T) {
	if _, err := device.New(device.Config{}, core.DesignSpec{}, nil); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := device.New(device.Config{LocalName: "x"}, design(core.AuthDevID, core.BindACLApp), nil); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := device.New(device.Config{ID: "x"}, design(core.AuthDevID, core.BindACLApp), nil); err == nil {
		t.Error("missing local name accepted")
	}
}

func TestProvisionTriggersActivation(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	if dev.InSetupMode() {
		t.Error("still in setup mode after provisioning")
	}
	if !dev.Active() {
		t.Error("not active after provisioning with Wi-Fi")
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateOnline {
		t.Errorf("shadow = %v, want online", st.State)
	}
}

func TestProvisionWithoutWiFiOnlyStoresCredentials(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{SessionToken: "s"}); err != nil {
		t.Fatal(err)
	}
	if dev.Active() {
		t.Error("session-token delivery must not activate an unconfigured device")
	}
	if !dev.InSetupMode() {
		t.Error("device left setup mode without Wi-Fi credentials")
	}
}

func TestDeviceInitiatedBindOnActivate(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLDevice)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{
		WiFiSSID: "home", WiFiPassword: "pw",
		BindUserID: "u", BindUserPassword: "p",
	}); err != nil {
		t.Fatal(err)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl || st.BoundUser != "u" {
		t.Errorf("shadow = %+v, want control/u", st)
	}
}

func TestCapabilityBindOnActivate(t *testing.T) {
	d := design(core.AuthDevID, core.BindCapability)
	svc, userToken := newCloud(t, d)
	dev := newDevice(t, d, svc)

	bt, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: userToken, DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Provision(localnet.Provisioning{
		WiFiSSID: "home", WiFiPassword: "pw", BindToken: bt.BindToken,
	}); err != nil {
		t.Fatal(err)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl || st.BoundUser != "u" {
		t.Errorf("shadow = %+v, want control/u", st)
	}
}

func TestResetSendsUnbindOnNextActivation(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	svc, userToken := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: userToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	dev.Reset()
	if !dev.InSetupMode() || dev.Active() {
		t.Error("reset did not return device to setup state")
	}
	// Re-provision: activation must emit the reset unbind first.
	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "" {
		t.Errorf("binding survived the reset flow: %+v", st)
	}
}

func TestResetClearsLocalState(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	svc, userToken := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: userToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: devID, UserToken: userToken, Command: protocol.Command{ID: "1", Name: "on"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if len(dev.Executed()) != 1 {
		t.Fatal("command not executed before reset")
	}
	dev.Reset()
	if len(dev.Executed()) != 0 || len(dev.ReceivedData()) != 0 {
		t.Error("reset did not clear execution history")
	}
}

func TestHeartbeatCarriesDataProof(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	d.DataRequiresSession = true
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	dev.QueueReading("power_w", 3)
	if err := dev.Heartbeat(); err != nil {
		t.Fatalf("heartbeat with session proof: %v", err)
	}
}

func TestHeartbeatSignsUnderPublicKey(t *testing.T) {
	d := design(core.AuthPublicKey, core.BindACLApp)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Heartbeat(); err != nil {
		t.Fatalf("signed heartbeat: %v", err)
	}
}

func TestHeartbeatErrorsWhenCutOff(t *testing.T) {
	d := design(core.AuthDevToken, core.BindACLApp)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)

	// Provision without a device token on a DevToken cloud: activation
	// must fail at registration.
	err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"})
	if !errors.Is(err, protocol.ErrAuthFailed) {
		t.Fatalf("tokenless activation = %v, want ErrAuthFailed", err)
	}
}

func TestPressButtonRegistersWithFlag(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	d.BindButtonWindow = true
	d.OnlineBeforeBind = true
	svc, userToken := newCloud(t, d)
	dev := newDevice(t, d, svc)

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	// Bind before the button: rejected.
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: userToken, Sender: core.SenderApp, SourceIP: "203.0.113.7"}); !errors.Is(err, protocol.ErrOutsideWindow) {
		t.Fatalf("bind before button = %v, want ErrOutsideWindow", err)
	}
	if err := dev.PressButton(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: userToken, Sender: core.SenderApp, SourceIP: "203.0.113.7"}); err != nil {
		t.Fatalf("bind after button = %v", err)
	}
}

func TestWithClockStampsReadings(t *testing.T) {
	fixed := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	d := design(core.AuthDevID, core.BindACLApp)
	svc, userToken := newCloud(t, d)
	dev := newDevice(t, d, svc, device.WithClock(func() time.Time { return fixed }))

	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: devID, UserToken: userToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	dev.QueueReading("t", 1)
	if err := dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	r, err := svc.Readings(protocol.ReadingsRequest{DeviceID: devID, UserToken: userToken})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Readings) != 1 || !r.Readings[0].At.Equal(fixed) {
		t.Errorf("readings = %+v, want stamp %v", r.Readings, fixed)
	}
}

// TestTokenIssuerSharing checks the WithTokenIssuer option wires a shared
// issuer.
func TestTokenIssuerSharing(t *testing.T) {
	d := design(core.AuthDevID, core.BindACLApp)
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: devID, FactorySecret: devSecret}); err != nil {
		t.Fatal(err)
	}
	iss := token.NewIssuer()
	svc, err := cloud.NewService(d, reg, cloud.WithTokenIssuer(iss))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "u", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := iss.Verify(token.KindUser, login.UserToken); err != nil {
		t.Errorf("shared issuer does not know the issued token: %v", err)
	}
}

// TestPairingProofDerivedOnce: a device in setup mode announces the
// pairing proof of its ID and secret, derives it once — later
// announcements, a factory reset and a re-Init with the same ID and
// secret allocate nothing for it — and derives it anew when Init changes
// the secret.
func TestPairingProofDerivedOnce(t *testing.T) {
	d := design(core.AuthDevToken, core.BindACLApp)
	svc, _ := newCloud(t, d)
	dev := newDevice(t, d, svc)
	ann, _ := dev.Announce()
	if want := protocol.PairingProof(devSecret, devID); ann.PairingProof != want {
		t.Fatalf("announced proof %q, want %q", ann.PairingProof, want)
	}
	cfg := device.Config{ID: devID, FactorySecret: devSecret, LocalName: "plug", Model: "plug"}
	if n := testing.AllocsPerRun(20, func() {
		dev.Reset()
		if err := dev.Init(cfg, d, svc); err != nil {
			t.Fatal(err)
		}
		if ann, _ := dev.Announce(); ann.PairingProof == "" {
			t.Fatal("no proof in setup mode")
		}
	}); n != 0 {
		t.Errorf("re-announcing an unchanged device: %v allocations, want 0", n)
	}
	cfg.FactorySecret = "another-secret"
	if err := dev.Init(cfg, d, svc); err != nil {
		t.Fatal(err)
	}
	if ann, _ := dev.Announce(); ann.PairingProof != protocol.PairingProof("another-secret", devID) {
		t.Errorf("after a new secret the device announces %q, the old secret's proof", ann.PairingProof)
	}
}

// beatRecorder passes every call to the cloud, keeping the last status
// request and the last session nonce the cloud issued.
type beatRecorder struct {
	transport.Cloud
	last  protocol.StatusRequest
	nonce string
}

func (r *beatRecorder) HandleStatus(req protocol.StatusRequest) (protocol.StatusResponse, error) {
	r.last = req
	resp, err := r.Cloud.HandleStatus(req)
	if resp.SessionNonce != "" {
		r.nonce = resp.SessionNonce
	}
	return resp, err
}

// TestHeartbeatProofsFollowTheNonce: a device keeps its heartbeat's data
// proof and status signature rather than derive them per heartbeat, and
// each heartbeat still carries the proofs a fresh derivation gives — of
// the latest session nonce after a re-registration, after a factory
// reset and on a CopyFrom copy — which the cloud accepts.
func TestHeartbeatProofsFollowTheNonce(t *testing.T) {
	d := design(core.AuthPublicKey, core.BindACLApp)
	d.DataRequiresSession = true
	svc, _ := newCloud(t, d)
	rec := &beatRecorder{Cloud: transport.StampSource(svc, "203.0.113.7")}
	dev, err := device.New(device.Config{ID: devID, FactorySecret: devSecret, LocalName: "plug", Model: "plug"}, d, rec)
	if err != nil {
		t.Fatal(err)
	}
	beat := func(stage string, dev *device.Device) {
		t.Helper()
		if err := dev.Heartbeat(); err != nil {
			t.Fatalf("%s: heartbeat: %v", stage, err)
		}
		if want := protocol.DataProof(devSecret, rec.nonce); rec.last.DataProof != want {
			t.Errorf("%s: data proof %q, want %q (nonce %q)", stage, rec.last.DataProof, want, rec.nonce)
		}
		if want := protocol.StatusSignature(devSecret, devID, protocol.StatusHeartbeat); rec.last.Signature != want {
			t.Errorf("%s: signature %q, want %q", stage, rec.last.Signature, want)
		}
	}
	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	beat("first", dev)
	beat("again", dev)
	first := rec.nonce
	if err := dev.Reregister(); err != nil {
		t.Fatal(err)
	}
	if rec.nonce == first {
		t.Fatal("re-registration drew the same nonce")
	}
	beat("re-registered", dev)
	copied := &device.Device{}
	copied.CopyFrom(dev)
	beat("copy", copied)
	dev.Reset()
	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); err != nil {
		t.Fatal(err)
	}
	beat("after a reset", dev)
}

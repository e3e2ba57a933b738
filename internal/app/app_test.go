package app

import (
	"errors"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

const (
	devID     = "AA:BB:CC:00:00:01"
	devSecret = "factory-secret-1"
	homeIP    = "203.0.113.7"
)

// rig wires one vendor cloud, one home network, one device and one user app
// — the full three-party architecture of Figure 1.
type rig struct {
	svc    *cloud.Service
	clock  *clockT
	home   *localnet.Network
	dev    *device.Device
	victim *App
}

type clockT struct{ t time.Time }

func (c *clockT) Now() time.Time          { return c.t }
func (c *clockT) Advance(d time.Duration) { c.t = c.t.Add(d) }

// actions implements UserActions with direct device references — the
// "user's hands" in the home.
type actions struct{ devs map[string]*device.Device }

func (a actions) PressButton(name string) error {
	d, ok := a.devs[name]
	if !ok {
		return errors.New("no such device")
	}
	return d.PressButton()
}

func (a actions) ResetDevice(name string) error {
	d, ok := a.devs[name]
	if !ok {
		return errors.New("no such device")
	}
	d.Reset()
	return nil
}

func newRig(t *testing.T, design core.DesignSpec, appOpts ...Option) (*rig, actions) {
	t.Helper()
	clock := &clockT{t: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)}
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: devID, FactorySecret: devSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(design, reg, cloud.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	home := localnet.NewNetwork("home", homeIP)
	homeTransport := transport.StampSource(svc, home.PublicIP())

	dev, err := device.New(device.Config{
		ID: devID, FactorySecret: devSecret, LocalName: "plug-1", Model: "plug",
	}, design, homeTransport, device.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Join(dev); err != nil {
		t.Fatal(err)
	}

	victim, err := New("victim@example.com", "pw-victim", design, homeTransport, home, appOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Login(); err != nil {
		t.Fatal(err)
	}
	return &rig{svc: svc, clock: clock, home: home, dev: dev, victim: victim},
		actions{devs: map[string]*device.Device{"plug-1": dev}}
}

// assertFullControl drives a command, a schedule and a reading through the
// bound triple and checks each arrives.
func assertFullControl(t *testing.T, r *rig) {
	t.Helper()
	if err := r.victim.Control(devID, protocol.Command{ID: "c1", Name: "turn_on"}); err != nil {
		t.Fatalf("control: %v", err)
	}
	if err := r.victim.PushSchedule(devID, protocol.UserData{Kind: "schedule", Body: "on 08:00"}); err != nil {
		t.Fatalf("push schedule: %v", err)
	}
	r.dev.QueueReading("power_w", 42)
	if err := r.dev.Heartbeat(); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if got := r.dev.Executed(); len(got) != 1 || got[0].Name != "turn_on" {
		t.Errorf("executed = %+v", got)
	}
	if got := r.dev.ReceivedData(); len(got) != 1 || got[0].Body != "on 08:00" {
		t.Errorf("received data = %+v", got)
	}
	readings, err := r.victim.Readings(devID)
	if err != nil {
		t.Fatalf("readings: %v", err)
	}
	if len(readings) != 1 || readings[0].Value != 42 {
		t.Errorf("readings = %+v", readings)
	}
	st, err := r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl || st.BoundUser != "victim@example.com" {
		t.Errorf("shadow = %+v, want control/victim", st)
	}
}

func designBase() core.DesignSpec {
	return core.DesignSpec{
		Name:                   "test",
		DeviceAuth:             core.AuthDevToken,
		Binding:                core.BindACLApp,
		UnbindForms:            []core.UnbindForm{core.UnbindDevIDUserToken},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
	}
}

// TestLifecycleBindFirst covers the initial->bound->control path with a
// DevToken design (Belkin-like): bind happens before the device comes
// online.
func TestLifecycleBindFirst(t *testing.T) {
	r, acts := newRig(t, designBase())
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	assertFullControl(t, r)
}

// TestLifecycleOnlineFirst covers the initial->online->control path
// (OZWI-like): the device registers before the binding exists.
func TestLifecycleOnlineFirst(t *testing.T) {
	d := designBase()
	d.DeviceAuth = core.AuthDevID
	d.OnlineBeforeBind = true
	r, acts := newRig(t, d)
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	assertFullControl(t, r)

	trace := r.svc.ShadowTrace(devID)
	if len(trace) < 2 || trace[0].To != core.StateOnline || trace[1].To != core.StateControl {
		t.Errorf("trace = %v, want online then control", trace)
	}
}

// TestLifecyclePreBindHookWindow verifies the setup window the A4-2 attack
// exploits: the hook observes the device online and unbound.
func TestLifecyclePreBindHookWindow(t *testing.T) {
	d := designBase()
	d.DeviceAuth = core.AuthDevID
	d.OnlineBeforeBind = true

	var stateInWindow core.ShadowState
	var svcRef *cloud.Service
	r, acts := newRig(t, d, WithPreBindHook(func() {
		st, err := svcRef.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
		if err == nil {
			stateInWindow = st.State
		}
	}))
	svcRef = r.svc
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	if stateInWindow != core.StateOnline {
		t.Errorf("state in setup window = %v, want online (unbound)", stateInWindow)
	}
}

// TestLifecycleDeviceInitiated covers Figure 4b (TP-LINK-like): the user
// credential travels through the device, which binds itself.
func TestLifecycleDeviceInitiated(t *testing.T) {
	d := designBase()
	d.DeviceAuth = core.AuthDevID
	d.Binding = core.BindACLDevice
	d.UnbindForms = []core.UnbindForm{core.UnbindDevIDUserToken, core.UnbindDevIDAlone}
	d.SessionTiedBinding = true
	d.DataRequiresSession = true
	d.ResetUnbindsOnSetup = true
	r, acts := newRig(t, d)
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	assertFullControl(t, r)
}

// TestLifecycleCapability covers Figure 4c with public-key device
// authentication: the secure reference design.
func TestLifecycleCapability(t *testing.T) {
	d := designBase()
	d.DeviceAuth = core.AuthPublicKey
	d.Binding = core.BindCapability
	r, acts := newRig(t, d)
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	assertFullControl(t, r)
}

// TestLifecycleButtonWindow covers the device #7 flow under each binding
// mechanism: configure, press the physical button, bind within the window
// from the same network. When the device sends the bind, the owner holds
// the button while it joins.
func TestLifecycleButtonWindow(t *testing.T) {
	for _, b := range []core.BindMechanism{core.BindACLApp, core.BindACLDevice, core.BindCapability} {
		t.Run(b.String(), func(t *testing.T) {
			d := designBase()
			d.Binding = b
			d.BindButtonWindow = true
			d.SourceIPCheck = true
			r, acts := newRig(t, d)
			if err := r.victim.SetupDevice("plug-1", acts); err != nil {
				t.Fatal(err)
			}
			assertFullControl(t, r)
		})
	}
}

// TestSetupWithoutHandsTouchesNothing: a setup that needs the user's
// hands is refused before its first step when there are none — the
// device stays in setup mode and the cloud never sees it register.
func TestSetupWithoutHandsTouchesNothing(t *testing.T) {
	d := designBase()
	d.BindButtonWindow = true
	r, _ := newRig(t, d)
	if err := r.victim.SetupDevice("plug-1", nil); err == nil {
		t.Fatal("setup needing a button press ran without user actions")
	}
	if !r.dev.InSetupMode() || r.dev.Active() {
		t.Error("the refused setup provisioned the device")
	}
	st, err := r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if stats := r.svc.Stats(); st.State != core.StateInitial || stats.StatusAccepted+stats.StatusRejected != 0 {
		t.Errorf("after the refused setup the cloud saw the device: state %v, %d status messages",
			st.State, stats.StatusAccepted+stats.StatusRejected)
	}
}

// TestLifecyclePostBindingToken covers the KONKE-like design: the session
// token issued at bind must reach both the app and the device.
func TestLifecyclePostBindingToken(t *testing.T) {
	d := designBase()
	d.PostBindingToken = true
	d.ReplaceOnBind = true
	d.CheckBoundUserOnBind = false
	d.UnbindForms = []core.UnbindForm{core.UnbindReplaceByBind}
	r, acts := newRig(t, d)
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	if r.victim.SessionToken(devID) == "" {
		t.Error("app holds no session token")
	}
	assertFullControl(t, r)
}

// TestUnbindThenRebind covers binding revocation and a fresh setup.
func TestUnbindThenRebind(t *testing.T) {
	r, acts := newRig(t, designBase())
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	if err := r.victim.Unbind(devID); err != nil {
		t.Fatal(err)
	}
	st, err := r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateOnline {
		t.Fatalf("state after unbind = %v, want online", st.State)
	}
	// Control now fails.
	if err := r.victim.Control(devID, protocol.Command{ID: "x", Name: "turn_on"}); err == nil {
		t.Error("control after unbind succeeded")
	}
	// A fresh setup works again.
	r.dev.Reset()
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	st, err = r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl {
		t.Errorf("state after re-setup = %v, want control", st.State)
	}
}

// TestHeartbeatKeepsDeviceOnline exercises expiry and revival around the
// heartbeat TTL.
func TestHeartbeatKeepsDeviceOnline(t *testing.T) {
	r, acts := newRig(t, designBase())
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.clock.Advance(cloud.DefaultHeartbeatTTL / 2)
		if err := r.dev.Heartbeat(); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	st, err := r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl {
		t.Fatalf("state with heartbeats = %v, want control", st.State)
	}

	// Silence: control -> bound.
	r.clock.Advance(3 * cloud.DefaultHeartbeatTTL)
	st, err = r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateBound {
		t.Fatalf("state after silence = %v, want bound", st.State)
	}

	// Revival: bound -> control.
	if err := r.dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	st, err = r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: devID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl {
		t.Errorf("state after revival = %v, want control", st.State)
	}
}

func TestAppErrors(t *testing.T) {
	r, acts := newRig(t, designBase())

	fresh, err := New("other@example.com", "pw", designBase(), transport.StampSource(r.svc, homeIP), r.home)
	if err != nil {
		t.Fatal(err)
	}
	// Not logged in.
	if err := fresh.SetupDevice("plug-1", acts); !errors.Is(err, errNotLoggedIn) {
		t.Errorf("setup without login = %v, want errNotLoggedIn", err)
	}
	if _, err := fresh.Bind(devID); !errors.Is(err, errNotLoggedIn) {
		t.Errorf("bind without login = %v, want errNotLoggedIn", err)
	}

	// Unknown device on the LAN.
	if err := r.victim.SetupDevice("ghost", acts); !errors.Is(err, errDeviceNotFound) {
		t.Errorf("setup unknown device = %v, want errDeviceNotFound", err)
	}
}

func TestDeviceAccessorsAndErrors(t *testing.T) {
	r, _ := newRig(t, designBase())
	if !r.dev.InSetupMode() {
		t.Error("factory device not in setup mode")
	}
	if r.dev.Active() {
		t.Error("factory device reports active")
	}
	if r.dev.ID() != devID || r.dev.LocalName() != "plug-1" {
		t.Error("identity accessors wrong")
	}
	if err := r.dev.Activate(); !errors.Is(err, device.ErrNotProvisioned) {
		t.Errorf("Activate unprovisioned = %v, want ErrNotProvisioned", err)
	}
	if err := r.dev.Heartbeat(); !errors.Is(err, device.ErrNotProvisioned) {
		t.Errorf("Heartbeat unprovisioned = %v, want ErrNotProvisioned", err)
	}
	if err := r.dev.PressButton(); !errors.Is(err, device.ErrNotProvisioned) {
		t.Errorf("PressButton unprovisioned = %v, want ErrNotProvisioned", err)
	}

	ann, ok := r.dev.Announce()
	if !ok || ann.DeviceID != devID || ann.PairingProof == "" {
		t.Errorf("setup-mode announcement = %+v", ann)
	}
}

// TestSharingThroughApps runs the many-to-one binding flow end to end:
// the owner shares, a guest controls, revocation cuts the guest off.
func TestSharingThroughApps(t *testing.T) {
	r, acts := newRig(t, designBase())
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}

	guest, err := New("guest@example.com", "pw-guest", designBase(),
		transport.StampSource(r.svc, "203.0.113.99"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := guest.Login(); err != nil {
		t.Fatal(err)
	}

	if err := r.victim.Share(devID, "guest@example.com"); err != nil {
		t.Fatal(err)
	}
	guests, err := r.victim.Shares(devID)
	if err != nil {
		t.Fatal(err)
	}
	if len(guests) != 1 || guests[0] != "guest@example.com" {
		t.Fatalf("guests = %v", guests)
	}

	if err := guest.Control(devID, protocol.Command{ID: "g1", Name: "turn_on"}); err != nil {
		t.Fatalf("guest control: %v", err)
	}
	if err := r.dev.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range r.dev.Executed() {
		if c.ID == "g1" {
			found = true
		}
	}
	if !found {
		t.Error("guest command never reached the device")
	}
	if _, err := guest.Readings(devID); err != nil {
		t.Errorf("guest readings: %v", err)
	}

	if err := r.victim.RevokeShare(devID, "guest@example.com"); err != nil {
		t.Fatal(err)
	}
	if err := guest.Control(devID, protocol.Command{ID: "g2", Name: "turn_on"}); err == nil {
		t.Error("revoked guest still controls the device")
	}
	// Guests cannot manage shares themselves.
	if err := guest.Share(devID, "guest@example.com"); err == nil {
		t.Error("guest managed shares")
	}
}

// TestSetupOnProtectedNetwork runs the standard setup against a
// WPA2-protected home whose credentials match the app's — and shows the app
// cannot provision the device onto a home whose passphrase differs.
func TestSetupOnProtectedNetwork(t *testing.T) {
	for _, passphrase := range []string{"guessed", homePassphrase} {
		design := designBase()
		// Provision-first flow: the Wi-Fi failure hits before any binding is
		// created, so the failed attempt leaves no cloud-side residue.
		design.OnlineBeforeBind = true
		reg := cloud.NewRegistry()
		if err := reg.Add(cloud.DeviceRecord{ID: devID, FactorySecret: devSecret, Model: "plug"}); err != nil {
			t.Fatal(err)
		}
		svc, err := cloud.NewService(design, reg)
		if err != nil {
			t.Fatal(err)
		}
		home := localnet.NewProtectedNetwork("home", homeIP, homeSSID, passphrase)
		homeTransport := transport.StampSource(svc, home.PublicIP())
		dev, err := device.New(device.Config{
			ID: devID, FactorySecret: devSecret, LocalName: "plug-1", Model: "plug",
		}, design, homeTransport)
		if err != nil {
			t.Fatal(err)
		}
		if err := home.Join(dev); err != nil {
			t.Fatal(err)
		}
		user, err := New("u@example.com", "pw", design, homeTransport, home)
		if err != nil {
			t.Fatal(err)
		}
		if err := user.RegisterAccount(); err != nil {
			t.Fatal(err)
		}
		if err := user.Login(); err != nil {
			t.Fatal(err)
		}
		err = user.SetupDevice("plug-1", nil)
		if passphrase == homePassphrase && err != nil {
			t.Fatalf("setup with matching credentials: %v", err)
		}
		if passphrase != homePassphrase && !errors.Is(err, localnet.ErrWrongCredentials) {
			t.Fatalf("setup on a home with passphrase %q = %v, want ErrWrongCredentials", passphrase, err)
		}
	}
}

// TestAnnouncementHidesPairingProofAfterSetup checks that the pairing
// proof is only revealed in setup mode.
func TestAnnouncementHidesPairingProofAfterSetup(t *testing.T) {
	r, acts := newRig(t, designBase())
	if err := r.victim.SetupDevice("plug-1", acts); err != nil {
		t.Fatal(err)
	}
	ann, ok := r.dev.Announce()
	if !ok {
		t.Fatal("device silent")
	}
	if ann.SetupMode {
		t.Error("device still in setup mode")
	}
	if ann.PairingProof != "" {
		t.Error("pairing proof leaked outside setup mode")
	}
}

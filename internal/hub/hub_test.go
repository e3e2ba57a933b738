package hub

import (
	"errors"
	"strings"
	"testing"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

const (
	hubID     = "AA:BB:CC:00:08:01"
	hubSecret = "factory-secret-hub"
)

// tpLinkLike is the device #8 design — the one whose hijack we amplify
// through the hub.
func tpLinkLike() core.DesignSpec {
	p := core.DesignSpec{
		Name:       "hub-tplink",
		DeviceAuth: core.AuthDevID,
		Binding:    core.BindACLDevice,
		UnbindForms: []core.UnbindForm{
			core.UnbindDevIDUserToken, core.UnbindDevIDAlone,
		},
		CheckBoundUserOnBind:   true,
		CheckBoundUserOnUnbind: true,
		SessionTiedBinding:     true,
		DataRequiresSession:    true,
		ResetUnbindsOnSetup:    true,
	}
	return p
}

type rig struct {
	svc    *cloud.Service
	home   *localnet.Network
	h      *Hub
	victim *app.App
}

type hubActions struct{ h *Hub }

func (a hubActions) PressButton(string) error { return a.h.Device().PressButton() }
func (a hubActions) ResetDevice(string) error { a.h.Device().Reset(); return nil }

func newRig(t *testing.T, design core.DesignSpec) *rig {
	t.Helper()
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: hubID, FactorySecret: hubSecret, Model: "hub"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(design, reg)
	if err != nil {
		t.Fatal(err)
	}
	home := localnet.NewNetwork("home", "203.0.113.7")
	homeTransport := transport.StampSource(svc, home.PublicIP())

	h, err := New(device.Config{
		ID: hubID, FactorySecret: hubSecret, LocalName: "hub-1", Model: "hub",
	}, design, homeTransport)
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Join(h.Device()); err != nil {
		t.Fatal(err)
	}

	victim, err := app.New("victim@example.com", "pw", design, homeTransport, home)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Login(); err != nil {
		t.Fatal(err)
	}
	return &rig{svc: svc, home: home, h: h, victim: victim}
}

func pairThree(t *testing.T, h *Hub) []*SubDevice {
	t.Helper()
	h.PermitJoin(true)
	defer h.PermitJoin(false)
	subs := []*SubDevice{
		NewSubDevice("door-1", "contact"),
		NewSubDevice("temp-1", "thermometer"),
		NewSubDevice("lock-1", "lock"),
	}
	for _, s := range subs {
		if err := h.Pair(s); err != nil {
			t.Fatal(err)
		}
	}
	return subs
}

func TestPairingWindow(t *testing.T) {
	r := newRig(t, tpLinkLike())
	s := NewSubDevice("door-1", "contact")
	if err := r.h.Pair(s); !errors.Is(err, errJoinClosed) {
		t.Errorf("pair outside window = %v, want errJoinClosed", err)
	}
	r.h.PermitJoin(true)
	if err := r.h.Pair(s); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Pair(NewSubDevice("door-1", "contact")); !errors.Is(err, errDuplicateSub) {
		t.Errorf("duplicate pair = %v, want errDuplicateSub", err)
	}
	if got := r.h.Subs(); len(got) != 1 || got[0] != "door-1" {
		t.Errorf("Subs() = %v", got)
	}
	r.h.Unpair("door-1")
	r.h.Unpair("door-1") // idempotent
	if len(r.h.Subs()) != 0 {
		t.Error("Unpair left the node behind")
	}
}

// TestFourPartyLifecycle runs the full flow: hub setup via the app,
// sub-device pairing, sensor fan-in and command fan-out.
func TestFourPartyLifecycle(t *testing.T) {
	r := newRig(t, tpLinkLike())
	subs := pairThree(t, r.h)

	if err := r.victim.SetupDevice("hub-1", hubActions{h: r.h}); err != nil {
		t.Fatal(err)
	}

	// Fan-in: sub-device readings reach the user, namespaced.
	subs[1].Report("temperature_c", 21.5)
	if err := r.h.Sync(); err != nil {
		t.Fatal(err)
	}
	readings, err := r.victim.Readings(hubID)
	if err != nil {
		t.Fatal(err)
	}
	if len(readings) != 1 || readings[0].Name != "temp-1/temperature_c" || readings[0].Value != 21.5 {
		t.Errorf("readings = %+v", readings)
	}

	// Fan-out: a targeted command reaches exactly its node.
	if err := r.victim.Control(hubID, protocol.Command{
		ID: "c1", Name: "lock",
		Args: map[string]string{TargetArg: "lock-1"},
	}); err != nil {
		t.Fatal(err)
	}
	// An untargeted command stays on the hub.
	if err := r.victim.Control(hubID, protocol.Command{ID: "c2", Name: "identify"}); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := subs[2].Executed(); len(got) != 1 || got[0].Name != "lock" {
		t.Errorf("lock-1 executed %+v", got)
	}
	if got := subs[0].Executed(); len(got) != 0 {
		t.Errorf("door-1 executed %+v, want nothing", got)
	}
	if got := r.h.HubExecuted(); len(got) != 1 || got[0].ID != "c2" {
		t.Errorf("hub executed %+v", got)
	}
}

func TestUnknownTargetReported(t *testing.T) {
	r := newRig(t, tpLinkLike())
	pairThree(t, r.h)
	if err := r.victim.SetupDevice("hub-1", hubActions{h: r.h}); err != nil {
		t.Fatal(err)
	}
	if err := r.victim.Control(hubID, protocol.Command{
		ID: "c1", Name: "x", Args: map[string]string{TargetArg: "ghost"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.h.Sync(); !errors.Is(err, errUnknownSub) {
		t.Errorf("Sync with ghost target = %v, want errUnknownSub", err)
	}
}

// TestHubHijackAmplification is the four-party security result: the A4-3
// chain against the hub's binding hands the attacker every sub-device at
// once, and a single forged status exfiltrates the whole home's pending
// data.
func TestHubHijackAmplification(t *testing.T) {
	design := tpLinkLike()
	r := newRig(t, design)
	subs := pairThree(t, r.h)

	if err := r.victim.SetupDevice("hub-1", hubActions{h: r.h}); err != nil {
		t.Fatal(err)
	}

	lair := localnet.NewNetwork("lair", "198.51.100.66")
	atk, err := attacker.New("attacker@example.com", "pw", design,
		transport.StampSource(r.svc, lair.PublicIP()))
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}

	// The A4-3 chain against the hub identity.
	if err := atk.ForgeUnbind(hubID, core.UnbindDevIDAlone); err != nil {
		t.Fatal(err)
	}
	if _, err := atk.ForgeBind(hubID); err != nil {
		t.Fatal(err)
	}

	// One hijacked binding, three compromised devices.
	for i, name := range []string{"door-1", "temp-1", "lock-1"} {
		if err := atk.Control(hubID, protocol.Command{
			ID: "evil-" + name, Name: "actuate",
			Args: map[string]string{TargetArg: name},
		}); err != nil {
			t.Fatalf("attacker control %s: %v", name, err)
		}
		_ = i
	}
	if err := r.h.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		got := s.Executed()
		if len(got) != 1 || !strings.HasPrefix(got[i%1].ID, "evil-") {
			t.Errorf("%s executed %+v, want the attacker's command", s.Name(), got)
		}
	}

	// The victim is locked out.
	if err := r.victim.Control(hubID, protocol.Command{ID: "v", Name: "noop"}); err == nil {
		t.Error("victim still has control after hub hijack")
	}
}

func TestSyncReturnsCloudRejection(t *testing.T) {
	design := tpLinkLike()
	r := newRig(t, design)
	pairThree(t, r.h)
	if err := r.victim.SetupDevice("hub-1", hubActions{h: r.h}); err != nil {
		t.Fatal(err)
	}

	// Forge a registration (A3-4): the cloud drops the binding and the
	// session; the hub's next data sync must surface the rejection.
	lair := localnet.NewNetwork("lair", "198.51.100.66")
	atk, err := attacker.New("attacker@example.com", "pw", design,
		transport.StampSource(r.svc, lair.PublicIP()))
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := atk.ForgeStatus(hubID, protocol.StatusRegister, nil); err != nil {
		t.Fatal(err)
	}

	st, err := r.svc.ShadowState(protocol.ShadowStateRequest{DeviceID: hubID})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "" {
		t.Fatalf("binding survived the forged registration: %+v", st)
	}
}

func TestSubDeviceAccessors(t *testing.T) {
	s := NewSubDevice("door-1", "contact")
	if s.Name() != "door-1" || s.Kind() != "contact" {
		t.Error("accessors wrong")
	}
	s.Report("open", 1)
	if len(s.Executed()) != 0 {
		t.Error("fresh node has executed commands")
	}
}

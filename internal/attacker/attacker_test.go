package attacker_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/iotbind/iotbind/internal/attacker"
	"github.com/iotbind/iotbind/internal/cloud"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/devid"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

const (
	victimDev = "AA:BB:CC:00:00:66"
	devSecret = "factory-secret-66"
	lairIP    = "198.51.100.66"
)

func laxDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:        "lax",
		DeviceAuth:  core.AuthDevID,
		Binding:     core.BindACLApp,
		UnbindForms: []core.UnbindForm{core.UnbindDevIDUserToken, core.UnbindDevIDAlone},
	}
}

func newRig(t *testing.T, d core.DesignSpec) (*cloud.Service, *attacker.Attacker, string) {
	t.Helper()
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: victimDev, FactorySecret: devSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	// The victim binds.
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "victim", Password: "p"}); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "victim", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attacker.New("attacker", "pw", d, transport.StampSource(svc, lairIP))
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}
	return svc, atk, login.UserToken
}

func bindVictim(t *testing.T, svc *cloud.Service, userToken string) {
	t.Helper()
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: victimDev}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: victimDev, UserToken: userToken, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareIsIdempotent(t *testing.T) {
	_, atk, _ := newRig(t, laxDesign())
	if err := atk.Prepare(); err != nil {
		t.Fatalf("second Prepare: %v", err)
	}
	if atk.UserID() != "attacker" {
		t.Errorf("UserID = %q", atk.UserID())
	}
}

func TestForgeStatusStealsPendingData(t *testing.T) {
	svc, atk, victim := newRig(t, laxDesign())
	bindVictim(t, svc, victim)
	if err := svc.PushUserData(protocol.PushUserDataRequest{
		DeviceID: victimDev, UserToken: victim,
		Data: protocol.UserData{Kind: "schedule", Body: "secret"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := atk.ForgeStatus(victimDev, protocol.StatusHeartbeat, nil); err != nil {
		t.Fatal(err)
	}
	stolen := atk.StolenData()
	if len(stolen) != 1 || stolen[0].Body != "secret" {
		t.Errorf("stolen = %+v", stolen)
	}
}

func TestForgeStatusUnavailableWithOpaqueFirmware(t *testing.T) {
	d := laxDesign()
	d.FirmwareOpaque = true
	_, atk, _ := newRig(t, d)
	if _, err := atk.ForgeStatus(victimDev, protocol.StatusHeartbeat, nil); !errors.Is(err, attacker.ErrForgeryUnavailable) {
		t.Errorf("opaque forge = %v, want ErrForgeryUnavailable", err)
	}
	if atk.CanForgeDeviceMessages() {
		t.Error("CanForgeDeviceMessages = true for opaque firmware")
	}
}

func TestForgeBindPerMechanism(t *testing.T) {
	t.Run("acl-app uses attacker token", func(t *testing.T) {
		svc, atk, _ := newRig(t, laxDesign())
		resp, err := atk.ForgeBind(victimDev)
		if err != nil {
			t.Fatal(err)
		}
		if resp.BoundUser != "attacker" {
			t.Errorf("bound user = %q", resp.BoundUser)
		}
		st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: victimDev})
		if err != nil {
			t.Fatal(err)
		}
		if st.BoundUser != "attacker" {
			t.Errorf("shadow bound to %q", st.BoundUser)
		}
	})
	t.Run("acl-device uses attacker credentials", func(t *testing.T) {
		d := laxDesign()
		d.Binding = core.BindACLDevice
		_, atk, _ := newRig(t, d)
		resp, err := atk.ForgeBind(victimDev)
		if err != nil {
			t.Fatal(err)
		}
		if resp.BoundUser != "attacker" {
			t.Errorf("bound user = %q", resp.BoundUser)
		}
	})
	t.Run("acl-device needs protocol knowledge", func(t *testing.T) {
		d := laxDesign()
		d.Binding = core.BindACLDevice
		d.FirmwareOpaque = true
		_, atk, _ := newRig(t, d)
		if _, err := atk.ForgeBind(victimDev); !errors.Is(err, attacker.ErrForgeryUnavailable) {
			t.Errorf("opaque device bind = %v, want ErrForgeryUnavailable", err)
		}
	})
	t.Run("capability fails without factory proof", func(t *testing.T) {
		d := laxDesign()
		d.Binding = core.BindCapability
		_, atk, _ := newRig(t, d)
		if _, err := atk.ForgeBind(victimDev); !errors.Is(err, protocol.ErrAuthFailed) {
			t.Errorf("capability forge = %v, want ErrAuthFailed", err)
		}
	})
}

func TestForgeUnbindForms(t *testing.T) {
	svc, atk, victim := newRig(t, laxDesign())
	bindVictim(t, svc, victim)

	if err := atk.ForgeUnbind(victimDev, core.UnbindDevIDAlone); err != nil {
		t.Fatalf("type2 forge: %v", err)
	}
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: victimDev})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "" {
		t.Error("type2 unbind did not disconnect")
	}

	// Rebind; try type1 (no owner check on this lax design).
	bindVictim(t, svc, victim)
	if err := atk.ForgeUnbind(victimDev, core.UnbindDevIDUserToken); err != nil {
		t.Fatalf("type1 forge: %v", err)
	}

	if err := atk.ForgeUnbind(victimDev, core.UnbindReplaceByBind); err == nil {
		t.Error("unforgeable form accepted")
	}
}

func TestControlWithoutBindingFails(t *testing.T) {
	svc, atk, victim := newRig(t, laxDesign())
	bindVictim(t, svc, victim)
	if err := atk.Control(victimDev, protocol.Command{ID: "x", Name: "on"}); err == nil {
		t.Error("control without binding succeeded")
	}
}

func TestControlAfterHijack(t *testing.T) {
	svc, atk, victim := newRig(t, laxDesign())
	bindVictim(t, svc, victim)
	if err := atk.ForgeUnbind(victimDev, core.UnbindDevIDAlone); err != nil {
		t.Fatal(err)
	}
	if _, err := atk.ForgeBind(victimDev); err != nil {
		t.Fatal(err)
	}
	if err := atk.Control(victimDev, protocol.Command{ID: "x", Name: "unlock"}); err != nil {
		t.Fatalf("post-hijack control: %v", err)
	}
	// The command sits in the device inbox for the real device.
	resp, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: victimDev})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Commands) != 1 || resp.Commands[0].Name != "unlock" {
		t.Errorf("relayed commands = %+v", resp.Commands)
	}
}

func TestProbeDeviceID(t *testing.T) {
	_, atk, _ := newRig(t, laxDesign())
	exists, err := atk.ProbeDeviceID(victimDev)
	if err != nil || !exists {
		t.Errorf("probe real device = %v, %v", exists, err)
	}
	exists, err = atk.ProbeDeviceID("no-such-id")
	if err != nil || exists {
		t.Errorf("probe fake device = %v, %v", exists, err)
	}
}

func TestSweepBindDoS(t *testing.T) {
	d := laxDesign()
	gen, err := devid.NewShortDigitsGenerator(4)
	if err != nil {
		t.Fatal(err)
	}
	reg := cloud.NewRegistry()
	want := []string{"0005", "0017", "0100"}
	for _, id := range want {
		if err := reg.Add(cloud.DeviceRecord{ID: id, FactorySecret: "s" + id}); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := cloud.NewService(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attacker.New("a", "p", d, transport.StampSource(svc, lairIP))
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Prepare(); err != nil {
		t.Fatal(err)
	}

	result, err := atk.SweepBindDoS(gen, 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if result.Tried != 200 {
		t.Errorf("tried = %d, want 200", result.Tried)
	}
	if len(result.Existing) != 3 || len(result.Occupied) != 3 {
		t.Errorf("existing=%v occupied=%v, want all three", result.Existing, result.Occupied)
	}
	for _, id := range want {
		st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: id})
		if err != nil {
			t.Fatal(err)
		}
		if st.BoundUser != "a" {
			t.Errorf("device %s bound to %q, want attacker", id, st.BoundUser)
		}
	}
}

func TestUnpreparedAttackerFailsGracefully(t *testing.T) {
	d := laxDesign()
	reg := cloud.NewRegistry()
	if err := reg.Add(cloud.DeviceRecord{ID: victimDev, FactorySecret: devSecret}); err != nil {
		t.Fatal(err)
	}
	svc, err := cloud.NewService(d, reg)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := attacker.New("a", "p", d, transport.StampSource(svc, lairIP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atk.ForgeBind(victimDev); err == nil {
		t.Error("forge bind without Prepare succeeded")
	}
	if err := atk.ForgeUnbind(victimDev, core.UnbindDevIDUserToken); err == nil {
		t.Error("forge unbind without Prepare succeeded")
	}
	if err := atk.Control(victimDev, protocol.Command{}); err == nil {
		t.Error("control without Prepare succeeded")
	}
}

func TestNewValidatesDesign(t *testing.T) {
	if _, err := attacker.New("a", "p", core.DesignSpec{}, nil); err == nil {
		t.Error("invalid design accepted")
	}
}

// TestRefusalReadsAsBefore: a Refusal reads, under every verb, exactly as
// the fmt.Errorf("attacker: <step>: %w") it replaced — verdicts quote it
// (testbed's details.golden) — and errors.Is and errors.As find the
// cloud's error through it as through the wrapped one.
func TestRefusalReadsAsBefore(t *testing.T) {
	cloudErr := fmt.Errorf("cloud: bound to another user: %w", protocol.ErrAlreadyBound)
	for _, step := range []string{"forge status", "forge bind", "bind token", "forge unbind type1", "forge unbind type2", "control"} {
		var err error = &attacker.Refusal{Step: step, Err: cloudErr}
		old := fmt.Errorf("attacker: "+step+": %w", cloudErr)
		if err.Error() != old.Error() {
			t.Errorf("%s: reads %q, want %q", step, err.Error(), old.Error())
		}
		for _, verb := range []string{"%v", "%s", "%+v", "%q", "%x", "%60v", "%-60s", "forged message rejected: %v"} {
			if got, want := fmt.Sprintf(verb, err), fmt.Sprintf(verb, old); got != want {
				t.Errorf("%s under %q: %q, want %q", step, verb, got, want)
			}
		}
		var r *attacker.Refusal
		if !errors.Is(err, protocol.ErrAlreadyBound) || !errors.As(err, &r) || r.Step != step || r.Err != cloudErr {
			t.Errorf("%s: errors.Is/As do not see through the refusal", step)
		}
	}
}

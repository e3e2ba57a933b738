package cloud

import (
	"bytes"
	"errors"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// buildBusyService produces a service with accounts, a binding, a guest,
// pending data and readings — plenty of state to round-trip.
func buildBusyService(t *testing.T) (*Service, *testClock, string, string) {
	t.Helper()
	svc, clock, victim, attacker := newTestService(t, devIDDesign())
	guest := loginUser(t, svc, "guest@example.com", "pw-guest")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleShare(protocol.ShareRequest{DeviceID: testDevice, UserToken: victim, Guest: "guest@example.com"}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{
		Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
		Readings: []protocol.Reading{{Name: "power_w", Value: 7}},
	})
	// Push after the heartbeat so the data is still pending at snapshot
	// time.
	if err := svc.PushUserData(protocol.PushUserDataRequest{
		DeviceID: testDevice, UserToken: victim,
		Data: protocol.UserData{Kind: "schedule", Body: "private"},
	}); err != nil {
		t.Fatal(err)
	}
	_ = attacker
	return svc, clock, victim, guest
}

// TestSnapshotRoundTrip persists a busy cloud and restores it into a
// fresh service: every credential, binding, share and buffer must
// survive.
func TestSnapshotRoundTrip(t *testing.T) {
	svc, clock, victim, guest := buildBusyService(t)

	var buf bytes.Buffer
	if err := svc.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := readSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	restored, err := NewService(devIDDesign(), reg, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// The shadow state, binding and guests survive.
	st, err := restored.ShadowState(protocol.ShadowStateRequest{DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != core.StateControl || st.BoundUser != "victim@example.com" {
		t.Errorf("restored shadow = %+v", st)
	}
	shares, err := restored.Shares(protocol.SharesRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(shares.Guests) != 1 || shares.Guests[0] != "guest@example.com" {
		t.Errorf("restored guests = %v", shares.Guests)
	}

	// Old user tokens keep working (the token store survived).
	if _, err := restored.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c", Name: "on"},
	}); err != nil {
		t.Errorf("victim control after restore: %v", err)
	}
	if _, err := restored.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: guest, Command: protocol.Command{ID: "g", Name: "on"},
	}); err != nil {
		t.Errorf("guest control after restore: %v", err)
	}

	// Pending data survives and is still delivered to the device.
	resp, err := restored.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UserData) != 1 || resp.UserData[0].Body != "private" {
		t.Errorf("restored pending data = %+v", resp.UserData)
	}

	// Readings survive.
	readings, err := restored.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(readings.Readings) != 1 || readings.Readings[0].Value != 7 {
		t.Errorf("restored readings = %+v", readings.Readings)
	}

	// Accounts survive: logging in again works.
	if _, err := restored.Login(protocol.LoginRequest{UserID: "victim@example.com", Password: "pw-victim"}); err != nil {
		t.Errorf("login after restore: %v", err)
	}

	// Counters survive: the restored service's bind count equals the
	// snapshot's (no binds happened after restore).
	if restored.Stats().BindsAccepted != snap.Stats.BindsAccepted {
		t.Errorf("restored bind counter %d, snapshot had %d",
			restored.Stats().BindsAccepted, snap.Stats.BindsAccepted)
	}
}

func TestSnapshotRejectsMismatches(t *testing.T) {
	svc, _, _, _ := buildBusyService(t)
	snap := svc.Snapshot()

	t.Run("wrong version", func(t *testing.T) {
		bad := snap
		bad.Version = 99
		if err := svc.Restore(bad); !errors.Is(err, protocol.ErrBadRequest) {
			t.Errorf("Restore(v99) = %v", err)
		}
	})
	t.Run("wrong design", func(t *testing.T) {
		bad := snap
		bad.DesignName = "other-design"
		if err := svc.Restore(bad); !errors.Is(err, protocol.ErrBadRequest) {
			t.Errorf("Restore(other design) = %v", err)
		}
	})
	t.Run("unknown device", func(t *testing.T) {
		bad := snap
		bad.Shadows = append([]ShadowSnapshot(nil), snap.Shadows...)
		bad.Shadows = append(bad.Shadows, ShadowSnapshot{DeviceID: "ghost", State: core.StateOnline})
		if err := svc.Restore(bad); !errors.Is(err, protocol.ErrUnknownDevice) {
			t.Errorf("Restore(ghost device) = %v", err)
		}
	})
	t.Run("invalid state", func(t *testing.T) {
		bad := snap
		bad.Shadows = append([]ShadowSnapshot(nil), snap.Shadows...)
		bad.Shadows[0].State = core.ShadowState(42)
		if err := svc.Restore(bad); err == nil {
			t.Error("Restore(invalid state) succeeded")
		}
	})
}

func TestReadSnapshotMalformed(t *testing.T) {
	if _, err := readSnapshot(bytes.NewBufferString("{nope")); err == nil {
		t.Error("malformed snapshot parsed")
	}
}

// TestSnapshotIsDeterministic: two snapshots of the same state are
// byte-identical (stable ordering), which makes operator diffs useful.
func TestSnapshotIsDeterministic(t *testing.T) {
	svc, _, _, _ := buildBusyService(t)
	var a, b bytes.Buffer
	if err := svc.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := svc.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots of unchanged state differ")
	}
}

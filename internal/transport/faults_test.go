package transport_test

import (
	"errors"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/app"
	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/device"
	"github.com/iotbind/iotbind/internal/localnet"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
)

// probe drives n ShadowState calls through a faulted cloud and returns the
// outcome pattern (true = delivered successfully).
func probe(t *testing.T, c transport.Cloud, n int) []bool {
	t.Helper()
	out := make([]bool, n)
	for i := range out {
		_, err := c.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"})
		if err != nil && !errors.Is(err, transport.ErrUnavailable) {
			t.Fatalf("call %d: non-injected error %v", i, err)
		}
		out[i] = err == nil
	}
	return out
}

// TestFaultsDeterministicSchedule proves the fault schedule is a pure
// function of the seed: two planes with the same seed produce identical
// outcome patterns, and a different seed produces a different one.
func TestFaultsDeterministicSchedule(t *testing.T) {
	pattern := func(seed int64) []bool {
		plane := transport.NewFaultPlane(seed, transport.WithFailBeforeRate(0.4))
		return probe(t, plane.Wrap(newService(t), transport.PartyApp), 64)
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 64-call schedules")
	}
}

// TestFaultsFailAfterDelivery proves the at-least-once case a dropped
// request cannot express: the inner cloud processes the call (state
// mutates) while the caller sees ErrUnavailable and no response data.
func TestFaultsFailAfterDelivery(t *testing.T) {
	svc := newService(t)
	if err := newServiceUser(t, svc); err != nil {
		t.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "u", Password: "p"})
	if err != nil {
		t.Fatal(err)
	}

	plane := transport.NewFaultPlane(1, transport.WithFailAfterRate(1.0))
	faulted := plane.Wrap(svc, transport.PartyApp)

	resp, err := faulted.HandleBind(protocol.BindRequest{DeviceID: "d", UserToken: login.UserToken})
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("bind error = %v, want ErrUnavailable", err)
	}
	if resp.BoundUser != "" {
		t.Errorf("failed delivery leaked response data: %+v", resp)
	}
	// The caller was told the bind failed — but the cloud applied it.
	st, err := svc.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if st.BoundUser != "u" {
		t.Errorf("bound user = %q, want %q (fail-after must mutate state)", st.BoundUser, "u")
	}
	if plane.FailuresAfter() != 1 {
		t.Errorf("FailuresAfter = %d, want 1", plane.FailuresAfter())
	}
}

// TestFaultsPartitionWindow proves partitions are per party and expire
// with the injected clock.
func TestFaultsPartitionWindow(t *testing.T) {
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	plane := transport.NewFaultPlane(1, transport.WithFaultClock(clock, nil))
	svc := newService(t)
	dev := plane.Wrap(svc, transport.PartyDevice)
	app := plane.Wrap(svc, transport.PartyApp)

	plane.Partition(transport.PartyDevice, time.Minute)

	if _, err := dev.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("partitioned device error = %v, want ErrPartitioned", err)
	}
	if _, err := dev.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); !errors.Is(err, transport.ErrUnavailable) {
		t.Error("ErrPartitioned must also match ErrUnavailable for existing callers")
	}
	if _, err := app.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); err != nil {
		t.Fatalf("partition leaked to another party: %v", err)
	}

	now = now.Add(2 * time.Minute) // window lapses
	if _, err := dev.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); err != nil {
		t.Fatalf("call after window lapsed: %v", err)
	}

	plane.Partition(transport.PartyDevice, time.Minute)
	plane.Heal(transport.PartyDevice)
	if _, err := dev.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

// TestFaultsAddedLatency proves delivered calls advance the injected
// clock, so time-coupled policies feel the slow network.
func TestFaultsAddedLatency(t *testing.T) {
	now := time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)
	advance := func(d time.Duration) { now = now.Add(d) }
	plane := transport.NewFaultPlane(1,
		transport.WithAddedLatency(250*time.Millisecond, 0),
		transport.WithFaultClock(func() time.Time { return now }, advance))
	faulted := plane.Wrap(newService(t), transport.PartyDevice)

	start := now
	for i := 0; i < 4; i++ {
		if _, err := faulted.ShadowState(protocol.ShadowStateRequest{DeviceID: "d"}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := now.Sub(start), time.Second; got != want {
		t.Errorf("clock advanced %v over 4 calls, want %v", got, want)
	}
}

// TestFaultsFailureAccounting proves Calls/Failures stay consistent:
// every injected failure is counted exactly once.
func TestFaultsFailureAccounting(t *testing.T) {
	plane := transport.NewFaultPlane(3,
		transport.WithFailBeforeRate(0.3),
		transport.WithFailAfterRate(0.3))
	pattern := probe(t, plane.Wrap(newService(t), transport.PartyApp), 100)

	delivered := 0
	for _, ok := range pattern {
		if ok {
			delivered++
		}
	}
	if plane.Calls() != 100 {
		t.Errorf("Calls = %d, want 100", plane.Calls())
	}
	if got := plane.Failures(); got != 100-delivered {
		t.Errorf("Failures = %d, observed %d failed calls", got, 100-delivered)
	}
	if plane.FailuresBefore()+plane.FailuresAfter() != plane.Failures() {
		t.Errorf("failure split %d+%d != total %d",
			plane.FailuresBefore(), plane.FailuresAfter(), plane.Failures())
	}
	if plane.Failures() == 0 {
		t.Error("0 injected failures at 30%+30% over 100 calls — schedule broken")
	}
}

// TestAgentsSurfaceTransportFailures drives the device and app agents
// through an outage: errors must propagate wrapped (so callers can match
// ErrUnavailable) and, once the partition heals, the same agents finish
// the setup — a half-finished one does not wedge them.
func TestAgentsSurfaceTransportFailures(t *testing.T) {
	svc := newService(t)
	plane := transport.NewFaultPlane(1)
	home := localnet.NewNetwork("home", "203.0.113.7")

	dev, err := device.New(device.Config{
		ID: "d", FactorySecret: "s", LocalName: "plug", Model: "plug",
	}, svcDesign(), plane.Wrap(svc, transport.PartyDevice))
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Join(dev); err != nil {
		t.Fatal(err)
	}
	user, err := app.New("u@example.com", "pw", svcDesign(), plane.Wrap(svc, transport.PartyApp), home)
	if err != nil {
		t.Fatal(err)
	}

	// Outage: every step surfaces the injected failure.
	plane.Partition(transport.PartyDevice, time.Hour)
	plane.Partition(transport.PartyApp, time.Hour)
	if err := user.RegisterAccount(); !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("register during outage = %v", err)
	}
	if err := user.Login(); !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("login during outage = %v", err)
	}
	if err := dev.Provision(localnet.Provisioning{WiFiSSID: "home", WiFiPassword: "pw"}); !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("provision during outage = %v", err)
	}

	// Recovery.
	plane.Heal(transport.PartyDevice)
	plane.Heal(transport.PartyApp)
	if err := user.RegisterAccount(); err != nil {
		t.Fatal(err)
	}
	if err := user.Login(); err != nil {
		t.Fatal(err)
	}
	if err := user.SetupDevice("plug", nil); err != nil {
		t.Fatalf("setup after recovery: %v", err)
	}
}

// svcDesign mirrors newService's design for agent construction.
func svcDesign() core.DesignSpec {
	return core.DesignSpec{
		Name:        "t",
		DeviceAuth:  core.AuthDevID,
		Binding:     core.BindACLApp,
		UnbindForms: []core.UnbindForm{core.UnbindDevIDUserToken},
	}
}

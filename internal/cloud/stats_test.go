package cloud

import (
	"reflect"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestStatsCountLifecycle exercises every counter through one full flow
// plus assorted failures.
func TestStatsCountLifecycle(t *testing.T) {
	d := devIDDesign()
	d.ReplaceOnBind = true
	d.CheckBoundUserOnBind = false
	svc, _, victim, attacker := newTestService(t, d)

	// Failures to count.
	if _, err := svc.Login(protocol.LoginRequest{UserID: "ghost", Password: "x"}); err == nil {
		t.Fatal("ghost login succeeded")
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: "nope"}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim}); err == nil {
		t.Fatal("unbind of unbound succeeded")
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim}); err == nil {
		t.Fatal("control of unbound succeeded")
	}

	// Successes.
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	// Replacement by the attacker (counts as accepted + replaced).
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{
		DeviceID: testDevice, UserToken: attacker, Command: protocol.Command{ID: "1", Name: "on"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: attacker, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	got := svc.Stats()
	want := Stats{
		UsersRegistered:  2, // victim + attacker from the fixture
		Logins:           2,
		LoginFailures:    1,
		StatusAccepted:   1,
		StatusRejected:   1,
		BindsAccepted:    2,
		BindingsReplaced: 1,
		UnbindsAccepted:  1,
		UnbindsRejected:  1,
		ControlsQueued:   1,
		ControlsRejected: 1,
	}
	if got != want {
		t.Errorf("Stats() = %+v\nwant      %+v", got, want)
	}
}

func TestStatsCountTokenIssuance(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devTokenDesign())
	proof := protocol.PairingProof(testSecret, testDevice)
	if _, err := svc.RequestDeviceToken(protocol.DeviceTokenRequest{
		UserToken: victim, DeviceID: testDevice, PairingProof: proof,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RequestBindToken(protocol.BindTokenRequest{UserToken: victim, DeviceID: testDevice}); err != nil {
		t.Fatal(err)
	}
	// A failed issuance does not count.
	if _, err := svc.RequestDeviceToken(protocol.DeviceTokenRequest{
		UserToken: victim, DeviceID: testDevice, PairingProof: "bogus",
	}); err == nil {
		t.Fatal("bogus proof accepted")
	}
	got := svc.Stats()
	if got.DeviceTokensIssued != 1 || got.BindTokensIssued != 1 {
		t.Errorf("token counters = %+v", got)
	}
}

// TestStatsRestoreThenSnapshot: restore and snapshot pair each live
// counter with its own Stats field — every counter set to a distinct
// value comes back as it went in, and bumping one live counter moves
// only its own field.
func TestStatsRestoreThenSnapshot(t *testing.T) {
	var in Stats
	fields := reflect.ValueOf(&in).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).SetInt(int64(1000 + i))
	}
	var c statCounters
	c.restore(in)
	if got := c.snapshot(); got != in {
		t.Fatalf("snapshot after restore = %+v, want %+v", got, in)
	}
	c.BindingsReplaced.Add(1)
	want := in
	want.BindingsReplaced++
	if got := c.snapshot(); got != want {
		t.Fatalf("after one BindingsReplaced: %+v, want %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.StatusAccepted.Add(1) }); allocs != 0 {
		t.Fatalf("counting allocates %.0f times, want 0", allocs)
	}
}

package cloud

import (
	"reflect"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestShadowCopyCoversEveryField: shadow.copyFrom copies field by field,
// skipping only the lock. A field added to shadow must be copied there as
// well, and this count moved with it.
func TestShadowCopyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf((*shadow)(nil)).Elem().NumField(); n != 15 {
		t.Errorf("shadow has %d fields, copyFrom copies 14 and the lock", n)
	}
}

// TestCheckpointRewindsEverything: a service rewound to a checkpoint is
// the service that was captured — accounts, tokens, registry, counters
// and every shadow with its delegation grants, inboxes, readings,
// idempotency log and Figure 2 trace — whatever ran in between, and it
// serves on from there; once warm, a rewind and a capture allocate
// nothing.
func TestCheckpointRewindsEverything(t *testing.T) {
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(devIDDesign(), reg, WithClock(clock.Now), WithPersistentIdempotency())
	if err != nil {
		t.Fatal(err)
	}
	victim := loginUser(t, svc, "victim@example.com", "pw-victim")
	guest := loginUser(t, svc, "guest@example.com", "pw-guest")
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "bind-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleDelegate(protocol.DelegateRequest{DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com", Scopes: []string{"control", "read"}, TTLSeconds: 3600}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: guest, Command: protocol.Command{ID: "c1", Name: "on"}}); err != nil {
		t.Fatal(err)
	}
	if err := svc.PushUserData(protocol.PushUserDataRequest{DeviceID: testDevice, UserToken: victim, Data: protocol.UserData{Kind: "schedule", Body: "08:00"}}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-1",
		Readings: []protocol.Reading{{Name: "power_w", Value: 7}}})
	if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: victim, Command: protocol.Command{ID: "c2", Name: "off"}}); err != nil {
		t.Fatal(err)
	}

	type world struct {
		Snapshot Snapshot
		Trace    []core.Transition
		Registry []string
		Stats    Stats
	}
	look := func() world {
		return world{svc.Snapshot(), svc.ShadowTrace(testDevice), svc.Registry().IDs(), svc.Stats()}
	}
	want, at := look(), clock.Now()
	var c Checkpoint
	svc.Capture(&c)

	// Everything a later experiment may do: another device, account and
	// owner, the grant revoked, the inboxes drained, readings added, the
	// clock moved on.
	if err := reg.Add(DeviceRecord{ID: "AA:BB:CC:00:99:01", FactorySecret: "s", Model: "plug"}); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: "AA:BB:CC:00:99:01"})
	other := loginUser(t, svc, "other@example.com", "pw-other")
	if err := svc.HandleRevokeDelegation(protocol.RevokeDelegationRequest{DeviceID: testDevice, UserToken: victim, Grantee: "guest@example.com"}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	hb2 := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, IdempotencyKey: "hb-2",
		Readings: []protocol.Reading{{Name: "power_w", Value: 9}}}
	mustStatus(t, svc, hb2)
	if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: other, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(look(), want) {
		t.Fatal("the traffic after the capture changed nothing")
	}

	for round := 0; round < 2; round++ {
		svc.Rewind(&c)
		clock.t = at // the clock is the caller's
		if got := look(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: rewound service differs from the captured one\ngot:  %+v\nwant: %+v", round, got, want)
		}
		// It serves on from the captured world: the grant is back, the
		// keyed bind replays, the other device is unknown again.
		if _, err := svc.HandleControl(protocol.ControlRequest{DeviceID: testDevice, UserToken: guest, Command: protocol.Command{ID: "c3", Name: "on"}}); err != nil {
			t.Errorf("round %d: the guest's grant did not come back: %v", round, err)
		}
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp, IdempotencyKey: "bind-1"}); err != nil {
			t.Errorf("round %d: the keyed bind does not replay: %v", round, err)
		}
		if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: "AA:BB:CC:00:99:01"}); err == nil {
			t.Errorf("round %d: a device registered after the capture is still known", round)
		}
		mustStatus(t, svc, hb2)
		if n := svc.Stats().StatusDeduplicated; n != want.Stats.StatusDeduplicated {
			t.Errorf("round %d: a keyed heartbeat first sent after the capture replays (%d deduplicated)", round, n)
		}
	}

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(20, func() {
		svc.Rewind(&c)
		svc.Capture(&c)
	}); n != 0 {
		t.Errorf("a warm rewind and capture: %v allocations, want 0", n)
	}
}

package cloud

import (
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// TestSoakThirtyDaysOfHeartbeats simulates a month of steady device
// operation — heartbeats every 30 simulated seconds with a reading each —
// and checks the cloud's per-device state stays bounded: the readings
// buffer respects retention and the shadow trace records only real
// transitions, not one entry per heartbeat.
func TestSoakThirtyDaysOfHeartbeats(t *testing.T) {
	svc, clock, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}

	const (
		interval = 30 * time.Second
		days     = 30
	)
	beats := int(days * 24 * time.Hour / interval)
	for i := 0; i < beats; i++ {
		clock.Advance(interval)
		if _, err := svc.HandleStatus(protocol.StatusRequest{
			Kind:     protocol.StatusHeartbeat,
			DeviceID: testDevice,
			Readings: []protocol.Reading{{Name: "power_w", Value: float64(i % 100), At: clock.Now()}},
		}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}

	// Still in control, with bounded storage.
	st := shadowState(t, svc)
	if st.State != core.StateControl {
		t.Fatalf("state after soak = %v, want control", st.State)
	}
	readings, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(readings.Readings) != readingsRetention {
		t.Errorf("retained %d readings, want retention cap %d", len(readings.Readings), readingsRetention)
	}
	// The newest reading survived, the oldest did not.
	last := readings.Readings[len(readings.Readings)-1]
	if last.Value != float64((beats-1)%100) {
		t.Errorf("newest reading = %v, want the final sample", last.Value)
	}
	if trace := svc.ShadowTrace(testDevice); len(trace) != 2 {
		t.Errorf("shadow trace has %d edges after %d heartbeats, want 2 (register, bind)", len(trace), beats)
	}

	stats := svc.Stats()
	if stats.StatusAccepted != int64(beats)+1 {
		t.Errorf("status accepted = %d, want %d", stats.StatusAccepted, beats+1)
	}
}

// TestReadingsRetentionOption checks the retention cap keeps exactly the
// newest readingsRetention readings, in order.
func TestReadingsRetentionOption(t *testing.T) {
	svc, _, victim, _ := newTestService(t, devIDDesign())
	mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice})
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
		t.Fatal(err)
	}
	const extra = 7
	for i := 0; i < readingsRetention+extra; i++ {
		mustStatus(t, svc, protocol.StatusRequest{
			Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
			Readings: []protocol.Reading{{Name: "v", Value: float64(i)}},
		})
	}
	readings, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(readings.Readings) != readingsRetention {
		t.Fatalf("retained %d, want %d", len(readings.Readings), readingsRetention)
	}
	if first, last := readings.Readings[0].Value, readings.Readings[readingsRetention-1].Value; first != extra || last != readingsRetention+extra-1 {
		t.Errorf("retained window = %v..%v, want %d..%d", first, last, extra, readingsRetention+extra-1)
	}
}

package cloud

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// boundWindowService is a service whose test device is registered and
// bound to the victim, whose token it returns.
func boundWindowService(tb testing.TB) (*Service, *testClock, string) {
	tb.Helper()
	clock := newTestClock()
	reg := NewRegistry()
	if err := reg.Add(DeviceRecord{ID: testDevice, FactorySecret: testSecret, Model: "plug"}); err != nil {
		tb.Fatal(err)
	}
	svc, err := NewService(devIDDesign(), reg, WithClock(clock.Now))
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.RegisterUser(protocol.RegisterUserRequest{UserID: "victim@example.com", Password: "pw"}); err != nil {
		tb.Fatal(err)
	}
	login, err := svc.Login(protocol.LoginRequest{UserID: "victim@example.com", Password: "pw"})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := svc.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: testDevice}); err != nil {
		tb.Fatal(err)
	}
	if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: login.UserToken, Sender: core.SenderApp}); err != nil {
		tb.Fatal(err)
	}
	return svc, clock, login.UserToken
}

// keyedReadings builds n keyed heartbeats for the test device, the i-th
// carrying one reading of value i, stamped i seconds after at.
func keyedReadings(n int, at time.Time) []protocol.StatusRequest {
	reqs := make([]protocol.StatusRequest, n)
	for i := range reqs {
		reqs[i] = protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice,
			IdempotencyKey: fmt.Sprintf("window-%d", i),
			Readings:       []protocol.Reading{{Name: "power_w", Value: float64(i), At: at.Add(time.Duration(i) * time.Second)}}}
	}
	return reqs
}

// TestFullWindowStatusMovesAndAllocatesNothing: once a device's readings window and
// idempotency log are full, a keyed status with a reading writes exactly
// one window slot — the oldest reading's, which it replaces — where
// trimming a slice from the front moved the other 1 023, and allocates
// nothing in-process.
func TestFullWindowStatusMovesAndAllocatesNothing(t *testing.T) {
	svc, clock, _ := boundWindowService(t)
	reqs := keyedReadings(readingsRetention+maxIdemResults+1+2001, clock.Now())
	next := 0
	status := func() {
		if _, err := svc.HandleStatus(reqs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < readingsRetention+maxIdemResults {
		status()
	}
	if _, ok := svc.names.names["power_w"]; !ok {
		t.Error("the service does not hold the reading name its statuses carried")
	}
	sh, _ := svc.store.peek(testDevice)
	before := append([]heldReading(nil), sh.readings.buf...)
	status()
	if len(sh.readings.buf) != readingsRetention {
		t.Fatalf("window holds %d readings, want %d", len(sh.readings.buf), readingsRetention)
	}
	var changed []int
	for i := range before {
		if before[i] != sh.readings.buf[i] {
			changed = append(changed, i)
		}
	}
	if len(changed) != 1 || before[changed[0]].value != float64(next-1-readingsRetention) {
		t.Errorf("a full-window status changed slots %v, want only the oldest reading's", changed)
	}

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(2000, status); n != 0 {
		t.Errorf("a keyed status with a reading at a full window allocates %v times, want 0", n)
	}
}

// TestReadingsOrderAcrossWraparound: statuses carrying one, several or
// more readings than the window holds wrap the ring over and over, and
// after each the readings a user reads back, the snapshot's and a copied
// shadow's are the newest readingsRetention ever sent, oldest first.
func TestReadingsOrderAcrossWraparound(t *testing.T) {
	svc, clock, victim := boundWindowService(t)
	var sent []protocol.Reading
	at := clock.Now()
	for round, size := range []int{1, 3, 700, 1, 5, readingsRetention + 9, 2, 1000, 1, 333, readingsRetention, 17} {
		list := make([]protocol.Reading, size)
		for i := range list {
			list[i] = protocol.Reading{Name: fmt.Sprintf("m%d", len(sent)%3), Value: float64(len(sent)), At: at.Add(time.Duration(len(sent)) * time.Millisecond)}
			sent = append(sent, list[i])
		}
		mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: testDevice, Readings: list})
		want := sent[max(0, len(sent)-readingsRetention):]
		got, err := svc.Readings(protocol.ReadingsRequest{DeviceID: testDevice, UserToken: victim})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Readings, want) {
			t.Fatalf("round %d (%d sent): read back %d readings, want the newest %d in order", round, len(sent), len(got.Readings), len(want))
		}
		if snap := svc.Snapshot().Shadows[0].Readings; !reflect.DeepEqual(snap, want) {
			t.Fatalf("round %d: the snapshot holds %d readings, want the newest %d in order", round, len(snap), len(want))
		}
		sh, _ := svc.store.peek(testDevice)
		var copied shadow
		copied.copyFrom(sh)
		if list := copied.readings.list(); !reflect.DeepEqual(list, want) {
			t.Fatalf("round %d: a copied shadow holds %d readings, want the newest %d in order", round, len(list), len(want))
		}
	}
}

// BenchmarkStatusFullWindow times a keyed status with one reading on a
// bound device in-process, while its readings window fills (the window
// emptied by an unbind and a rebind, untimed, every readingsRetention
// statuses) and once the window and the idempotency log are full.
func BenchmarkStatusFullWindow(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "filling"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			svc, clock, victim := boundWindowService(b)
			// Each key comes back after readingsRetention-1 others, long
			// after the log evicted it: every status is fresh.
			reqs := keyedReadings(readingsRetention, clock.Now())
			status := func(i int) {
				if _, err := svc.HandleStatus(reqs[i%len(reqs)]); err != nil {
					b.Fatal(err)
				}
			}
			if full {
				for i := 0; i < readingsRetention+maxIdemResults; i++ {
					status(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !full && i > 0 && i%readingsRetention == 0 {
					b.StopTimer()
					if err := svc.HandleUnbind(protocol.UnbindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
						b.Fatal(err)
					}
					if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: testDevice, UserToken: victim, Sender: core.SenderApp}); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				status(i)
			}
		})
	}
}

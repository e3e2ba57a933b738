package cloud

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/iotbind/iotbind/internal/core"
	"github.com/iotbind/iotbind/internal/protocol"
)

// Bytes a device costs a store, as TestDeviceFootprint measures them,
// with the slack each bound allows over what it read on linux/amd64
// (Go 1.24): registered 699 B, bound 699 B (the shadow, 584 B in the
// 640-byte size class, and its store slot), warm 72 124 B. A warm device
// is bound and has sent footprintStatuses keyed statuses with one reading
// each, so its readings window (1 024 readings of 32 B: 32 KiB) and its
// idempotency log (256 records of 128 B: 32 KiB, 1 KiB of key hashes and
// the arena of its keys) are full.
const (
	registeredFootprint = 768       // 10 % over
	boundFootprint      = 768       // 10 % over
	warmFootprint       = 76 * 1024 // 8 % over: a 136-byte record would cross it
	footprintDevices    = 256
	footprintStatuses   = 1100
)

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDeviceFootprint pins what a device costs one Service, from
// runtime.MemStats after a collection: 256 devices registered, then
// bound, then warmed with 1 100 keyed statuses each. Bounds, not exact
// counts: the heap holds the runtime's own memory too, and a map grows
// in steps. (A warm device held 147 415 B before its readings and
// idempotency log became rings: a 1 024-reading slice of 48-byte
// readings with a string each, and a map of 256 records with their
// keys and an order slice.)
func TestDeviceFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	clock := newTestClock()
	reg := NewRegistry()
	ids := make([]string, footprintDevices)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:0F:%02X:%02X", i>>8, i&0xff)
		if err := reg.Add(DeviceRecord{ID: ids[i], FactorySecret: testSecret, Model: "plug"}); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewService(devIDDesign(), reg, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	victim := loginUser(t, svc, "victim@example.com", "pw-victim")
	base := liveHeap()
	perDevice := func() int64 { return (liveHeap() - base) / footprintDevices }

	for _, id := range ids {
		mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id})
	}
	registered := perDevice()
	for _, id := range ids {
		if _, err := svc.HandleBind(protocol.BindRequest{DeviceID: id, UserToken: victim, Sender: core.SenderApp}); err != nil {
			t.Fatal(err)
		}
	}
	bound := perDevice()
	for n := 0; n < footprintStatuses; n++ {
		for _, id := range ids {
			mustStatus(t, svc, protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: id,
				IdempotencyKey: fmt.Sprintf("warm-%d", n),
				Readings:       []protocol.Reading{{Name: "power_w", Value: float64(n), At: clock.Now()}}})
		}
	}
	warm := perDevice()
	runtime.KeepAlive(svc)
	t.Logf("bytes per device: registered %d, bound %d, warm %d", registered, bound, warm)
	for _, c := range []struct {
		name       string
		got, bound int64
	}{{"registered", registered, registeredFootprint}, {"bound", bound, boundFootprint}, {"warm", warm, warmFootprint}} {
		if c.got > c.bound {
			t.Errorf("a %s device costs %d bytes, want at most %d", c.name, c.got, c.bound)
		}
	}
}

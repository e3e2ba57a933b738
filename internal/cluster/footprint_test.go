package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/iotbind/iotbind/internal/protocol"
)

// Bytes a device costs a primary and its replica together, as
// TestPairFootprint measures them, with the slack each bound allows over
// what it read on linux/amd64 (Go 1.24): registered 2 955 B, bound
// 3 333 B, warm 145 849 B. The registered figure holds the shard logs'
// write buffers, which the first records open (four shards a side, 64 KiB
// each: 2 KiB a device at this fleet); the rest is two stores' worth of
// what cloud's TestDeviceFootprint pins for one, and each side's
// idempotency record of the bind.
const (
	pairRegisteredFootprint = 3328       // 13 % over
	pairBoundFootprint      = 3712       // 11 % over
	pairWarmFootprint       = 152 * 1024 // 7 % over: a 136-byte record would cross it
	pairFootprintDevices    = 256
	pairFootprintStatuses   = 1100
)

// TestPairFootprint pins what a device costs an ack-after-replicate
// node's primary and replica together, from runtime.MemStats after a
// collection: 256 devices registered, then bound, then warmed with 1 100
// keyed statuses with one reading each, each logged, shipped and applied
// on the replica. The replica's reading names are its service's own
// strings and its idempotency keys are borrowed from the records, so it
// keeps what the primary keeps. Bounds, not exact counts: the heap holds
// the runtime's, the logs' and the shipper's memory too. (Before the
// readings window and the idempotency log became rings, a bound device
// cost the pair 5 317 B and a warm one 308 254 B.)
func TestPairFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	ids := make([]string, pairFootprintDevices)
	for i := range ids {
		ids[i] = fmt.Sprintf("AA:BB:CC:0F:%02X:%02X", i>>8, i&0xff)
	}
	n := newLabNode(t, "n0", true, ids...)
	if err := n.RegisterUser(protocol.RegisterUserRequest{UserID: "u@lab", Password: "pw"}); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	perDevice := func() int64 { return (heap() - base) / pairFootprintDevices }

	for _, id := range ids {
		if _, err := n.HandleStatus(protocol.StatusRequest{Kind: protocol.StatusRegister, DeviceID: id}); err != nil {
			t.Fatal(err)
		}
	}
	registered := perDevice()
	for _, id := range ids {
		if _, err := n.HandleBind(protocol.BindRequest{DeviceID: id, UserID: "u@lab", UserPassword: "pw",
			IdempotencyKey: "bind-" + id}); err != nil {
			t.Fatal(err)
		}
	}
	bound := perDevice()
	at := labClock()()
	for s := 0; s < pairFootprintStatuses; s++ {
		for _, id := range ids {
			req := keyedStatus(id, fmt.Sprintf("warm-%d", s))
			req.Readings = []protocol.Reading{{Name: "power_w", Value: float64(s), At: at}}
			if _, err := n.HandleStatus(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := perDevice()
	requireSnapshotsEqual(t, n.primary, n.replica)
	runtime.KeepAlive(n)
	t.Logf("bytes per device across the pair: registered %d, bound %d, warm %d", registered, bound, warm)
	for _, c := range []struct {
		name       string
		got, bound int64
	}{{"registered", registered, pairRegisteredFootprint}, {"bound", bound, pairBoundFootprint}, {"warm", warm, pairWarmFootprint}} {
		if c.got > c.bound {
			t.Errorf("a %s device costs the pair %d bytes, want at most %d", c.name, c.got, c.bound)
		}
	}
}

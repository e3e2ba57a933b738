package cluster

import (
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"unsafe"

	"github.com/iotbind/iotbind/internal/binapi"
	"github.com/iotbind/iotbind/internal/protocol"
	"github.com/iotbind/iotbind/internal/transport"
	"github.com/iotbind/iotbind/internal/wal"
)

// TestStackStatusAllocations pins what a status costs across the whole
// composed stack: client → loopback socket → binapi → Router → Switchable
// → ack-after-replicate Node (logged, shipped and applied on the replica
// before the ack) and back. A registered device's bare heartbeat
// allocates nothing anywhere in the process: its ID is the registry's,
// and it logs nothing. A keyed heartbeat with one reading allocates five
// times, each a string a shadow keeps: the front end decodes the
// idempotency key and the reading's name, which the primary keeps; the
// replica decodes its own key, reading name and source address. The
// readings slices are borrowed from the two cursors' arenas and the
// bound-only reply is shared on both sides.
func TestStackStatusAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newLabNode(t, "n0", true, labDev)
	driveNode(t, n)
	ring, err := NewRing([]string{"n0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(ring, map[string]*transport.Switchable{"n0": transport.NewSwitchable(n)})
	if err != nil {
		t.Fatal(err)
	}
	srv := binapi.NewServer(router, binapi.WithStripes(1))
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := binapi.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The warm-up fills the reading and idempotency windows and sizes the
	// feed's and the cursors' arenas; AllocsPerRun makes one call more
	// than it counts.
	const warm, runs = 300, 1000
	reqs := make([]protocol.StatusRequest, warm+runs+1)
	for i := range reqs {
		reqs[i] = keyedStatus(labDev, fmt.Sprintf("hb-stack-%d", i))
		reqs[i].Readings = []protocol.Reading{{Name: "power_w", Value: float64(i), At: labClock()()}}
	}
	next := 0
	call := func() {
		resp, err := c.HandleStatus(reqs[next])
		if err != nil || !resp.Bound {
			t.Fatalf("keyed status %d: bound %v, %v", next, resp.Bound, err)
		}
		next++
	}
	for next < warm {
		call()
	}
	if got := testing.AllocsPerRun(runs, call); got != 5 {
		t.Errorf("a keyed status with one reading allocates %.0f times across the stack, want 5", got)
	}
	requireSnapshotsEqual(t, n.primary, n.replica)

	// Bare heartbeats are unlogged, so from here the primary counts more
	// statuses than its replica.
	bare := protocol.StatusRequest{Kind: protocol.StatusHeartbeat, DeviceID: labDev}
	beat := func() {
		if _, err := c.HandleStatus(bare); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		beat() // warm the pools
	}
	if got := testing.AllocsPerRun(2000, beat); got != 0 {
		t.Errorf("a bare heartbeat allocates %.0f times across the stack, want 0", got)
	}
}

// TestRouterDeviceIDsAreTheRegistrys: a front end asking the router for a
// device ID gets the registry's own string for a registered device — from
// the ring owner's Switchable and the node behind it — and a fresh copy
// for any other. After Kill → Promote → Swap the promoted replica answers
// from the same registry; a Switchable whose live backend cannot answer
// copies.
func TestRouterDeviceIDsAreTheRegistrys(t *testing.T) {
	var ids []string
	for i := 0; i < 32; i++ {
		ids = append(ids, fmt.Sprintf("AA:BB:CC:04:00:%02X", i))
	}
	reg := labRegistry(t, ids...)
	names := []string{"n0", "n1"}
	nodes := make(map[string]*Node, len(names))
	members := make(map[string]*transport.Switchable, len(names))
	for _, name := range names {
		n, err := NewNode(NodeConfig{
			Name: name, Dir: filepath.Join(t.TempDir(), name), Design: labDesign(), Registry: reg,
			Clock: labClock(), WALShards: 4, WAL: wal.Options{Policy: wal.SyncOff}, AckAfterReplicate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[name] = n
		members[name] = transport.NewSwitchable(n)
	}
	ring, err := NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(ring, members)
	if err != nil {
		t.Fatal(err)
	}
	const victim = "n0"
	check := func(stage string, registry bool) {
		t.Helper()
		owners := map[string]bool{}
		for _, id := range ids {
			owners[ring.Owner(id)] = true
			raw := []byte(id)
			got := r.DeviceID(raw)
			if got != id || unsafe.StringData(got) == unsafe.SliceData(raw) {
				t.Errorf("%s: %q came back as %q, or aliasing the raw bytes", stage, id, got)
			}
			if want := registry || ring.Owner(id) != victim; (unsafe.StringData(got) == unsafe.StringData(id)) != want {
				t.Errorf("%s: %q (owner %s) is the registry's string: %v, want %v",
					stage, id, ring.Owner(id), !want, want)
			}
		}
		if len(owners) != len(names) {
			t.Fatalf("the fleet landed on %d of %d nodes", len(owners), len(names))
		}
		raw := []byte("AA:BB:CC:04:FF:FF")
		if got := r.DeviceID(raw); got != string(raw) || unsafe.StringData(got) == unsafe.SliceData(raw) {
			t.Errorf("%s: an unregistered ID came back as %q, or aliasing the raw bytes", stage, got)
		}
	}
	check("live", true)
	if _, err := nodes[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	promoted, err := nodes[victim].Promote()
	if err != nil {
		t.Fatal(err)
	}
	r.Member(victim).Swap(promoted)
	check("after failover", true)
	r.Member(victim).Swap(transport.NewFaultPlane(1).Wrap(promoted, transport.PartyDevice))
	check("behind a backend that cannot answer", false)
}
